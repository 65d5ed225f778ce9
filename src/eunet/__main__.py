"""Command-line entry point for ``python -m eunet``; same as ``eun``."""

from .cli import main

if __name__ == "__main__":
    main()
