"""Command-line interface.

Subcommands: ``validate``, ``query``, ``independence``, ``decide``,
``import-bn``, ``auction``.  Events on the command line are comma-separated
``Var=value`` terms naming a cylinder.  Numbers print in fixed notation with
12 digits after the point, so outputs are byte-stable across runs.

Exit codes: 0 success, 1 usage error, 2 validation or schema failure,
3 numeric/cap/event error or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Sequence
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import IO

from .decision import DecisionProblem, build_vickrey_auction, optimal_decision
from .formats import bn_to_eun, parse_bayes_net, parse_network, serialize_network
from .independence import eu_independent_vars, separates
from .inference import (
    conditional_event_utility,
    conditional_probability,
    event_utility,
    value,
)
from .model import (
    PROB,
    UTIL,
    EunError,
    Event,
    Network,
    ValidationError,
)

__all__ = ["UsageError", "run_command", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _load_network(path: str) -> Network:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_network(text)


def _parse_event_terms(text: str) -> dict[str, str]:
    partial: dict[str, str] = {}
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        name, sep, val = term.partition("=")
        name = name.strip()
        val = val.strip()
        if not sep or not name or not val:
            raise UsageError(
                f"bad event term {term!r}, expected comma-separated Var=value pairs"
            )
        if name in partial:
            raise UsageError(f"variable {name!r} appears twice in one event")
        partial[name] = val
    if not partial:
        raise UsageError("empty event specification")
    return partial


def _event(network: Network, text: str | None) -> Event:
    if text is None:
        return network.true_event()
    return network.cylinder(_parse_event_terms(text))


def _parse_var_list(text: str) -> tuple[str, ...]:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise UsageError("empty variable list")
    return names


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = _Parser(prog="eun", description="Expected utility network toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("validate", help="check a network document", description=(
        "Parse and structurally validate a network document. With --strict, also "
        "check that each variable's full-conditional ratio depends on its mantle "
        "alone, read off the factors that mention it (no joint table is built)."
    ))
    p.add_argument("network", help="path to an eun/1 document")
    p.add_argument("--strict", action="store_true", help="also run the table-vs-graph audit")

    p = sub.add_parser("query", help="probability / EU / value of an event")
    p.add_argument("network", help="path to an eun/1 document")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--prob", action="store_true", help="probability of the event")
    kind.add_argument("--eu", action="store_true", help="normalised expected utility")
    kind.add_argument("--value", action="store_true", help="value (utility times probability)")
    p.add_argument("-e", "--event", required=True, metavar="EVENT", help="target event")
    p.add_argument("-g", "--given", metavar="EVENT", help="conditioning event")

    p = sub.add_parser("independence", help="graph and EU independence tests")
    p.add_argument("network", help="path to an eun/1 document")
    p.add_argument("--layer", required=True, choices=[PROB, UTIL, "eu"])
    p.add_argument("-a", required=True, metavar="VARS", help="first variable set")
    p.add_argument("-b", required=True, metavar="VARS", help="second variable set")
    p.add_argument("-c", default="", metavar="VARS", help="conditioning variable set")

    p = sub.add_parser("decide", help="rank decision assignments by conditional EU")
    p.add_argument("network", help="path to an eun/1 document")
    p.add_argument("-d", "--decisions", required=True, metavar="VARS")
    p.add_argument("-e", "--evidence", metavar="EVENT")

    p = sub.add_parser("import-bn", help="convert a Bayes network document")
    p.add_argument("bayesnet", help="path to an eun-bn/1 document")
    p.add_argument("-o", "--output", required=True, metavar="PATH")

    p = sub.add_parser("auction", help="second-price auction best response")
    p.add_argument("--grid", required=True, type=int, metavar="K")
    p.add_argument("--eps", type=float, default=1e-6, metavar="E")
    p.add_argument("--value", required=True, metavar="V", help="observed value, a grid point")

    return parser


def _cmd_validate(args: argparse.Namespace, out: IO[str]) -> int:
    network = _load_network(args.network)
    print("structure: ok", file=out)
    if not args.strict:
        return EXIT_OK
    report = network.imap_report()
    if report.ok:
        print("tables: consistent with the graph", file=out)
        return EXIT_OK
    print("tables: INCONSISTENT with the graph", file=out)
    for v in report.violations:
        at = ", ".join(f"{k}={val}" for k, val in v.witness.items())
        print(
            f"  {v.variable}/{v.layer}: conditional ratio varies with a "
            f"non-neighbour (relative spread {v.deviation:.3e} at {at})",
            file=out,
        )
    return EXIT_VALIDATION


def _cmd_query(args: argparse.Namespace, out: IO[str]) -> int:
    network = _load_network(args.network)
    e = _event(network, args.event)
    g = _event(network, args.given) if args.given else None
    if args.prob:
        if g is None:
            result = event_utility(network, e).p
        else:
            result = conditional_probability(network, e, g)
    elif args.eu:
        if g is None:
            result = event_utility(network, e).u_norm
        else:
            result = conditional_event_utility(network, e, g)
    else:
        result = value(network, e, g)
    print(_fmt(result), file=out)
    return EXIT_OK


def _cmd_independence(args: argparse.Namespace, out: IO[str]) -> int:
    network = _load_network(args.network)
    a = _parse_var_list(args.a)
    b = _parse_var_list(args.b)
    c = tuple(n.strip() for n in args.c.split(",") if n.strip())
    if args.layer == "eu":
        if eu_independent_vars(network, a, b, c):
            print("eu-independent (separated in both layers)", file=out)
        else:
            print("not separated in both layers (no guarantee)", file=out)
        return EXIT_OK
    if separates(network.graph, args.layer, a, b, c):
        print("independent (graph separation)", file=out)
    else:
        print("not separated (independence not guaranteed by the graph)", file=out)
    return EXIT_OK


def _cmd_decide(args: argparse.Namespace, out: IO[str]) -> int:
    network = _load_network(args.network)
    evidence = _event(network, args.evidence)
    problem = DecisionProblem(network, _parse_var_list(args.decisions), evidence)
    result = optimal_decision(problem)
    for partial in result.argmax:
        terms = ",".join(f"{name}={val}" for name, val in partial.items())
        print(f"argmax: {terms}", file=out)
    print(f"eu: {_fmt(result.eu)}", file=out)
    return EXIT_OK


def _cmd_import_bn(args: argparse.Namespace, out: IO[str]) -> int:
    try:
        text = Path(args.bayesnet).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {args.bayesnet}: {exc.strerror or exc}") from None
    network = bn_to_eun(parse_bayes_net(text))
    document = serialize_network(network)
    try:
        Path(args.output).write_text(document, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    print(f"wrote {args.output}", file=out)
    return EXIT_OK


def _cmd_auction(args: argparse.Namespace, out: IO[str]) -> int:
    model = build_vickrey_auction(args.grid, args.eps)
    problem = model.decision_problem(args.value)
    result = optimal_decision(problem)
    bids = [partial[model.decision_var] for partial in result.argmax]
    truthful = model.grid_label(args.value)
    print("argmax: {" + ", ".join(bids) + "}", file=out)
    if truthful in bids:
        print(f"truthful bid {truthful} is in the argmax", file=out)
    else:
        print(f"truthful bid {truthful} is NOT in the argmax", file=out)
    print(f"eu: {_fmt(result.eu)}", file=out)
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "query": _cmd_query,
    "independence": _cmd_independence,
    "decide": _cmd_decide,
    "import-bn": _cmd_import_bn,
    "auction": _cmd_auction,
}


def run_command(
    argv: Sequence[str],
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    """Run one CLI invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        try:
            # argparse prints --help to sys.stdout and exits; keep both on
            # the streams handed to us.
            with redirect_stdout(out), redirect_stderr(err):
                args = parser.parse_args(list(argv))
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.command is None:
            parser.print_help(out)
            return EXIT_USAGE
        return _HANDLERS[args.command](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_VALIDATION
    except EunError as exc:  # cap, empty-event, separation and numeric-range errors
        print(f"error: {exc}", file=err)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory{f' ({exc})' if str(exc) else ''}", file=err)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
