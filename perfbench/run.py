"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload small-sweep --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout this file sits in, and
driven in one process and one thread as a closed loop with one caller: each
op starts when the previous one has returned.  A run

1. sets the workload up several times from scratch, spread over the run:
   each set-up is followed by an equal part of the timed phase, so that
   ``setup_s``, the median set-up time, samples the host as widely as the
   ops do;
2. runs whole rounds of ops for ``--seconds`` of timed time in all, splits
   them into windows of at least half a second and 100 ops, and reports
   each window's throughput and latency quantiles as read in the slower
   windows: the figure that three quarters of the windows reach (see
   ``SLOW_SHARE``);
3. checks every answer with the checkers in this directory;
4. prints one JSON object as the last line of standard output.

With ``--trace 0`` the object holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics instead: the run sets up once
under the tracer, alternates untraced and traced rounds for the given
seconds (the difference in their rates is the tracing overhead), runs a
short fixed coverage pass over the whole API under the tracer, repeats set-up and one round under
``tracemalloc`` for allocation peaks, and writes every span to
``BENCH_trace_<workload>.json.gz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# End-to-end figures are read over windows of whole rounds spanning at
# least this long and this many ops.
WINDOW_S = 0.5
WINDOW_OPS = 100
# Share of windows allowed to do better than a figure: ops_per_s is the
# rate that all but this share of windows reach, a latency the value that
# all but this share of windows' quantiles stay under.  A shared host runs
# a loop in bursts up to 1.7 times faster than its usual pace, for seconds
# at a time and in some runs more than others; the slower windows repeat
# better from run to run, where the median over windows moves with the
# share of bursts a run happened to get.  A quarter rather than a tenth: at
# a tenth, one auction-sweep run with a stretch at a third of the usual
# pace read 249 ops/s where nine others read 717 to 943.
SLOW_SHARE = 0.25


def load_program():
    """Import ``eunet`` from this checkout's sources, or exit non-zero."""
    if not (SRC / "eunet" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC / 'eunet'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import eunet
    import eunet.cli

    if Path(eunet.__file__).resolve().parent != (SRC / "eunet").resolve():
        sys.exit(f"error: imported eunet from {eunet.__file__}, not from {SRC}")
    return eunet


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of already sorted values."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_round(wl, r: int, latencies: list, answers, tracer=None) -> None:
    """Run round ``r``, appending each op's latency (ns) and adding its
    answer to ``answers``."""
    from workloads import Failed

    error_type = wl.api.EunError
    clock = time.perf_counter_ns
    for key, op in wl.round(r):
        t0 = clock()
        try:
            out = op() if tracer is None else tracer.call("op", op)
        except error_type as exc:
            out = Failed(f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        answers.add(key, out)


def window(latencies: list[int], seconds: float) -> tuple[float, float, float]:
    """A window's ops per second and its median and 90th-percentile
    latency (ns)."""
    latencies.sort()
    return len(latencies) / seconds, quantile(latencies, 0.5), quantile(latencies, 0.9)


def timed_alternating(wl, seconds: float, tracer, answers):
    """Alternate untraced and traced rounds, so host drift hits both alike.

    Returns ``(ops, wall)`` per mode, untraced first.
    """
    ops = [0, 0]
    walls = [0.0, 0.0]
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        traced = r % 2
        latencies: list[int] = []
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            run_round(wl, r, latencies, answers, tracer if traced else None)
            walls[traced] += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        ops[traced] += len(latencies)
        r += 1
        if traced and time.perf_counter() >= deadline:
            break
    return list(zip(ops, walls))


def fresh_setup(wl) -> float:
    wl.reset()
    gc.collect()
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def end_to_end(wl, seconds: float):
    """Set up ``wl.setup_reps`` times, each set-up followed by whole rounds
    until its share of ``seconds`` of timed time has passed.

    A shared host changes pace for seconds at a time, and set-ups made back
    to back all fall in one stretch: so made, the ``cli-docs`` set-up median
    spread 0.41 of its median over ten runs where ``ops_per_s`` spread 0.12.

    Rounds are grouped into windows of at least ``WINDOW_S`` timed seconds
    (set-ups not counted) and ``WINDOW_OPS`` ops, each summarised as it
    closes; a tail too short to close one is left out unless no window
    closed.  Answers are folded as they come (``workloads.Answers``), so the
    run's memory does not grow with the number of ops.
    """
    from workloads import Answers

    answers = Answers(wl)
    setups: list[float] = []
    windows: list[tuple[float, float, float]] = []
    latencies: list[int] = []
    timed_s = window_s = 0.0
    r = 0
    for k in range(wl.setup_reps):
        setups.append(fresh_setup(wl))
        gc.collect()
        part_end = seconds * (k + 1) / wl.setup_reps
        while timed_s < part_end:
            t0 = time.perf_counter()
            run_round(wl, r, latencies, answers)
            dt = time.perf_counter() - t0
            r += 1
            timed_s += dt
            window_s += dt
            if window_s >= WINDOW_S and len(latencies) >= WINDOW_OPS:
                windows.append(window(latencies, window_s))
                latencies, window_s = [], 0.0
    if not windows:
        windows.append(window(latencies, window_s))
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rates = sorted(w[0] for w in windows)

    def latency_ms(column: int) -> float:
        return quantile(sorted(w[column] for w in windows), 1.0 - SLOW_SHARE) / 1e6

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (quantile(rates, SLOW_SHARE), "ops/s"),
        "op_p50_ms": (latency_ms(1), "ms"),
        "op_p90_ms": (latency_ms(2), "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB"),
    }
    return metrics, answers


def traced(wl, seconds: float, workdir: Path):
    import layer_metrics
    from spans import Tracer
    from workloads import Answers

    answers = Answers(wl)

    tracer = Tracer()
    tracer.install()
    try:
        wl.reset()
        wl.setup()
    finally:
        tracer.uninstall()
    gc.collect()
    first = len(tracer.spans)
    (plain_ops, plain_wall), (ops, wall) = timed_alternating(wl, seconds, tracer, answers)
    coverage_first = len(tracer.spans)
    tracer.install()
    try:
        t0 = time.perf_counter()
        layer_metrics.coverage_pass(wl.api, workdir)
        coverage_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    memory = Tracer(memory=True)
    memory.install()
    try:
        wl.reset()
        wl.setup()
        run_round(wl, 0, [], answers, memory)
    finally:
        memory.uninstall()

    metrics = layer_metrics.compute(
        tracer, first, coverage_first, ops, wall + coverage_wall, memory,
        untraced_rate=plain_ops / plain_wall, traced_rate=ops / wall,
    )
    tracer.dump(
        str(ROOT / f"BENCH_trace_{wl.name}.json.gz"),
        {
            "workload": wl.name,
            "seed": wl.seed,
            "timed_first_span": first,
            "coverage_first_span": coverage_first,
            "metrics": metrics,
        },
    )
    return metrics, answers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = load_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = WORKLOADS[args.workload](api, args.seed, workdir)
        if args.trace:
            metrics, answers = traced(wl, args.seconds, workdir)
        else:
            metrics, answers = end_to_end(wl, args.seconds)
        problems, failed = wl.check(answers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more problems", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": answers.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
