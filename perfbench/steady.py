"""Steadiness mode: run every workload repeatedly and summarise each metric.

    python3 perfbench/steady.py --runs 10 --label first
    python3 perfbench/steady.py --runs 10 --label second --compare BENCH_steady_first.json

Each run is a separate ``run.py`` process with its own seed (``--seed-base``
plus the run number), as long as BENCHMARK.json's ``run_seconds``; run
``k`` of every workload is made before run ``k + 1`` of any.  For
every workload and end-to-end metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  ``--compare`` adds the change of
each median against an earlier summary, as a share of the earlier median,
signed so that positive is worse.  The summary, with every run's figures,
is written to ``BENCH_steady_<label>.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    parser.add_argument("--compare", type=Path, help="an earlier BENCH_steady_*.json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    seconds = spec["run_seconds"]
    report: dict = {"label": args.label, "runs": args.runs, "seconds": seconds,
                    "seed_base": args.seed_base, "workloads": {}}
    workloads = [w["name"] for w in spec["workloads"]]
    # Seed by seed, every workload in turn: the host's pace drifts over
    # minutes, and this way each workload's runs span the whole set.
    all_runs: dict[str, list] = {workload: [] for workload in workloads}
    for k in range(args.runs):
        for workload in workloads:
            t0 = time.perf_counter()
            result = run_once(workload, args.seed_base + k, seconds)
            result["wall_s"] = time.perf_counter() - t0
            all_runs[workload].append(result)
            print(f"{workload} seed {args.seed_base + k}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} in {result['wall_s']:.1f} s",
                  file=sys.stderr)
    for workload, runs in all_runs.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_shares": sorted(shares),
            "metrics": {},
            "runs": runs,
        }
        print(f"\n{workload}: correct={entry['correct']}, failed share(s) {sorted(shares)}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}"
              + (f"{'vs earlier':>12}" if earlier else ""))
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = s
            line = (f"  {name:<14}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
                    f"{s['spread']:>9.3f}{bounds[name]['bound']:>7.2f}")
            if workload in earlier:
                old = earlier[workload]["metrics"][name]["median"]
                change = (s["median"] - old) / old
                if bounds[name]["better"] == "higher":
                    change = -change
                line += f"{change:>+12.3f}"
                s["worse_than_earlier"] = change
            print(line)
        report["workloads"][workload] = entry
    out = ROOT / f"BENCH_steady_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
