#!/usr/bin/env python3
"""Steadiness check for the RF-Prism benchmark.

    python3 perfbench/steady.py [--workloads serve-2d,...] [--runs 10]
        [--seed-base 1] [--seconds S] [--save FILE] [--baseline FILE]

Runs each workload --runs times through run.py, each run with its own
seed, and prints for every end-to-end metric the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median. A metric whose spread exceeds its BENCHMARK.json bound
is flagged FAIL (setup_s is exempt from the spread rule), one above a third
of its bound WARN. With --baseline (a file written by --save) it also
flags every metric whose median is worse than the baseline's by more than
its bound. Exits 1 when any run was incorrect or any FAIL was printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result "
                           f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, baseline_median, median):
    """Relative worsening of `median` against the baseline (>0 is worse)."""
    if baseline_median == 0:
        return 0.0
    change = (median - baseline_median) / baseline_median
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the raw values as JSON")
    parser.add_argument("--baseline", help="compare medians with a --save file")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.seed_base + i}: correct="
                      f"{result['correct']} failed={result['failed']}")
                ok = False
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"\n{workload}  ({args.runs} runs, {args.seconds:g} s each)")
        print(f"  {'metric':<20} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, metric in metrics.items():
            med, q1, q3, spread = spread_of(values[name])
            bound = metric["bound"]
            verdict = "ok"
            if spread > bound and name != "setup_s":
                verdict, ok = "FAIL spread", False
            elif spread > bound / 3:
                verdict = "WARN spread"
            base = baseline.get(workload, {}).get(name)
            if base:
                change = worse_by(metric, statistics.median(base), med)
                if change > bound:
                    verdict, ok = f"FAIL median {change:+.1%} vs baseline", False
                else:
                    verdict += f" ({change:+.1%} vs baseline)"
            print(f"  {name:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.2%} {bound:>6.2f}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
