#!/usr/bin/env python3
"""Corrupt-reference self-test for the RF-Prism benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Runs every workload twice: once as is, which must report correct: true
with no failures and exit 0, and once with --corrupt-reference, which flips
one bit of one reference output and so must report correct: false and
exit non-zero. Proves that each workload's output check can fail.
Exits 1 when any expectation is not met.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seconds, corrupt):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        code, result = run(workload, args.seconds, corrupt=False)
        clean = (code == 0 and result is not None and result["correct"]
                 and result["failed"] == 0)
        code_bad, result_bad = run(workload, args.seconds, corrupt=True)
        caught = (code_bad != 0 and result_bad is not None
                  and not result_bad["correct"])
        print(f"{workload:<14} clean run {'passes' if clean else 'FAILS'}; "
              f"corrupted reference {'caught' if caught else 'NOT caught'}")
        ok = ok and clean and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
