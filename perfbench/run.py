#!/usr/bin/env python3
"""Build and run the RF-Prism end-to-end benchmark.

    python3 perfbench/run.py --workload <serve-2d|shelf-3d|stream-track> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]

Run from the root of a source checkout. The first run configures and
builds the repository's libraries and the benchmark program (Release) under
.bench_build/; later runs only rebuild what changed. Build output goes to
standard error. Standard output carries `context` lines and, as its last
line, the program's JSON result. The exit code is the program's: 0 when every
output matched its reference, 1 when one did not; 2 when the sources or the
build are missing.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-2d", "shelf-3d", "stream-track")
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when the checkout is a repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return "commit " + rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256 " + digest.hexdigest()[:16]


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "rfprism_bench", "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return build_dir / "rfprism_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: perturb one reference output")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"error: no RF-Prism sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(ROOT / ".bench_out")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    print("context source " + source_id(), flush=True)
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: {program.name} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
