#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the Diffy reproduction.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload figs_ci|dse_ci|serve_pan \
        --seed N --seconds S --trace 0|1 [--smoke]

The first run configures and builds perfbench/ (the repository's
libraries from ../src plus the driver) as a Release build under
.bench_build/perfbench; later runs only check that the build is up to
date. Build output goes to stderr. The driver's stdout is passed
through: context, checks, every metric with its unit, and as the last
line one JSON object {correct, attempted, failed, metrics}. The exit
code is the driver's (1 when an output check fails); a failed build or
a run past its time limit exits non-zero without a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("figs_ci", "dse_ci", "serve_pan")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_step(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: {' '.join(cmd)} timed out", file=sys.stderr)
        return False
    return proc.returncode == 0


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        if not run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_step(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                     "--target", "perfbench"], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; digests printed, not pinned")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(BUILD_DIR / f"spans-{args.workload}-{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: the {args.workload} run exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
