#!/usr/bin/env python3
"""Repo benchmark: build the simulator from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which pulls in the simulator
sources one directory up) under .bench_build/perfbench in Release; later calls
only re-check the build. Build output goes to stderr. The measuring binary's
stdout is passed through: its last line is the result JSON. `--selftest` runs
the check that the benchmark's timed path gives the same results as
exp::run_experiment. Workload metadata and the pinned digests live in
perfbench/workloads.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# The measuring binary runs for --seconds plus at most a few iterations; the
# whole call must stay under three minutes.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no simulator sources in {ROOT}; cannot build the benchmark")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return run([str(BUILD / "perfbench_selftest")])

    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
        return 2
    return run([str(BUILD / "perfbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--expect-digest", workloads[args.workload]["digest"]])


if __name__ == "__main__":
    sys.exit(main())
