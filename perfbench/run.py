#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload app_campaign --seed 7 --seconds 30 --trace 0

Run from the repository root. The first call configures and compiles the
program's libraries and the perfbench binary (an optimized CMake build under
$CARGO_TARGET_DIR, default .bench_build); later calls only re-check that
build. Build output goes to stderr. The binary's output is passed through, so
the last line of stdout is the JSON result. Exits non-zero, printing no
result, when the program sources are missing, the build fails or the binary
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("app_campaign", "fleet_mesh")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configures (once) and builds the perfbench target; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: program sources (src/) not found next to perfbench/", file=sys.stderr)
        return 2
    directory = build_dir()
    if not build(directory):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    command = [os.path.join(directory, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
