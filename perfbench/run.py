#!/usr/bin/env python3
"""Builds and runs the repository benchmark, one workload per process.

    python3 perfbench/run.py --workload evac_wide --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ and the simulator libraries into .bench_build/ (CMake, Release);
later runs only rebuild what changed.  Every run then executes the
benchmark's self-test and the workload.  Build output goes to stderr; the
last stdout line is the workload's result JSON.  Exits non-zero without a
result when the build or the self-test fails; a workload whose correctness
check fails prints its result with "correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("evac_wide", "precopy_live", "evac_faults")
# A workload run that takes longer than this is killed and fails.
RUN_TIMEOUT_S = 170


def build() -> str:
    """Configures and builds perfbench; returns the binary path."""
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", here, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        subprocess.run([binary, "--self-test"], check=True, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
