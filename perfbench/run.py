#!/usr/bin/env python3
"""Builds and runs perfbench, the end-to-end benchmark of the fairhms stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the repository root. The first call configures and builds a
Release copy of the library and the harness under .bench_build/perfbench
(later calls only re-check the build). The harness prints progress and
the host description on stderr, and one JSON object as the last line of
stdout. The exit status is nonzero when the build fails, a correctness
check fails or the run exceeds its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")

# A run must end well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--parallel", "4",
         "--target", "perfbench"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    binary = os.path.join(BUILD_DIR, "perfbench")
    try:
        done = subprocess.run([binary, "--work_dir", WORK_DIR] + argv,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
