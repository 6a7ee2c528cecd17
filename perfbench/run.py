#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, and traced runs write their spans there
too. Build output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The run is killed, with every process it started, if it
overruns its time limit.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_LIMIT_S = 720  # configure + build together; only the first run builds everything
TIME_LIMIT_S = 170


def run_checked(cmd, deadline):
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    deadline = time.monotonic() + BUILD_LIMIT_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_checked(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], deadline) != 0:
            print("perfbench: configure failed", file=sys.stderr)
            return 2
    if run_checked(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
                   deadline) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + ["--out", build_root]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s and was killed" % TIME_LIMIT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
