#!/usr/bin/env python3
"""Build and run the anyblock repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload inproc-dense --seed 1 --seconds 30 --trace 0

Configures and builds the perfbench CMake package (which compiles the
anyblock libraries from ../src) into .bench_build/perfbench, then runs the
benchmark.  Build output goes to stderr; the benchmark's stdout is passed
through, so the last stdout line is the result JSON.  Exits nonzero, without
a result, when the build or any check fails.  See perfbench/README.md.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inproc-dense", "socket-small", "sim-paper")
# A run that has not finished by then is hung (a lost socket peer, say):
# kill it rather than let it outlive the caller's deadline.
RUN_TIMEOUT_S = 150


def build(build_dir):
    """Configure once, then build incrementally; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        built = build(build_dir)
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(out_dir, "perfbench-work")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run killed after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
