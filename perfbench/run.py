#!/usr/bin/env python3
"""Builds the p2pdb benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny]

The first call configures and builds perfbench/ (which compiles the p2pdb
library from the repository's sources) into $CARGO_TARGET_DIR, or
.bench_build/ when that is unset; later calls only bring the build up to
date. Build output goes to stderr. The program's result is relayed as the last
line of stdout: one JSON object with "correct", "attempted", "failed" and
"metrics". Without the repository's sources next to perfbench/ the build
fails, and the script exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "p2pdb_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_step(configure, BUILD_TIMEOUT_S):
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_step(["cmake", "--build", build_dir, "--target", BINARY,
                     "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    return os.path.join(build_dir, BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_dir, "perfbench"))

    # The peers' data directories live inside the build tree and are removed
    # when the run ends, whatever its outcome.
    workdir = os.path.join(build_dir, "perfbench-data", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--workdir", workdir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        fail(f"{BINARY} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{BINARY} printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{BINARY} result has unexpected keys")
    print(lines[-1])


if __name__ == "__main__":
    main()
