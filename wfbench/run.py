#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 wfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the wfbench binary from the simulator sources in this checkout
(CMake, into .bench_build/wfbench), runs one workload and prints the result
JSON as the last line of stdout. Build output and progress go to stderr.
See wfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wfbench")
# setup_s is the median of this many set-ups, each in a process of its own
# and timed from that process's start, so one-time costs show in every one.
SETUPS = 5


def build():
    """Configures once, then brings the binary up to date; True on success."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "wfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_binary(args, *extra):
    """Runs the benchmark binary; returns its result JSON, or None."""
    cmd = [os.path.join(BUILD, "wfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference", args.workload + ".ref"),
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("wfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "workflow", "workflow.h")):
        print("wfbench: simulator sources (src/) not found", file=sys.stderr)
        return 2
    if not build():
        print("wfbench: build failed", file=sys.stderr)
        return 1
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            result = run_binary(args, "--setup-only", "1")
            if result is None:
                return 1
            setups.append(result["metrics"]["setup_s"]["value"])
    result = run_binary(args)
    if result is None:
        return 1
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
