#!/usr/bin/env python3
"""Builds crm_bench from this checkout's sources (Release) and runs it.

Usage, from the repository root:

    python3 crmbench/run.py --workload crm_point --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the benchmark's report goes to stdout and
its last line is the JSON result. The build tree and the benchmark's
databases live under .bench_build/crmbench in the repository root.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("crm_point", "crm_report", "crm_txn")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = os.path.join(ROOT, ".bench_build", "crmbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "-S", HERE, "-B", build,
                  "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        print("crmbench: configure failed", file=sys.stderr)
        return 1
    if run_quiet(["cmake", "--build", build, "--target", "crm_bench",
                  "-j", jobs]) != 0:
        print("crmbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build, "crm_bench")
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", os.path.join(build, "run"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
