#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipelines64|campaign-bbw|model1024 \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the simulator libraries plus the
orte_perf benchmark program, Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. orte_perf prints the
human-readable report and, as its last line, the JSON result object.
A traced run (--trace 1) also writes its spans to
<build dir>/spans/<workload>-seed<N>.json.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipelines64", "campaign-bbw", "model1024")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Run a build step; on failure show its output on stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: {' '.join(cmd)} failed\n")
        sys.exit(1)


def build(build_dir):
    run_quiet(["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", build_dir, "--target", "orte_perf",
               "-j", BUILD_JOBS], timeout=1200)
    return os.path.join(build_dir, "orte_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: orte_perf exited {proc.returncode}\n")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: no result line\n")
        return 1
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    print(proc.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
