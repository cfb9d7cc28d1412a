#!/usr/bin/env python3
"""Record or check the deterministic work counters of a benchmark run.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1 > out.txt
    python3 scripts/bench_counters.py write out.txt   # store in BENCH_<W>.json
    python3 scripts/bench_counters.py check out.txt   # compare with BENCH_<W>.json

A traced run (--trace 1) ends with a JSON line of per-layer metrics. Some of
them count simulated work (kernel events, trace records, FlexRay cycles, rv
deliveries, validation diagnostics): they are the same on every machine and
every run of one build. COUNTERS lists them; host-time metrics (*host_*,
*_ms*, *overhead_pct, share_of_setup) vary from run to run and stay out.

`write` stores the listed counters, the workload and the seed in
BENCH_<workload>.json at the repository root, and keeps every other key an
existing file holds (the wall-time record of the change that last moved a
counter). `check` exits 1 when the run's seed differs from the file's, or
when any listed counter differs from the file, and names each counter that
moved. Integer counters must match exactly; ratios within a relative 1e-9.
"""

import argparse
import fnmatch
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COUNTERS = (
    "sim.kernel.events_per_sim_s",
    "sim.kernel.dead_ratio",
    "sim.kernel.peak_queue_depth",
    "sim.kernel.wheel_flush_ratio",
    "sim.trace.records_per_sim_s",
    "os.*",
    "vfb.rte.writes",
    "vfb.rte.reads",
    "vfb.generator.tasks",
    "vfb.generator.signals",
    "bsw.com.*",
    "flexray.*",
    "rv.monitors",
    "rv.records_routed",
    "rv.records_delivered",
    "rv.delivery_ratio",
    "rv.violations",
    "validation.diagnostics.*",
    "validation.rule.*",
    "fi.detected_pct",
    "fi.spurious",
)


def parse_run(path):
    """Workload, seed and listed counters of one traced perfbench output."""
    with (sys.stdin if path == "-" else open(path, encoding="utf-8")) as f:
        lines = f.read().rstrip("\n").split("\n")
    fields = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("workload", "seed"):
            fields[parts[0]] = parts[1]
    if "workload" not in fields or "seed" not in fields:
        sys.exit(f"bench_counters: {path}: no workload or seed line")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if "sim.kernel.events_per_sim_s" not in metrics:
        sys.exit(f"bench_counters: {path}: not a traced run (--trace 1)")
    counters = {
        name: metrics[name]["value"]
        for name in sorted(metrics)
        if any(fnmatch.fnmatchcase(name, p) for p in COUNTERS)
    }
    return fields["workload"], int(fields["seed"]), counters


def same(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("write", "check"))
    parser.add_argument("output", help="stdout of a --trace 1 run, or -")
    args = parser.parse_args()

    workload, seed, counters = parse_run(args.output)
    path = os.path.join(ROOT, f"BENCH_{workload}.json")

    if args.mode == "write":
        record = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        record.update(workload=workload, seed=seed, counters=counters)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        print(f"bench_counters: wrote {len(counters)} counters to {path}")
        return 0

    with open(path, encoding="utf-8") as f:
        record = json.load(f)
    if record["seed"] != seed:
        print(f"bench_counters: {workload}: run seed {seed}, "
              f"{os.path.basename(path)} holds seed {record['seed']}")
        return 1
    want = record["counters"]
    moved = []
    for name in sorted(set(want) | set(counters)):
        if name not in counters:
            moved.append(f"{name}: {want[name]} -> (not reported)")
        elif name not in want:
            moved.append(f"{name}: (not recorded) -> {counters[name]}")
        elif not same(want[name], counters[name]):
            moved.append(f"{name}: {want[name]} -> {counters[name]}")
    for line in moved:
        print(f"bench_counters: {workload}: moved {line}")
    if moved:
        print(f"bench_counters: {workload}: {len(moved)} counter(s) differ "
              f"from {os.path.basename(path)}; rewrite it with `write` in "
              "the change that moves them")
        return 1
    print(f"bench_counters: {workload}: {len(counters)} counters match "
          f"{os.path.basename(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
