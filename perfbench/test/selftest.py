#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Usage (from the root of a checkout): python3 perfbench/test/selftest.py

For every workload in BENCHMARK.json, at the tiny scale:
  - an end-to-end run and a traced run each pass the correctness gate with
    zero failed operations, and report exactly the metrics BENCHMARK.json
    declares for that mode, each with its declared unit; no end-to-end
    metric is 0;
  - the exact counts (update.tuples, net.bytes, mvcc.publishes and
    storage.bytes_written on SimRuntime; update.tuples on TCP) match across
    two traced invocations;
  - a second seed runs clean.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SIM_EXACT = ["update.tuples", "net.bytes", "mvcc.publishes",
             "storage.bytes_written"]
TCP_EXACT = ["update.tuples"]


def check(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace, seed):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                "--seconds", "1", "--trace", trace,
                                "--scale", "tiny"],
                         cwd=ROOT, capture_output=True, text=True)
    check(out.returncode == 0,
          f"{workload} trace={trace} seed={seed} exited {out.returncode}:\n"
          f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload} trace={trace} seed={seed} failed its gate: "
          f"{result['failed']} of {result['attempted']}")
    check(result["attempted"] >= 1, f"{workload}: nothing attempted")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in [w["name"] for w in bench["workloads"]]:
        traced = []
        for trace, seed in [("0", 1), ("1", 1), ("1", 1), ("0", 2)]:
            metrics = run(workload, trace, seed)
            check(set(metrics) == set(declared[trace]),
                  f"{workload} trace={trace}: reported "
                  f"{sorted(set(metrics) ^ set(declared[trace]))} "
                  f"unexpectedly")
            for name, entry in metrics.items():
                check(entry["unit"] == declared[trace][name],
                      f"{name}: unit {entry['unit']}")
                check(isinstance(entry["value"], (int, float)),
                      f"{name}: value {entry['value']!r}")
                check(trace == "1" or entry["value"] > 0,
                      f"{workload}: {name} is {entry['value']}")
            if trace == "1":
                traced.append(metrics)
        exact = TCP_EXACT if workload.endswith("_tcp") else SIM_EXACT
        for name in exact:
            first, second = (m[name]["value"] for m in traced)
            check(first == second and first > 0,
                  f"{workload}: {name} {first} then {second}")
        print(f"selftest: {workload} ok", file=sys.stderr)
    print("selftest: all workloads ok", file=sys.stderr)


if __name__ == "__main__":
    main()
