#!/usr/bin/env python3
"""Runs every workload at test scale, untraced and traced, and checks that
each run is correct and emits exactly the metrics BENCHMARK.json names.

usage: check_metrics.py <perfbench binary> <BENCHMARK.json>
"""
import json
import subprocess
import sys


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            cmd = [binary, "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", trace, "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=240)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: not correct: {proc.stderr.strip()}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, unexpected "
                                f"{extra}, unit mismatch {units}")
            if trace == "1":
                merges = result["metrics"]["pmoctree.eviction_merges"]["value"]
                if workload == "droplet_dram" and merges != 0:
                    problems.append(f"{where}: eviction merges {merges} != 0")
                if workload == "droplet_nvbm" and merges <= 0:
                    problems.append(f"{where}: no eviction merges")
    for p in problems:
        print(p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
