#!/usr/bin/env python3
"""Builds the benchmark from the repository sources and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

The first run configures and builds perfbench/ (a CMake project over
../src) into .bench_build/ at the repository root; later runs only rebuild
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. With --workload all, every workload runs in
turn and a combined result line follows, its metrics keyed
"<workload>/<metric>".
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["droplet_dram", "droplet_nvbm", "serve_mixed"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to perfbench/")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, **quiet)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed ({e})")

    def run(workload, capture):
        cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True)

    if args.workload != "all":
        sys.exit(run(args.workload, capture=False).returncode)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = run(workload, capture=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
