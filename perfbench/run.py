#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root.  The first call configures and builds the
repo's `hitopk` library and the `perfbench` program into
.bench_build/perfbench (later calls rebuild incrementally); build output goes
to stderr.  The program's report goes to stdout, ending in one JSON line
whose metric names and units are checked against BENCHMARK.json.  Exits
non-zero, printing no result, when the sources are missing, the build fails,
or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(jobs):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no library sources under {ROOT} (need CMakeLists.txt and src/)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in names}, \
        [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build(min(4, os.cpu_count() or 1))
    units, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; BENCHMARK.json lists "
             f"{', '.join(workloads)}")

    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0:
        fail(f"perfbench exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail(f"metrics {got} do not match BENCHMARK.json {units}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
