#!/usr/bin/env python3
"""Runs every workload N times and prints each metric's median and quartiles.

    python3 perfbench/repeat.py [--runs 10] [--trace 0|1] [--held-out]

Run from the repository root.  Every workload of BENCHMARK.json runs N
times for its run_seconds; run i uses seed `seed_base + i` (seed base 1, or
7919 with --held-out).  The workloads run in alternating order (forward on
even rounds, reversed on odd ones) so slow drift on the machine does not
land on one workload.  The spread column is (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4).

Seeds 1..N are the tuning seeds.  A gain claimed against this benchmark must
also hold on the held-out seeds (--held-out: seed base 7919), which were
not used while the benchmark or any change was written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HELD_OUT_SEED_BASE = 7919


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"repeat: {' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use seed base {HELD_OUT_SEED_BASE}")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seed_base = HELD_OUT_SEED_BASE if args.held_out else 1
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, seed_base + i, seconds, args.trace)
            results[w].append(r)
            print(f"run {i} {w} seed {seed_base + i}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr)

    print(f"{'workload':<14} {'metric':<30} {'unit':<6} {'median':>12} "
          f"{'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print(f"{w}: some runs failed their output checks")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{w:<14} {name:<30} {unit:<6} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.3f} "
                  f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
