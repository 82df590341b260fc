#!/usr/bin/env python3
"""Diff an emitted BENCH_*.json against its checked-in reference.

Usage: check_bench_regression.py REF.json NEW.json [--tolerance 0.25]
           [--sim-tolerance 1e-6] [--gate-wall]

Field classes (by key name, recursively):
  - booleans ("bit_identical"): a reference `true` must stay `true`.
  - "speedup" / "norm_throughput": machine-portable ratios measured in one
    process (two wall times, or bytes per second over an in-process memcpy
    probe); higher is better, regression if NEW < REF * (1 - tolerance).
  - "mass_overlap": deterministic selection quality; regression if it drops
    by more than 0.005.
  - keys under a "sim" subtree: deterministic port-clock simulation times,
    identical on every machine; any relative difference beyond
    --sim-tolerance is a regression (this is the timing-model gate).
  - "*_s" / "*seconds": absolute wall clocks.  Reported, but only gated
    with --gate-wall (CI runners and the 1-vCPU reference container have
    different hardware; the speedup ratios are the portable gate).
  - integer metadata (d, k, elems, elems_m): schema sanity, must match
    exactly ("reps" is a stability knob, not schema, and is not gated).

Exit status: 0 = no regressions, 1 = regressions (or schema mismatch).
"""

import argparse
import json
import sys

WALL_SUFFIXES = ("_s", "seconds")
RATIO_KEYS = {"speedup", "norm_throughput"}
META_KEYS = {"d", "k", "elems", "elems_m"}


class Checker:
    def __init__(self, tolerance, sim_tolerance, gate_wall):
        self.tolerance = tolerance
        self.sim_tolerance = sim_tolerance
        self.gate_wall = gate_wall
        self.failures = []
        self.notes = []

    def fail(self, path, message):
        self.failures.append(f"{path}: {message}")

    def note(self, path, message):
        self.notes.append(f"{path}: {message}")

    def compare(self, ref, new, path="$", in_sim=False):
        if isinstance(ref, dict):
            if not isinstance(new, dict):
                return self.fail(path, f"expected object, got {type(new).__name__}")
            for key, ref_value in ref.items():
                if key not in new:
                    self.fail(f"{path}.{key}", "missing in new output")
                    continue
                self.compare(ref_value, new[key], f"{path}.{key}",
                             in_sim or key == "sim")
        elif isinstance(ref, list):
            if not isinstance(new, list) or len(ref) != len(new):
                return self.fail(path, "array shape changed")
            for i, (r, n) in enumerate(zip(ref, new)):
                self.compare(r, n, f"{path}[{i}]", in_sim)
        elif isinstance(ref, bool):
            if ref and not new:
                self.fail(path, "was true in reference, now false")
        elif isinstance(ref, (int, float)):
            self.compare_number(path, float(ref), float(new), in_sim)
        else:
            if ref != new:
                self.note(path, f"changed: {ref!r} -> {new!r}")

    def compare_number(self, path, ref, new, in_sim):
        key = path.rsplit(".", 1)[-1].split("[")[0]
        if key in META_KEYS:
            if ref != new:
                self.fail(path, f"metadata changed: {ref:g} -> {new:g}")
        elif in_sim:
            denom = max(abs(ref), 1e-300)
            rel = abs(new - ref) / denom
            if rel > self.sim_tolerance:
                self.fail(path, f"simulated time drifted: {ref:g} -> {new:g} "
                                f"(rel {rel:.2e}; deterministic field)")
        elif key in RATIO_KEYS:
            floor = ref * (1.0 - self.tolerance)
            if new < floor:
                self.fail(path, f"{key} regressed: {ref:.3f} -> {new:.3f} "
                                f"(floor {floor:.3f})")
            else:
                self.note(path, f"{key} {ref:.3f} -> {new:.3f}")
        elif key == "mass_overlap":
            if new < ref - 0.005:
                self.fail(path, f"selection quality dropped: {ref:.4f} -> {new:.4f}")
        elif key.endswith(WALL_SUFFIXES):
            ratio = new / ref if ref > 0 else float("inf")
            message = f"wall {ref:.4f}s -> {new:.4f}s ({ratio:.2f}x ref)"
            if self.gate_wall and new > ref * (1.0 + self.tolerance):
                self.fail(path, "wall-time regression: " + message)
            else:
                self.note(path, message)
        else:
            self.note(path, f"{ref:g} -> {new:g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ref")
    parser.add_argument("new")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression for speedups and "
                             "normalized throughputs (and wall times with "
                             "--gate-wall)")
    parser.add_argument("--sim-tolerance", type=float, default=1e-6,
                        help="allowed relative drift of deterministic "
                             "simulated times")
    parser.add_argument("--gate-wall", action="store_true",
                        help="also fail on absolute wall-time regressions "
                             "(same-machine comparisons only)")
    args = parser.parse_args()

    with open(args.ref) as f:
        ref = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    checker = Checker(args.tolerance, args.sim_tolerance, args.gate_wall)
    checker.compare(ref, new)

    print(f"== {args.new} vs reference {args.ref} ==")
    for note in checker.notes:
        print(f"  info  {note}")
    if checker.failures:
        for failure in checker.failures:
            print(f"  FAIL  {failure}")
        print(f"{len(checker.failures)} regression(s).")
        return 1
    print("no regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
