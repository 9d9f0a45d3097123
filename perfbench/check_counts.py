#!/usr/bin/env python3
"""Checks that the benchmark's work counts repeat exactly.

Runs the traced mode of every workload twice on each of two seeds and
requires the deterministic counts (RR sets and entries sampled, PRIMA's
RR sets, arena top-up sets, welfare samples) to be identical between
the two runs of a seed. Exits 1 on any mismatch.

    python3 perfbench/check_counts.py [--seconds S] [--seeds A B]

Run from the repository root.
"""

import argparse
import json
import subprocess
import sys

COUNTS = [
    "rrset.sets",
    "rrset.entries",
    "prima.rr_sets_total",
    "prima.rr_sets_final",
    "shard.topup_sets",
    "welfare.sims",
]
WORKLOADS = ["serve-repeat", "serve-cold", "offline-solve"]


def run(workload, seed, seconds):
    cmd = json.load(open("BENCHMARK.json"))["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run reported correct=false")
    return {k: result["metrics"][k]["value"] for k in COUNTS}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--seeds", type=int, nargs=2, default=[1, 2])
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        for seed in args.seeds:
            a, b = (run(workload, seed, args.seconds) for _ in range(2))
            same = a == b
            ok &= same
            print(f"{workload} seed {seed}: {'repeat' if same else 'DIFFER'} {a}"
                  + ("" if same else f" vs {b}"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
