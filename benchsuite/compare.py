#!/usr/bin/env python3
"""Compares two sets of run.py results: a parent commit against a change.

    python3 benchsuite/compare.py PARENT_DIR CHANGE_DIR [--tag t0|t1|smoke]

Each directory holds run.py result files (<workload>-s<seed>-<tag>.json,
written with --out). A parent and a change file with the same workload
and seed form one pair; run at least ten pairs per workload, alternating
which side runs first.

First, per workload, correctness: the change fails the workload when it
failed more reps than the parent (failed_frac rose), or when a pair's
digests differ (the change moved a simulated result at that seed). No
metric of a failed workload counts as a gain.

Then one row per workload x metric gives each side's median and
quartiles, the pairs the change won, and a verdict:

  gain        the change won at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  unresolved  the parent's spread (IQR / median) is wider than the bound,
              and not every change run beats every parent run
  regression  the change's median is worse than the parent's by more than
              the BENCHMARK.json bound
  loss        the mirror of gain: the parent won at least 9/10 of the pairs
              and the medians differ by more than the parent's IQR, but by
              less than the bound (a clear slowdown the bound still allows)
  same        none of the above
  refused     would be a gain, but the workload failed its correctness check

With fewer than ten pairs a row only prints the numbers (too-few-pairs).
Per-layer metrics (--tag t1) have no bound: they get gain, loss or same.
Exits with status 1 when any workload fails or any row is a regression.
Uses the Python standard library only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load_results(directory, tag):
    out = {}
    for path in sorted(Path(directory).glob(f"*-{tag}.json")):
        with open(path) as f:
            r = json.load(f)
        out[(r["workload"], r["seed"])] = r
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if len(parent) < MIN_PAIRS:
        return "too-few-pairs", wins
    clear = abs(med_c - med_p) > q3 - q1
    if wins >= 0.9 * len(parent) and clear:
        return "gain", wins
    if bound is not None:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        if med_p != 0 and (q3 - q1) / abs(med_p) > bound and not all_better:
            return "unresolved", wins
        if sign * (med_p - med_c) > bound * abs(med_p):
            return "regression", wins
    if losses >= 0.9 * len(parent) and clear:
        return "loss", wins
    return "same", wins


def correctness(parent, change):
    """Problems with the change's correctness over one workload's pairs."""
    problems = []
    failed_p = sum(r["failed"] for r in parent)
    failed_c = sum(r["failed"] for r in change)
    if failed_c > failed_p:
        problems.append(
            f"failed reps {failed_c}/{sum(r['attempted'] for r in change)} "
            f"vs parent {failed_p}/{sum(r['attempted'] for r in parent)}")
    moved = [p["seed"] for p, c in zip(parent, change) if p["digest"] != c["digest"]]
    if moved:
        problems.append("simulated results differ (digest) at seed "
                        + ", ".join(map(str, moved)))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--tag", default="t0", choices=("t0", "t1", "smoke"),
                    help="which result files to compare (default t0)")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    specs = bench["per_layer"] if args.tag == "t1" else bench["end_to_end"]
    parent = load_results(args.parent, args.tag)
    change = load_results(args.change, args.tag)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        sys.exit(f"compare.py: no {args.tag} result pairs in {args.parent} "
                 f"and {args.change}")

    print(f"{'workload':<13} {'metric':<40} {'parent median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'wins':>6}  verdict")
    counts = {}
    failed_workloads = []
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        problems = correctness([parent[(workload, s)] for s in seeds],
                               [change[(workload, s)] for s in seeds])
        for p in problems:
            print(f"{workload:<13} FAILED: {p}")
        if problems:
            failed_workloads.append(workload)
        for spec in specs:
            name = spec["name"]
            p = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            v, wins = verdict(p, c, spec["better"], spec.get("bound"))
            if v == "gain" and problems:
                v = "refused"
            counts[v] = counts.get(v, 0) + 1
            pq1, pm, pq3 = quartiles(p)
            cq1, cm, cq3 = quartiles(c)
            print(f"{workload:<13} {name:<40} "
                  f"{pm:>14.6g} [{pq1:>9.4g}, {pq3:>9.4g}] "
                  f"{cm:>14.6g} [{cq1:>9.4g}, {cq3:>9.4g}] "
                  f"{wins:>2}/{len(seeds):<3}  {v}")
    print("# " + ", ".join(f"{k}: {n}" for k, n in sorted(counts.items()))
          + (f"; failed workloads: {', '.join(failed_workloads)}"
             if failed_workloads else ""))
    if counts.get("regression") or failed_workloads:
        sys.exit(1)


if __name__ == "__main__":
    main()
