#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, one row per (workload, metric).

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]
    python3 bench/e2e/compare.py --self-test

Each directory is searched recursively for result.json files written by
bench_e2e without --trace. Runs pair up by seed. For every end_to_end
metric of BENCHMARK.json a row reads:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              IQR, the distance between its quartiles;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound and not every change run beats every parent run;
  unchanged   otherwise.

Quartiles are Python's statistics.quantiles(values, n=4). Exits 1 when any
row regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def load_runs(directory):
    """{workload: {seed: metrics}} of the untraced results under directory."""
    runs = {}
    for dirpath, _, files in os.walk(directory):
        if "result.json" not in files:
            continue
        with open(os.path.join(dirpath, "result.json")) as f:
            r = json.load(f)
        if r.get("trace"):
            continue
        runs.setdefault(r["workload"], {})[r["seed"]] = r["metrics"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def classify(parent, change, better, bound):
    """Verdict for one metric; parent and change are lists aligned by pair."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = (q3 - q1) / med_p if med_p else 0.0
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (med_c - med_p) < -bound * abs(med_p):
        return "regressed"
    if wins >= 0.9 * len(parent) and sign * (med_c - med_p) > q3 - q1:
        return "improved"
    return "unchanged"


def compare(parent_runs, change_runs, spec):
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pairs = [(p_runs[s][name]["value"], c_runs[s][name]["value"])
                     for s in seeds
                     if name in p_runs[s] and name in c_runs[s]]
            if not pairs:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            rows.append((workload, name, statistics.median(parent),
                         statistics.median(change), len(pairs),
                         classify(parent, change, m["better"], m["bound"])))
    return rows


def self_test():
    ok = True

    def expect(got, want, what):
        nonlocal ok
        if got != want:
            print(f"self-test FAILED: {what}: {got} != {want}",
                  file=sys.stderr)
            ok = False

    expect(quartiles([7.0, 1.0, 3.0, 9.0, 4.0, 12.0, 2.0, 5.0]),
           (2.25, 4.5, 8.5), "quartiles")
    base = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    expect(classify(base, base, "lower", 0.1), "unchanged", "identical")
    expect(classify(base, [v * 0.8 for v in base], "lower", 0.1),
           "improved", "20% faster")
    expect(classify(base, [v * 1.2 for v in base], "lower", 0.1),
           "regressed", "20% slower")
    expect(classify(base, [v * 1.05 for v in base], "lower", 0.1),
           "unchanged", "5% slower within bound")
    expect(classify(base, [v * 1.2 for v in base], "higher", 0.1),
           "improved", "higher is better")
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    expect(classify(noisy, noisy, "lower", 0.1), "unresolved",
           "spread wider than bound")
    expect(classify(noisy, [v * 0.1 for v in noisy], "lower", 0.1),
           "improved", "every change run beats every parent run")
    # 8 wins of 10 is not enough for a claimed gain.
    mixed = [v * 0.9 for v in base[:8]] + [v * 1.01 for v in base[8:]]
    expect(classify(base, mixed, "lower", 0.1), "unchanged", "8/10 wins")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        ap.error("give PARENT_DIR and CHANGE_DIR, or --self-test")
    with open(args.benchmark) as f:
        spec = json.load(f)
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    if not rows:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 1
    print(f"{'workload':16} {'metric':16} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'pairs':>5}  verdict")
    for workload, name, p, c, n, verdict in rows:
        delta = (c - p) / p * 100 if p else 0.0
        print(f"{workload:16} {name:16} {p:12.5g} {c:12.5g} {delta:+7.1f}% "
              f"{n:5d}  {verdict}")
    return 1 if any(r[5] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
