#!/usr/bin/env python3
"""Tolerance-aware perf-regression gate over google-benchmark JSON.

    perf_diff.py BASELINE.json CURRENT.json [--tolerance X] [--quiet]

Compares a fresh BENCH_perf.json run against the committed
bench/BENCH_baseline.json and exits nonzero when any benchmark regressed.

Raw wall/CPU times are machine-dependent: the baseline was recorded on one
box, CI runs on another, and a uniformly 2x-slower runner is not a
regression. The gate therefore normalizes by the geometric mean of the
per-benchmark time ratios across every benchmark the two files share: a
uniform machine-speed difference moves every ratio equally and cancels,
while a genuine regression in one hot loop sticks out of the normalized
ratio. A benchmark is flagged when

    (current_i / baseline_i) / geomean_j(current_j / baseline_j) > tolerance

The default tolerance (3.0) is deliberately loose — CI runs the benches at
--benchmark_min_time=0.01 where individual timings are noisy — but far
below the 10x synthetic slowdown the smoke.bench_perf_gate self-test
injects and the kind of accidental O(n) -> O(n^2) regress the gate exists
to catch.

A benchmark present in the baseline but missing from the current run also
fails the gate: silently dropping a benchmark is how a regression hides.
New benchmarks (in current, not baseline) are reported but pass — they
enter the gate when the baseline is next refreshed (see README
"Distributed campaigns & the perf gate" for the update procedure).
"""

import argparse
import json
import math
import sys


def load_benchmarks(path):
    """(name -> time in ns, name -> memo_hit_rate) for iteration entries.

    memo_hit_rate is an optional user counter some benchmarks attach
    (an extra numeric key on the entry); it is informational only and
    never part of the gate math.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"perf_diff: cannot read '{path}': {e}\n")
        sys.exit(2)
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    out = {}
    hit_rates = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # mean/median/stddev aggregates would double-count
        name = b.get("name")
        t = b.get("real_time")
        unit = b.get("time_unit", "ns")
        if name is None or t is None or unit not in unit_ns or t <= 0:
            continue
        out[name] = t * unit_ns[unit]
        rate = b.get("memo_hit_rate")
        if isinstance(rate, (int, float)):
            hit_rates[name] = float(rate)
    if not out:
        sys.stderr.write(f"perf_diff: no benchmark entries in '{path}'\n")
        sys.exit(2)
    return out, hit_rates


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=3.0,
                    help="max normalized slowdown ratio (default 3.0)")
    ap.add_argument("--quiet", action="store_true",
                    help="print only failures")
    args = ap.parse_args()
    if args.tolerance <= 1.0:
        sys.stderr.write("perf_diff: --tolerance must be > 1.0\n")
        sys.exit(2)

    base, base_rates = load_benchmarks(args.baseline)
    cur, cur_rates = load_benchmarks(args.current)

    missing = sorted(set(base) - set(cur))
    new = sorted(set(cur) - set(base))
    shared = sorted(set(base) & set(cur))
    if not shared:
        sys.stderr.write("perf_diff: baseline and current share no "
                         "benchmarks\n")
        sys.exit(2)

    ratios = {name: cur[name] / base[name] for name in shared}
    speed = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))

    failures = []
    rows = []
    for name in shared:
        norm = ratios[name] / speed
        flagged = norm > args.tolerance
        if flagged:
            failures.append(name)
        rows.append((name, base[name], cur[name], ratios[name], norm,
                     flagged))

    if not args.quiet:
        print(f"machine-speed factor (geomean current/baseline): "
              f"{speed:.3f}")
        print(f"{'benchmark':48s} {'base':>12s} {'current':>12s} "
              f"{'ratio':>8s} {'norm':>8s}")
        for name, b, c, r, n, flagged in rows:
            mark = " REGRESSED" if flagged else ""
            print(f"{name:48s} {b:12.0f} {c:12.0f} {r:8.2f} {n:8.2f}{mark}")
        for name in new:
            print(f"{name:48s} {'-':>12s} {cur[name]:12.0f}        "
                  f"(new, not gated)")
        # Memo hit-rate deltas: informational telemetry carried as user
        # counters, shown only when both artifacts have them for a
        # benchmark. Never affects the gate's exit status.
        rated = sorted(set(base_rates) & set(cur_rates))
        if rated:
            print(f"{'memo hit rate':48s} {'base':>12s} {'current':>12s} "
                  f"{'delta':>8s}")
            for name in rated:
                delta = cur_rates[name] - base_rates[name]
                print(f"{name:48s} {base_rates[name]:12.4f} "
                      f"{cur_rates[name]:12.4f} {delta:+8.4f}")

    ok = True
    if failures:
        ok = False
        sys.stderr.write(
            f"perf_diff: {len(failures)} benchmark(s) regressed beyond "
            f"{args.tolerance:.2f}x (normalized):\n")
        for name in failures:
            sys.stderr.write(
                f"  {name}: {ratios[name]:.2f}x raw, "
                f"{ratios[name] / speed:.2f}x normalized\n")
    if missing:
        ok = False
        sys.stderr.write(
            f"perf_diff: {len(missing)} baseline benchmark(s) missing from "
            "the current run (a dropped benchmark hides regressions):\n")
        for name in missing:
            sys.stderr.write(f"  {name}\n")
    if not ok:
        sys.stderr.write("perf_diff: FAIL — if this change is an accepted "
                         "trade-off, refresh bench/BENCH_baseline.json per "
                         "the README procedure\n")
        sys.exit(1)
    if not args.quiet:
        print(f"perf_diff: OK ({len(shared)} benchmarks within "
              f"{args.tolerance:.2f}x)")


if __name__ == "__main__":
    main()
