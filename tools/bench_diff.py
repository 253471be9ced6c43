#!/usr/bin/env python3
"""Compare a fresh Google Benchmark JSON against a committed baseline.

Usage:
  tools/bench_diff.py BASELINE.json FRESH.json [--threshold 1.10] [--min-ns 1000]

Prints a per-benchmark table of real_time deltas (fresh / baseline; ratios
below 1.0 are speedups; a row run with repetitions counts as the median of
its repetitions) and exits nonzero if any benchmark regressed. A row
regressed when its median ratio passes the threshold and, if both sides ran
it more than once, the fresh repetitions' lower quartile also lies above the
baseline's upper quartile: a ratio inside the row's own spread is noise.
Each side's quartiles (q1-q3) are printed beside its median. Benchmarks
present on only one side are reported but do not fail the run (suites grow
and shrink across PRs).

A note on noise: real_time on a loaded or frequency-scaled machine can swing
by tens of percent. The tool surfaces the benchmark library's own context
(cpu_scaling_enabled, load average when present) as a sanity note; treat
single-digit-percent deltas as noise unless reproduced.
"""

import argparse
import json
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    ctx = doc.get("context", {})
    times = {}
    units = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue  # compare raw iterations, not mean/median/stddev rows
        name = b.get("name")
        if name is None or "real_time" not in b:
            continue
        times.setdefault(name, []).append(float(b["real_time"]))
        units[name] = b.get("time_unit", "ns")
    # --benchmark_repetitions=N repeats each row under one name: keep every
    # repetition, in nanoseconds.
    rows = {
        name: sorted(x * UNIT_NS.get(units[name], 1.0) for x in t)
        for name, t in times.items()
    }
    return ctx, rows


UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def quartiles(reps):
    """(q1, median, q3) of a row's repetitions; all three equal for one."""
    if len(reps) < 2:
        return reps[0], reps[0], reps[0]
    q1, q2, q3 = statistics.quantiles(reps, n=4, method="inclusive")
    return q1, q2, q3


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g}{unit}"
    return f"{ns:.0f}ns"


def context_notes(label, ctx):
    notes = []
    build = ctx.get("gqc_build_type") or ctx.get("library_build_type")
    if build and "debug" in str(build):
        notes.append(f"{label}: built in DEBUG mode ({build}) — numbers are not baseline-grade")
    if ctx.get("cpu_scaling_enabled"):
        notes.append(f"{label}: cpu frequency scaling is enabled — expect noisy timings")
    load_avg = ctx.get("load_avg")
    if isinstance(load_avg, list) and load_avg and load_avg[0] > ctx.get("num_cpus", 1):
        notes.append(
            f"{label}: load average {load_avg[0]:.2f} exceeds cpu count "
            f"{ctx.get('num_cpus')} — the machine was busy during the run"
        )
    return notes


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=1.10,
                    help="fail if fresh/baseline median real_time exceeds this "
                         "ratio (default 1.10 = 10%% regression) and, with "
                         "repetitions, the quartile ranges do not overlap")
    ap.add_argument("--min-ns", type=float, default=1000.0,
                    help="ignore benchmarks faster than this in the baseline "
                         "(sub-microsecond timings are dominated by noise)")
    args = ap.parse_args()

    base_ctx, base = load(args.baseline)
    fresh_ctx, fresh = load(args.fresh)

    for note in context_notes("baseline", base_ctx) + context_notes("fresh", fresh_ctx):
        print(f"note: {note}")

    shared = sorted(set(base) & set(fresh))
    only_base = sorted(set(base) - set(fresh))
    only_fresh = sorted(set(fresh) - set(base))

    width = max((len(n) for n in shared), default=4)
    print(f"{'benchmark':<{width}}  {'baseline (q1-q3)':>24}  "
          f"{'fresh (q1-q3)':>24}  {'ratio':>7}")
    regressions = []
    speedups = 0
    for name in shared:
        b_q1, b_ns, b_q3 = quartiles(base[name])
        f_q1, f_ns, f_q3 = quartiles(fresh[name])
        b_col = f"{fmt_ns(b_ns)} ({fmt_ns(b_q1)}-{fmt_ns(b_q3)})"
        f_col = f"{fmt_ns(f_ns)} ({fmt_ns(f_q1)}-{fmt_ns(f_q3)})"
        if b_ns < args.min_ns:
            print(f"{name:<{width}}  {b_col:>24}  {f_col:>24}    skip (below --min-ns)")
            continue
        ratio = f_ns / b_ns if b_ns > 0 else float("inf")
        # With repetitions on both sides, a slower median counts only when
        # the two interquartile ranges do not overlap.
        repeated = len(base[name]) > 1 and len(fresh[name]) > 1
        flag = ""
        if ratio > args.threshold:
            if not repeated or f_q1 > b_q3:
                flag = "  REGRESSION"
                regressions.append((name, ratio))
            else:
                flag = "  within spread"
        elif ratio < 1.0 / args.threshold:
            flag = "  improved"
            speedups += 1
        print(f"{name:<{width}}  {b_col:>24}  {f_col:>24}  {ratio:>7.3f}{flag}")

    for name in only_base:
        print(f"only in baseline: {name}")
    for name in only_fresh:
        print(f"only in fresh:    {name}")

    print(f"\n{len(shared)} compared, {speedups} improved, {len(regressions)} regressed "
          f"(threshold {args.threshold:.2f}x)")
    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        print(f"worst regression: {worst[0]} at {worst[1]:.3f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
