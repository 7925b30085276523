#!/usr/bin/env python3
"""Compares two request-cost result files (written by run.sh).

    python3 bench/request_cost/compare.py A.json B.json

A is the parent (or an earlier record), B the change. For each workload and
metric it prints both sides' median and quartiles over their valid runs and
B's change. A metric is taken from the untraced runs when they print it, else
from the traced runs. Verdicts:

    unresolved  (end-to-end) either side's spread, the quartile distance over
                the median, exceeds the BENCHMARK.json bound, and B's runs do
                not all beat A's
    worse       (end-to-end) B's median is worse than A's by more than the
                bound
    better      B wins at least 9 in 10 of at least 10 seed-matched pairs and
                the medians differ by more than A's own quartile distance (for
                per-layer metrics, "worse" is the same rule the other way)
    same        (end-to-end) none of the above
    -           (per-layer) neither better nor worse
"""
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# Fewer pairs cannot tell a change from a host that sped up or slowed down.
MIN_PAIRS = 10


def load_runs(path):
    """{workload: {metric: {seed: value}}} over the valid runs."""
    by_trace = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        result = run.get("result")
        if not result or not result.get("correct"):
            continue
        metrics = dict(run.get("metrics") or {})
        metrics.update({name: entry["value"] for name, entry in result["metrics"].items()})
        for name, value in metrics.items():
            key = (run["workload"], name)
            by_trace.setdefault(key, {}).setdefault(run["trace"], {})[run["seed"]] = value
    runs = {}
    for (workload, name), traces in by_trace.items():
        runs.setdefault(workload, {})[name] = traces.get(0) or traces[1]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def paired(a_runs, b_runs, higher):
    """'better' or 'worse' when B wins (or loses) 9 in 10 of at least 10
    seed-matched pairs by more than A's quartile distance; None otherwise."""
    pairs = [(a_runs[seed], b_runs[seed]) for seed in a_runs if seed in b_runs]
    if len(pairs) < MIN_PAIRS:
        return None
    q1, _, q3 = quartiles(list(a_runs.values()))
    gap = statistics.median(b_runs.values()) - statistics.median(a_runs.values())
    if abs(gap) <= q3 - q1:
        return None
    b_wins = sum(1 for x, y in pairs if (y > x if higher else y < x))
    a_wins = sum(1 for x, y in pairs if (x > y if higher else x < y))
    if b_wins >= 0.9 * len(pairs):
        return "better"
    if a_wins >= 0.9 * len(pairs):
        return "worse"
    return None


def verdict(metric, a_runs, b_runs):
    higher = metric["better"] == "higher"
    trend = paired(a_runs, b_runs, higher)
    if "bound" not in metric:
        return trend or "-"
    bound = metric["bound"]
    a = list(a_runs.values())
    b = list(b_runs.values())
    every_run_better = all((y > x if higher else y < x) for y in b for x in a)
    if max(spread(a), spread(b)) > bound and not every_run_better:
        return "unresolved"
    a_median = statistics.median(a)
    change = (statistics.median(b) - a_median) / abs(a_median) if a_median else 0.0
    if (-change if higher else change) > bound:
        return "worse"
    return "better" if trend == "better" else "same"


def fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:12.5g} [{q1:.4g}, {q3:.4g}]"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    a_all = load_runs(sys.argv[1])
    b_all = load_runs(sys.argv[2])
    print(f"{'workload':14s} {'metric':30s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            a = a_all.get(workload, {}).get(metric["name"])
            b = b_all.get(workload, {}).get(metric["name"])
            if not a or not b:
                continue
            a_median = statistics.median(a.values())
            b_median = statistics.median(b.values())
            change = (b_median - a_median) / abs(a_median) if a_median else 0.0
            print(f"{workload:14s} {metric['name']:30s} {fmt(list(a.values())):>34s} "
                  f"{fmt(list(b.values())):>34s} {100 * change:+7.1f}%  "
                  f"{verdict(metric, a, b)}")


if __name__ == "__main__":
    main()
