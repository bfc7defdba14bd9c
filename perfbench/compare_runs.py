#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare_runs.py BASE CHANGE

BASE and CHANGE are result files written by run.py, or directories of
them (run.py writes them to <build dir>/results/, or --results-dir).
Untraced runs pair up by workload and seed when both sets share seeds,
and by seed order otherwise. For every workload x end-to-end metric of
BENCHMARK.json it prints the median and quartiles of both sets, the share
of pairs the change won and a verdict (see benchstats.compare). Exits 1 if
any verdict is "worse".
"""

import argparse
import glob
import json
import os
import sys

sys.dont_write_bytecode = True
import benchstats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """{workload: [result, ...]} of the untraced runs under `path`."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.json")))
    else:
        files = [path]
    runs = {}
    for name in files:
        with open(name) as f:
            result = json.load(f)
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def pair_up(base, change):
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in change):
        return [(by_seed[r["seed"]], r) for r in change]
    return list(zip(base, change))


def compare_sets(bench, base, change, out=sys.stdout):
    """Prints one row per workload x metric; returns the verdicts."""
    verdicts = []
    out.write("%-15s %-12s %30s %30s %6s  %s\n" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "won", "verdict"))
    for workload in sorted(set(base) & set(change)):
        pairs = pair_up(base[workload], change[workload])
        for metric in bench["end_to_end"]:
            name = metric["name"]

            def value(run):
                return run["metrics"][name]["value"]

            result = benchstats.compare(
                [value(r) for r in base[workload]],
                [value(r) for r in change[workload]],
                metric["better"], metric["bound"],
                [(value(b), value(c)) for b, c in pairs])
            b1, bm, b3 = result["base"]
            c1, cm, c3 = result["change"]
            out.write("%-15s %-12s %30s %30s %5.0f%%  %s\n" % (
                workload, name,
                "%.5g [%.5g, %.5g]" % (bm, b1, b3),
                "%.5g [%.5g, %.5g]" % (cm, c1, c3),
                100 * result["wins"], result["verdict"]))
            verdicts.append(result["verdict"])
    return verdicts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="base runs: a result file or directory")
    parser.add_argument("change", help="change runs: a file or directory")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    verdicts = compare_sets(bench, load_set(args.base),
                            load_set(args.change))
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
