"""Compare benchmark results of two commits, metric by metric.

Each file is one result written by `run.py --out FILE`. Give every run of
one side, of one workload and trace mode:

    python3 perfbench/compare.py --before base-*.json --after change-*.json

Prints, per metric, the median and quartiles of each side and the change of
the medians. An end-to-end metric whose median worsened by more than its
bound in BENCHMARK.json is marked REGRESSED. The comparison is flagged when
any two files disagree on the environment record (thread count, library
versions, numba), because the figures are then not comparable.
"""

import argparse
import json
import os
import statistics
import sys

import environment

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def _load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def _summary(values):
    """Median and quartile spread (IQR over median) of one side."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def compare(before, after, limits):
    """Table lines, and whether any bounded metric worsened past its bound.

    `limits` maps an end-to-end metric to (better, bound) from
    BENCHMARK.json.
    """
    lines = []
    records = before + after
    kinds = {(r["workload"], r["trace"]) for r in records}
    if len(kinds) != 1:
        raise SystemExit(f"error: mixed workloads or trace modes: {kinds}")
    differing = set()
    for record in records[1:]:
        differing |= set(environment.differences(records[0]["environment"],
                                                  record["environment"]))
    if differing:
        lines.append("FLAG: environments differ in " + ", ".join(
            sorted(differing)) + "; these figures are not comparable")
    regressed = False
    lines.append(f"{'metric':50s} {'before':>12s} {'spread':>7s} "
                 f"{'after':>12s} {'spread':>7s} {'change':>8s}")
    for name, entry in before[0]["result"]["metrics"].items():
        old, old_spread = _summary(
            [r["result"]["metrics"][name]["value"] for r in before])
        new, new_spread = _summary(
            [r["result"]["metrics"][name]["value"] for r in after])
        change = (new - old) / abs(old) if old else float("nan")
        mark = ""
        if name in limits:
            better, bound = limits[name]
            worse = change if better == "lower" else -change
            if worse > bound:
                mark = "  REGRESSED"
                regressed = True
        lines.append(f"{name:50s} {old:12.6g} {old_spread:7.1%} "
                     f"{new:12.6g} {new_spread:7.1%} {change:+8.1%} "
                     f"{entry['unit']}{mark}")
    return lines, regressed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        limits = {m["name"]: (m["better"], m["bound"])
                  for m in json.load(fh)["end_to_end"]}
    lines, regressed = compare(_load(args.before), _load(args.after), limits)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
