"""Compare two benchmark result files written by ``sweep.py``.

    python3 benchmarks/compare.py PARENT.json CHANGE.json

For every workload and metric it prints each side's median and quartiles
(over runs), the paired-run wins (runs paired by seed; ties count for
neither), and a verdict:

* ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved``: a side's spread (quartile distance over median) exceeds
  the bound, unless every change run beats every parent run;
* ``improved``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's quartile distance;
* ``same``: none of the above.

Per-layer metrics have no bound; they get only ``improved`` or ``same``.
Exit status 1 if any regression was found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def values_by_key(runs):
    """{(workload, metric): {seed: value}} over the runs of one result file."""
    out = defaultdict(dict)
    for run in runs:
        result = run.get("result")
        if not result:
            continue
        for name, entry in result["metrics"].items():
            out[(run["workload"], name)][run["seed"]] = entry["value"]
    return out


def summarize(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / |median|."""
    values = list(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def metric_specs(benchmark):
    specs = {m["name"]: m for m in benchmark.get("per_layer", [])}
    specs.update({m["name"]: m for m in benchmark.get("end_to_end", [])})
    return specs


def verdict(spec, parent, change):
    """Verdict for one (workload, metric); ``parent``/``change``: {seed: value}."""
    sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
    p_med, p_q1, p_q3, p_spread = summarize(parent.values())
    c_med, _, _, c_spread = summarize(change.values())
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    bound = spec.get("bound")
    all_better = all(sign * (c - p) < 0 for c in change.values() for p in parent.values())
    if bound is not None and sign * (c_med - p_med) > bound * abs(p_med):
        label = "REGRESSION"
    elif bound is not None and max(p_spread, c_spread) > bound and not all_better:
        label = "unresolved"
    elif seeds and wins >= 0.9 * len(seeds) and abs(c_med - p_med) > p_q3 - p_q1:
        label = "improved"
    else:
        label = "same"
    return label, wins, losses, len(seeds)


def compare(parent_file, change_file, out=sys.stdout):
    """Print the comparison table; return the number of regressions."""
    specs = metric_specs(change_file["benchmark"])
    parent = values_by_key(parent_file["runs"])
    change = values_by_key(change_file["runs"])
    regressions = 0
    print("%-20s %-36s %12s %12s %12s %12s %12s %12s %9s  %s" % (
        "workload", "metric", "parent_med", "parent_q1", "parent_q3",
        "change_med", "change_q1", "change_q3", "wins", "verdict"), file=out)
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in specs:
            continue
        label, wins, losses, pairs = verdict(specs[name], parent[key], change[key])
        regressions += label == "REGRESSION"
        p_med, p_q1, p_q3, _ = summarize(parent[key].values())
        c_med, c_q1, c_q3, _ = summarize(change[key].values())
        print("%-20s %-36s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %9s  %s" % (
            workload, name, p_med, p_q1, p_q3, c_med, c_q1, c_q3,
            "%d-%d/%d" % (wins, losses, pairs), label), file=out)
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    return 1 if compare(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main())
