"""Run the benchmark over several seeds and collect one result file per tree.

    python3 benchmarks/sweep.py --seeds 0-9 --out-dir OUT [--trace 1]
        [--side NAME=SRC ...] [--workload NAME ...]

Each run is a separate ``run.py`` process with ``--seconds`` from
``BENCHMARK.json``.  ``--side`` measures the package in another source
directory with this benchmark code; with two sides the runs alternate,
and which side goes first flips from seed to seed.  Writes
``OUT/<side>.json`` (the input ``compare.py`` takes) and prints, per
workload and metric, the median, quartiles and spread against the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import metric_specs, summarize, values_by_key  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(side_src, workload, seed, seconds, trace, out_dir):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", str(side_src), "--out-dir", str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "exit": proc.returncode, "wall_s": time.perf_counter() - t0,
              "result": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
        details = out_dir / ("%s-seed%d-trace%d" % (workload, seed, trace)) / "result.json"
        record["machine"] = json.loads(details.read_text())["machine"]
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def print_spread(name, runs, benchmark):
    specs = metric_specs(benchmark)
    print("\n[%s]" % name)
    print("%-20s %-36s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for (workload, metric), values in sorted(values_by_key(runs).items()):
        med, q1, q3, spread = summarize(values.values())
        bound = specs.get(metric, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "over" if spread > bound else ("ok" if spread < bound / 3 else "wide")
        print("%-20s %-36s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
            workload, metric, med, q1, q3, spread,
            "" if bound is None else "%.3g" % bound, flag))
    for run in runs:
        if not run["result"] or not run["result"]["correct"]:
            print("run failed: %s seed %d exit %d" % (run["workload"], run["seed"], run["exit"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--side", action="append",
                        help="NAME=SRC: measure the package in SRC under NAME")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    sides = [tuple(s.split("=", 1)) for s in args.side or ["this=%s" % (ROOT / "src")]]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    runs = {name: [] for name, _ in sides}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for name, src in order:
                record = run_once(Path(src).resolve(), workload, seed,
                                  benchmark["run_seconds"], args.trace,
                                  args.out_dir / "runs" / name)
                runs[name].append(record)
                print("%s %s seed %d: exit %d, %.1f s" % (
                    name, workload, seed, record["exit"], record["wall_s"]), flush=True)
    for name, _ in sides:
        (args.out_dir / ("%s.json" % name)).write_text(json.dumps(
            {"benchmark": benchmark, "runs": runs[name]}, indent=1) + "\n")
        print_spread(name, runs[name], benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
