"""Seeded end-to-end benchmark of pvsmooth.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from its
``src/`` directory (or from ``--src``), with the BLAS on one thread.  One
run:

1. until ``--seconds`` are up, in turns: builds the workload's inputs and
   problem (``setup_s``), solves with ``run_pvs`` to the workload's
   iteration cap (``solve_s``), writes the trace CSV and summary JSON with
   the ``cli`` writers (``report_s``) and checks the output (see
   ``workloads.check_output``);
2. prints a table of medians, then as the last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain and traced solves, reports the per-layer
metrics from the traced ones plus the tracing overhead, and requires both
kinds to end at bit-identical objectives and iteration counts.  Details,
samples and machine information go to ``.bench_out/`` under the tree root;
a traced run also leaves its raw spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import summarize  # noqa: E402

SETUP_BATCH_S, SETUP_BATCH_MAX = 0.01, 50
REPORT_MIN_REPS, REPORT_MAX_REPS, REPORT_MIN_S = 3, 100, 0.1

# report_s is printed but not gated: on the dispersion workloads it is about a
# millisecond of file writes whose run-to-run spread on a shared machine
# exceeds any usable bound.  It still counts in total_s.
END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "iter_ms": "ms", "total_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "prox.calls": "count", "prox.s": "s", "prox.share": "fraction",
    "prox.inner_iters": "count", "prox.inner_per_call": "count",
    "projections.calls": "count", "projections.calls_per_iter": "count",
    "projections.s": "s", "projections.bytes_per_iter_computed": "B",
    "projections.build_s": "s", "core.norm_bound_s": "s", "problems.build_s": "s",
    "problems.h.calls": "count", "problems.h.s": "s",
    "core.smoothed_parts.self_s": "s", "core.a_map.calls": "count",
    "core.a_map.s": "s",
    "solver.iters": "count", "solver.self_s": "s", "solver.self_us_per_iter": "us",
    "solver.trace_append_s": "s",
    "cli.trace_rows": "count", "cli.trace_csv_s": "s", "cli.summary_s": "s",
    "tracing_overhead": "fraction",
}
# span names that make up each layer's self time
LAYER_SPANS = {
    "prox": ("prox.prox",),
    "projections": ("projections.apply",),
    "problems": ("problems.h.value", "problems.h.grad"),
    "core": ("core.smoothed_parts", "core.a_map.apply", "core.a_map.adjoint"),
    "solver": ("solver.run_pvs", "solver.trace_append"),
}


def import_package(src):
    """Import pvsmooth from ``src``; refuse any other copy."""
    init = src / "pvsmooth" / "__init__.py"
    if not init.is_file():
        raise SystemExit("benchmark: no pvsmooth sources at %s" % init.parent)
    sys.path.insert(0, str(src))
    import pvsmooth

    if Path(pvsmooth.__file__).resolve() != init.resolve():
        raise SystemExit("benchmark: imported pvsmooth from %s, not %s"
                         % (pvsmooth.__file__, init))
    import pvsmooth.cli  # noqa: F401  (the report layer)

    return pvsmooth


def single_thread_blas():
    """Ask the BLAS for one thread; call before numpy is imported.

    A plain single-threaded baseline, and on a shared two-CPU machine far
    steadier than two BLAS threads that wait on each other.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def no_span(_name):
    return contextlib.nullcontext()


def median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------

def _blas_threads(np):
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _llc_bytes():
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        best = max(best, (level, value))
    return best[1]


def machine_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = None
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc_bytes": _llc_bytes(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def projector_bytes(projector, pvs):
    """Bytes of the arrays a projector holds, including nested projectors."""
    import numpy as np

    total = 0
    for value in vars(projector).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, pvs.SubspaceProjector):
            total += projector_bytes(value, pvs)
    return total


def _setup_batch(workloads, workload, seed, traced, pvs, tracing):
    """Build the instance one or more times; return the last build and data.

    Cheap builds repeat until the batch takes ``SETUP_BATCH_S``, so that a
    sub-millisecond set-up is timed over more than a single build.
    """
    samples, layers = [], []
    instance = None
    while not samples or (sum(samples) < SETUP_BATCH_S and len(samples) < SETUP_BATCH_MAX):
        instance = None  # release the previous build before timing the next
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        if traced:
            with tracing.instrument_setup(tracer, pvs):
                instance = workloads.make_instance(workload, seed, tracer.span)
        else:
            instance = workloads.make_instance(workload, seed, no_span)
        samples.append(time.perf_counter() - t0)
        if traced:
            s = tracer.summary()
            layers.append({
                "projections.build_s": s.get("projections.build", {}).get("total_s", 0.0),
                "core.norm_bound_s": s.get("core.norm_bound", {}).get("total_s", 0.0),
                "problems.build_s": s.get("problems.build", {}).get("total_s", 0.0),
            })
    return instance, samples, layers


def _report(pvs, problem, trace, out_dir, traced, tracing):
    """Write the trace CSV and summary JSON repeatedly; median times."""
    csv_path, json_path = out_dir / "trace.csv", out_dir / "summary.json"
    totals, csv_s, summary_s = [], [], []
    while len(totals) < REPORT_MIN_REPS or (
            sum(totals) < REPORT_MIN_S and len(totals) < REPORT_MAX_REPS):
        tracer = tracing.Tracer() if traced else None
        span = tracer.span if traced else no_span
        t0 = time.perf_counter()
        with span("cli.trace_csv"):
            pvs.cli.write_trace_csv(trace, csv_path)
        with span("cli.summary"):
            pvs.cli.write_summary_json(problem, trace, json_path)
        totals.append(time.perf_counter() - t0)
        if traced:
            s = tracer.summary()
            csv_s.append(s["cli.trace_csv"]["total_s"])
            summary_s.append(s["cli.summary"]["total_s"])
    out = {"report_s": median(totals)}
    if traced:
        out.update({"cli.trace_csv_s": median(csv_s), "cli.summary_s": median(summary_s)})
    return out, json.loads(json_path.read_text())


def _solve_layers(tracer, trace, problem, pvs):
    s = tracer.summary()

    def total(*names):
        return sum(s.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names):
        return sum(s.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(s.get(n, {}).get("self_s", 0.0) for n in names)

    rows = len(trace)
    prox_calls = calls("prox.prox")
    inner = tracer.counts.get("prox.inner_iters", 0)
    proj_per_row = calls("projections.apply") / rows
    out = {
        "prox.calls": prox_calls,
        "prox.s": total("prox.prox"),
        "prox.share": total("prox.prox") / total("solver.run_pvs"),
        "prox.inner_iters": inner,
        "prox.inner_per_call": inner / prox_calls if prox_calls else 0.0,
        "projections.calls": calls("projections.apply"),
        "projections.calls_per_iter": proj_per_row,
        "projections.s": total("projections.apply"),
        "projections.bytes_per_iter_computed":
            proj_per_row * projector_bytes(problem.subspace, pvs),
        "problems.h.calls": calls("problems.h.value", "problems.h.grad"),
        "problems.h.s": total("problems.h.value", "problems.h.grad"),
        "core.smoothed_parts.self_s": self_s("core.smoothed_parts"),
        "core.a_map.calls": calls("core.a_map.apply", "core.a_map.adjoint"),
        "core.a_map.s": total("core.a_map.apply", "core.a_map.adjoint"),
        "solver.iters": trace.iterations,
        "solver.self_s": self_s("solver.run_pvs"),
        "solver.self_us_per_iter": 1e6 * self_s("solver.run_pvs") / rows,
        "solver.trace_append_s": total("solver.trace_append"),
        "cli.trace_rows": rows,
    }
    layer_self = {layer: self_s(*names) for layer, names in LAYER_SPANS.items()}
    return out, layer_self


def _episode(pvs, workloads, tracing, workload, instance, cfg, out_dir, traced,
             reference, oracle):
    """Solve, report and check once.  Never raises: failures are returned."""
    result = {"traced": traced, "failures": []}
    tracer = tracing.Tracer() if traced else None
    trace = None
    t0 = time.perf_counter()
    try:
        if traced:
            with tracing.instrument_problem(tracer, instance.problem, pvs.solver), \
                    tracer.span("solver.run_pvs"):
                trace = pvs.run_pvs(instance.problem, cfg, instance.x1)
        else:
            trace = pvs.run_pvs(instance.problem, cfg, instance.x1)
        result["solve_s"] = time.perf_counter() - t0
        result["iterations"] = trace.iterations
        result["iter_ms"] = 1e3 * result["solve_s"] / max(trace.iterations, 1)
        report, summary = _report(pvs, instance.problem, trace, out_dir, traced, tracing)
        result.update(report)
        result["objective"] = workloads.final_objective(workload, instance, trace.final_x)
        result["failures"] = workloads.check_output(
            workload, instance, trace, summary, reference, oracle)
        if traced:
            layers, layer_self = _solve_layers(tracer, trace, instance.problem, pvs)
            result["layers"] = layers
            result["layer_self_s"] = layer_self
            result["tracer"] = tracer
    except Exception as exc:  # a failed run is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        result.setdefault("solve_s", time.perf_counter() - t0)
        result["failures"].append("%s: %s" % (type(exc).__name__, exc))
    return result


def measure(workload, seed, seconds, traced, out_dir, pvs):
    """Run one benchmark run; return its metrics and details as a dict."""
    import tracing
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = workloads.solver_config(workload)
    reference = workloads.load_reference(workload, seed)
    oracle = None
    setup_samples, setup_layers, episodes = [], [], []
    last_tracer = None
    kinds = (False, True) if traced else (False,)
    deadline = time.perf_counter() + seconds
    # Set-up, solves and reports take turns until the deadline, so that each
    # metric's samples spread over the whole run and see the same machine.
    while not episodes or time.perf_counter() < deadline:
        instance, samples, layers = _setup_batch(
            workloads, workload, seed, traced, pvs, tracing)
        setup_samples += samples
        setup_layers += layers
        if oracle is None:
            oracle = workloads.oracle_value(workload, instance, seed)
        for kind in kinds:  # traced runs alternate plain and traced solves
            episode = _episode(pvs, workloads, tracing, workload, instance,
                               cfg, out_dir, kind, reference, oracle)
            last_tracer = episode.pop("tracer", last_tracer)
            episodes.append(episode)
        instance = None

    failed = sum(1 for e in episodes if e["failures"])
    plain = [e for e in episodes if not e["traced"]]
    samples = {
        "setup_s": setup_samples,
        "solve_s": [e["solve_s"] for e in plain],
        "iter_ms": [e["iter_ms"] for e in plain if "iter_ms" in e],
        "report_s": [e["report_s"] for e in plain if "report_s" in e],
    }
    details = {"workload": workload.name, "seed": seed,
               "variant": workloads.variant_of(seed), "traced": traced,
               "failures": [f for e in episodes for f in e["failures"]]}
    if traced:
        done = [e for e in episodes if e["traced"] and "layers" in e]
        if not done:
            raise SystemExit("benchmark: no traced solve finished")
        outcomes = {(e.get("objective"), e.get("iterations")) for e in episodes}
        if len(outcomes) != 1:
            failed = len(episodes)
            details["failures"].append(
                "traced and untraced solves disagree: %r" % sorted(outcomes, key=str))
        layer_samples = {name: [e["layers"][name] for e in done] for name in done[0]["layers"]}
        layer_samples.update({name: [e[name] for e in done]
                              for name in ("cli.trace_csv_s", "cli.summary_s")})
        layer_samples.update({name: [layer[name] for layer in setup_layers]
                              for name in setup_layers[0]})
        samples.update(layer_samples)
        metrics = {name: median(values) for name, values in layer_samples.items()}
        metrics["tracing_overhead"] = (
            median([e["solve_s"] for e in done]) / median(samples["solve_s"]) - 1.0)
        details["layer_self_s"] = {
            layer: median([e["layer_self_s"][layer] for e in done])
            for layer in LAYER_SPANS}
        last_tracer.dump(out_dir / "spans.npz")
        units = PER_LAYER_UNITS
    else:
        metrics = {name: median(samples[name])
                   for name in ("setup_s", "solve_s", "iter_ms", "report_s")}
        metrics["total_s"] = metrics["setup_s"] + metrics["solve_s"] + metrics["report_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    details["samples"] = samples
    return {
        "correct": failed == 0,
        "attempted": len(episodes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }, details


def print_table(result, details):
    print("workload %s seed %d (variant %d), trace %d"
          % (details["workload"], details["seed"], details["variant"], details["traced"]))
    print("%-38s %-8s %14s %14s %14s %4s"
          % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, entry in result["metrics"].items():
        values = details["samples"].get(name) or [entry["value"]]
        _, q1, q3, _ = summarize(values)
        n = len(values)
        print("%-38s %-8s %14.6g %14.6g %14.6g %4d"
              % (name, entry["unit"], entry["value"], q1, q3, n))
    if not details["traced"]:
        values = details["samples"]["report_s"]
        _, q1, q3, _ = summarize(values)
        print("%-38s %-8s %14.6g %14.6g %14.6g %4d"
              % ("report_s", "s", median(values), q1, q3, len(values)))
    print("%-38s %-8s %14.6g %29s %4d" % (
        "failed_frac", "1", result["failed"] / result["attempted"], "",
        result["attempted"]))
    if "layer_self_s" in details:
        self_times = details["layer_self_s"]
        total = sum(self_times.values()) or 1.0
        print("solve self time by layer: " + ", ".join(
            "%s %.1f%%" % (layer, 100.0 * t / total)
            for layer, t in sorted(self_times.items(), key=lambda kv: -kv[1])))
    for failure in details["failures"]:
        print("FAILED: %s" % failure)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the pvsmooth package")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)

    single_thread_blas()
    pvs = import_package(args.src.resolve())
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    out_dir = args.out_dir / ("%s-seed%d-trace%d" % (workload.name, args.seed, args.trace))
    result, details = measure(workload, args.seed, args.seconds, bool(args.trace),
                              out_dir, pvs)
    details["machine"] = machine_info()
    details["result"] = result
    (out_dir / "result.json").write_text(json.dumps(details, indent=1, sort_keys=True))
    print("machine: " + json.dumps(details["machine"], sort_keys=True))
    print_table(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
