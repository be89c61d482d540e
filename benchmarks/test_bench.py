"""Self-tests of the benchmark itself.

    python3 -m pytest benchmarks/test_bench.py -q

Small runs of every workload must emit every metric ``BENCHMARK.json``
names, with its unit, and pass the output check; the check must reject a
wrong answer; the command must fail without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

pvs = run.import_package(run.ROOT / "src")

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_small_run_emits_every_metric(name, traced, tmp_path):
    workload = workloads.WORKLOADS[name].small()
    result, details = run.measure(workload, 3, 0.0, traced, tmp_path, pvs)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["failures"]
    assert result["attempted"] == (2 if traced else 1) and result["failed"] == 0
    expected = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if traced:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["projections.calls_per_iter"] == 2
        assert metrics["solver.iters"] == workload.max_iter
        assert metrics["cli.trace_rows"] == workload.max_iter + 1
        assert (tmp_path / "spans.npz").is_file()


def _solved(name, seed=0):
    workload = workloads.WORKLOADS[name].small()
    instance = workloads.make_instance(workload, seed, run.no_span)
    trace = pvs.run_pvs(instance.problem, workloads.solver_config(workload), instance.x1)
    return workload, instance, trace


def _summary(instance, trace, tmp_path):
    path = tmp_path / "summary.json"
    pvs.cli.write_summary_json(instance.problem, trace, path)
    return json.loads(path.read_text())


def test_check_rejects_a_wrong_objective(tmp_path):
    workload, instance, trace = _solved("dispersion-direct")
    summary = _summary(instance, trace, tmp_path)
    reference = workloads.load_reference(workload, 0)
    oracle = workloads.oracle_value(workload, instance, 0)
    assert workloads.check_output(workload, instance, trace, summary, reference, oracle) == []

    ref, tol = reference
    wrong = workloads.check_output(workload, instance, trace, summary, (ref + 1e-3, tol))
    assert any("reference" in f for f in wrong)
    worse = workloads.check_output(workload, instance, trace, summary, oracle=ref - 1.0)
    assert any("random search" in f for f in worse)


def test_check_rejects_a_trace_that_leaves_v(tmp_path):
    workload, instance, trace = _solved("dispersion-product")
    summary = _summary(instance, trace, tmp_path)
    trace.final_x = trace.final_x + 1e-3 * np.arange(trace.final_x.size)
    failures = workloads.check_output(workload, instance, trace, summary)
    assert any("leaves V" in f for f in failures)


def test_check_requires_bounds_ok_on_lasso(tmp_path):
    workload, instance, trace = _solved("lasso-2000")
    summary = _summary(instance, trace, tmp_path)
    assert summary["bounds_ok"] is True
    assert workloads.check_output(workload, instance, trace, summary) == []
    summary["bounds_ok"] = False
    assert any("bounds_ok" in f
               for f in workloads.check_output(workload, instance, trace, summary))


def test_tracer_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.names[:] = ["a", "b", "b"]
    tracer.parents[:] = [-1, 0, 0]
    tracer.starts[:] = [0.0, 1.0, 3.0]
    tracer.ends[:] = [10.0, 2.0, 5.0]
    s = tracer.summary()
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert s["b"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_instrumentation_is_removed_after_the_block():
    _, instance, _ = _solved("dispersion-direct")
    problem = instance.problem
    tracer = tracing.Tracer()
    with tracing.instrument_problem(tracer, problem, pvs.solver):
        assert "prox" in vars(problem.g)
    assert "prox" not in vars(problem.g) and "smoothed_parts" not in vars(problem)
    assert pvs.solver.IterateTrace.append.__name__ == "append"
    with tracing.instrument_setup(tracer, pvs):
        assert pvs.problems.KernelProjector is not pvs.projections.KernelProjector
    assert pvs.problems.KernelProjector is pvs.projections.KernelProjector
    assert pvs.prox.matrix_norm_bound is pvs.core.matrix_norm_bound


def _command(root, *extra):
    return subprocess.run(
        BENCHMARK["command"] + ["--workload", "dispersion-direct", "--seed", "4",
                                "--seconds", "0", "--trace", "0", *extra],
        cwd=root, capture_output=True, text=True, timeout=180)


def test_command_prints_the_result_last():
    proc = _command(run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_compare_verdicts():
    spec = {"name": "solve_s", "better": "lower", "bound": 0.1}
    parent = {s: 1.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(spec, parent, {s: v * 1.5 for s, v in parent.items()})[0] \
        == "REGRESSION"
    assert compare.verdict(spec, parent, {s: v * 0.5 for s, v in parent.items()})[0] \
        == "improved"
    assert compare.verdict(spec, parent, dict(parent))[0] == "same"
    noisy = {s: (0.5 if s % 2 else 1.5) for s in range(10)}
    assert compare.verdict(spec, parent, noisy)[0] == "unresolved"
