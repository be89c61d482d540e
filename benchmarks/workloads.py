"""The benchmark's seeded workloads and the check applied to every run.

Each workload turns a seed into inputs, builds the problem through the
public API, and solves it with ``run_pvs`` to a fixed iteration cap (the
step-norm stop is off), so every run of a workload does the same amount of
outer work and ends at the same accuracy.  alpha = 1/3 and C = 0.25
throughout.

Seeds map onto ``VARIANTS`` recorded input variants (``seed % VARIANTS``);
``references.json`` holds the final objective the unmodified solver reaches
on each, which the output check compares against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import pvsmooth as pvs
from pvsmooth import oracles

ALPHA = 1.0 / 3.0
C = 0.25
VARIANTS = 16
REFERENCES = Path(__file__).with_name("references.json")

# Max-dispersion geometry: anchors drawn with this seed, then permuted and
# jittered per variant.  Random anchor sets differ up to 100x in inner KM
# iterations per prox, which would swamp any code change; this one costs a
# steady ~600 KM iterations per prox on every variant, and its capped run
# lands in a basin that beats the random-search oracle.
GEOMETRY_SEED = 47
ANCHOR_JITTER = 0.01
DISPERSION_RADIUS = 1.0
DISPERSION_LAM = 100.0
ORACLE_SAMPLES = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "direct", "product" or "lasso"
    max_iter: int
    dim: int  # ambient dimension of x (dispersion: of one anchor)
    count: int  # anchors, or lasso samples
    rows: int  # rows of the constraint matrix R

    def small(self):
        """A version that solves in about a second, for the self-tests.

        The dispersion workloads already do, and keep their recorded
        references; the lasso shrinks and so has none.
        """
        if self.kind == "lasso":
            return replace(self, max_iter=20, dim=200, count=50)
        return self


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dispersion-direct", "direct", max_iter=60, dim=3, count=10, rows=1),
        Workload("dispersion-product", "product", max_iter=10000, dim=3, count=10, rows=1),
        Workload("lasso-2000", "lasso", max_iter=400, dim=2000, count=500, rows=3),
    )
}


@dataclass
class Instance:
    """A built problem with its start point and the data the check needs."""

    problem: object
    x1: np.ndarray
    anchors: np.ndarray = None
    constraint: np.ndarray = None


def variant_of(seed):
    return int(seed) % VARIANTS


def make_instance(workload, seed, span):
    """Generate the inputs for ``seed`` and build the problem.

    ``span(name)`` is a context manager placed around each call into the
    library; pass a no-op one for untimed, untraced use.
    """
    variant = variant_of(seed)
    rng = np.random.default_rng([variant, workload.dim, workload.count])
    if workload.kind == "lasso":
        with span("problems.instance_data"):
            design, target = pvs.random_lasso_data(workload.dim, workload.count, variant)
        constraint = rng.standard_normal((workload.rows, workload.dim))
        inst = pvs.LassoInstance(
            design=design, target=target,
            regularizer=pvs.ScalarRegularizer("l1", lam=1.0),
            constraint_matrix=constraint,
        )
        with span("problems.build"):
            problem = pvs.build_constrained_lasso(inst)
        anchors, dim = None, workload.dim
    else:
        with span("problems.instance_data"):
            base = pvs.random_anchors(workload.dim, workload.count, GEOMETRY_SEED)
        anchors = base[rng.permutation(workload.count)]
        anchors = anchors + ANCHOR_JITTER * rng.uniform(-1.0, 1.0, anchors.shape)
        constraint = np.ones((workload.rows, workload.dim))
        inst = pvs.MaxDispersionInstance(
            anchors, radius=DISPERSION_RADIUS, lam=DISPERSION_LAM,
            constraint_matrix=constraint,
        )
        build = (pvs.build_max_dispersion_direct if workload.kind == "direct"
                 else pvs.build_max_dispersion_product)
        with span("problems.build"):
            problem = build(inst)
        dim = workload.dim * (1 if workload.kind == "direct" else workload.count)
    with span("problems.subspace_start"):
        x1 = pvs.subspace_start(problem.subspace, dim)
    return Instance(problem, x1, anchors, constraint)


def solver_config(workload):
    return pvs.SolverConfig(alpha=ALPHA, C=C, max_iter=workload.max_iter,
                            stop_step_norm=0.0)


def oracle_value(workload, instance, seed):
    """Random-search objective the dispersion answer must not be worse than."""
    if instance.anchors is None:
        return None
    _, value = oracles.random_search_dispersion(
        instance.anchors, DISPERSION_RADIUS, DISPERSION_LAM, instance.constraint,
        ORACLE_SAMPLES, variant_of(seed),
    )
    return value


def load_reference(workload, seed):
    """(objective, relative tolerance) recorded for this seed, or None.

    References exist only for the recorded iteration caps; a resized
    workload (the self-tests' small ones) has none.
    """
    table = json.loads(REFERENCES.read_text())
    entry = table["workloads"].get(workload.name)
    if entry is None or entry["max_iter"] != workload.max_iter:
        return None
    return entry["objectives"][variant_of(seed)], table["rel_tol"]


def final_objective(workload, instance, x):
    """Objective of the answer as the user states it (dispersion: of x in R^n)."""
    if workload.kind == "product":
        x = np.asarray(x).reshape(workload.count, -1)[0]
    if instance.anchors is not None:
        return pvs.dispersion_objective(
            instance.anchors, DISPERSION_RADIUS, DISPERSION_LAM, x)
    return instance.problem.objective(x)


def check_output(workload, instance, trace, summary, reference=None, oracle=None):
    """List the ways one run's output is wrong; empty means it passed.

    ``reference`` is ``(objective, rel_tol)``; ``oracle`` the random-search
    objective for dispersion workloads; ``summary`` the parsed summary JSON.
    """
    problems = []
    x = np.asarray(trace.final_x, dtype=float)
    drift = float(np.linalg.norm(x - instance.problem.subspace.apply(x)))
    if not drift <= 1e-9 * (1.0 + float(np.linalg.norm(x))):
        problems.append("final iterate leaves V (drift %.3e)" % drift)
    columns = (trace.k, trace.mu, trace.gamma, trace.objective,
               trace.proj_grad_norm, trace.prox_residual, trace.elapsed_s)
    if not all(np.all(np.isfinite(np.asarray(col, dtype=float))) for col in columns):
        problems.append("trace holds a non-finite value")
    if trace.iterations != workload.max_iter or trace.stop_reason != "max_iter":
        problems.append("stopped after %d iterations (%s), expected %d (max_iter)"
                        % (trace.iterations, trace.stop_reason, workload.max_iter))
    value = final_objective(workload, instance, x)
    if summary.get("final_objective") is None or not math.isclose(
            summary["final_objective"], instance.problem.objective(x),
            rel_tol=1e-12, abs_tol=1e-12):
        problems.append("summary final_objective %r disagrees with the trace"
                        % (summary.get("final_objective"),))
    if reference is not None:
        ref, rel_tol = reference
        if not abs(value - ref) <= rel_tol * max(1.0, abs(ref)):
            problems.append("final objective %.12g differs from reference %.12g"
                            % (value, ref))
    if oracle is not None and not value <= oracle:
        problems.append("final objective %.6g worse than random search %.6g"
                        % (value, oracle))
    if workload.kind == "lasso" and summary.get("bounds_ok") is not True:
        problems.append("bounds_ok is %r" % (summary.get("bounds_ok"),))
    return problems
