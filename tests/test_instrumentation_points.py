"""The benchmark's tracer (``benchmarks/tracing.py``) swaps attributes by
name on the problems the builders return and on three modules; a missing
one makes every traced solve fail.  This guards those names without
importing the benchmark."""

import numpy as np
import pytest

import pvsmooth
from pvsmooth.problems import (
    LassoInstance,
    MaxDispersionInstance,
    build_constrained_lasso,
    build_dro_affine,
    build_dro_quadratic,
    build_max_dispersion_direct,
    build_max_dispersion_product,
    random_affine_scenarios,
    random_anchors,
    random_lasso_data,
)
from pvsmooth.prox import L1Penalty

R_SUM = np.array([[1.0, 1.0, 1.0]])


def _dispersion(R):
    return MaxDispersionInstance(random_anchors(3, 4, 0), 1.0, 10.0, R)


def _dro_affine(R):
    a_rows, offsets = random_affine_scenarios(3, 4, 0)
    return build_dro_affine(a_rows, offsets, 10.0, 1.0, constraint_matrix=R)


def _dro_quadratic(R):
    return build_dro_quadratic(random_anchors(3, 4, 1), 10.0, 1.0, R)


def _lasso(R):
    design, target = random_lasso_data(3, 5, 0)
    return build_constrained_lasso(LassoInstance(
        design, target, L1Penalty(0.1), constraint_matrix=R))


BUILDS = {
    "dispersion-direct": lambda R: build_max_dispersion_direct(_dispersion(R)),
    "dispersion-product": lambda R: build_max_dispersion_product(_dispersion(R)),
    "dro-affine": _dro_affine,
    "dro-quadratic": _dro_quadratic,
    "lasso": _lasso,
}


@pytest.mark.parametrize("R", [None, R_SUM], ids=["whole-space", "ker-R"])
@pytest.mark.parametrize("name", sorted(BUILDS))
def test_builder_problems_expose_traced_attributes(name, R):
    problem = BUILDS[name](R)
    for obj, attr in [
        (problem.h, "value"),
        (problem.h, "grad"),
        (problem.g, "prox"),
        (problem.a_map, "apply"),
        (problem.a_map, "adjoint"),
        (problem.subspace, "apply"),
        (problem, "smoothed_parts"),
    ]:
        assert callable(getattr(obj, attr, None)), (type(obj).__name__, attr)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_smoothed_parts_goes_through_the_instance_prox(name):
    # the tracer times the prox by setting a wrapper as an instance
    # attribute; every evaluation must call it once, the product form's
    # closed-form prox too
    problem = BUILDS[name](R_SUM)
    calls = []
    prox = problem.g.prox

    def wrapped(*args, **kwargs):
        calls.append(1)
        return prox(*args, **kwargs)

    problem.g.prox = wrapped
    x = np.full(problem.dim, 0.1)
    for _ in range(3):
        problem.smoothed_parts(0.05, x)
    assert len(calls) == 3


@pytest.mark.parametrize("R", [None, R_SUM], ids=["whole-space", "ker-R"])
def test_direct_dispersion_prox_detailed_counts_inner_work(R):
    # the tracer sums the last entry of prox_detailed as prox.inner_iters
    problem = build_max_dispersion_direct(_dispersion(R))
    out = problem.g.prox_detailed(0.25, np.full(3, 0.1))
    assert isinstance(out, tuple) and len(out) == 3
    assert isinstance(out[2], int) and out[2] >= 0


def test_modules_expose_traced_attributes():
    assert pvsmooth.problems.KernelProjector is pvsmooth.projections.KernelProjector
    for module in (pvsmooth.core, pvsmooth.problems, pvsmooth.prox):
        assert module.matrix_norm_bound is pvsmooth.core.matrix_norm_bound
    assert callable(pvsmooth.solver.IterateTrace.append)
