"""The benchmark's tracer (``benchmarks/tracing.py``) swaps attributes by
name on the problems the builders return and on three modules; a missing
one makes every traced solve fail.  This guards those names without
importing the benchmark."""

import numpy as np
import pytest

import pvsmooth
from pvsmooth.problems import (
    DroDiscreteInstance,
    LassoInstance,
    MaxDispersionInstance,
    build_constrained_lasso,
    build_dro_discrete,
    build_max_dispersion_direct,
    build_max_dispersion_product,
    random_affine_scenarios,
    random_anchors,
    random_lasso_data,
)
from pvsmooth.projections import project_simplex
from pvsmooth.prox import ScalarRegularizer, simplex_support_max

R_SUM = np.array([[1.0, 1.0, 1.0]])


def _dispersion(R):
    return MaxDispersionInstance(random_anchors(3, 4, 0), 1.0, 10.0, R)


def _dro_affine(R):
    a_rows, offsets = random_affine_scenarios(3, 4, 0)
    return DroDiscreteInstance(
        "affine", 10.0, 1.0, a_rows=a_rows, offsets=offsets, constraint_matrix=R,
        ambiguity_projector=project_simplex, support_max=simplex_support_max,
    )


def _dro_quadratic(R):
    return DroDiscreteInstance(
        "quadratic", 10.0, 1.0, centers=random_anchors(3, 4, 1), constraint_matrix=R
    )


def _lasso(R):
    design, target = random_lasso_data(3, 5, 0)
    return LassoInstance(design, target, ScalarRegularizer("l1", lam=0.1),
                         constraint_matrix=R)


BUILDS = {
    "dispersion-direct": (build_max_dispersion_direct, _dispersion),
    "dispersion-product": (build_max_dispersion_product, _dispersion),
    "dro-affine": (build_dro_discrete, _dro_affine),
    "dro-quadratic": (build_dro_discrete, _dro_quadratic),
    "lasso": (build_constrained_lasso, _lasso),
}


@pytest.mark.parametrize("R", [None, R_SUM], ids=["whole-space", "ker-R"])
@pytest.mark.parametrize("name", sorted(BUILDS))
def test_builder_problems_expose_traced_attributes(name, R):
    build, instance = BUILDS[name]
    problem = build(instance(R))
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
