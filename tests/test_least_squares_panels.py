"""``QuadraticLoss`` walks its design once, in row panels of at most 1 MiB.

The reference is the two-matvec formula h = |B x - b|^2,
grad = 2 B^T (B x - b), kept here.  A design that fits one panel matches it
bit for bit; a larger one stays within the componentwise roundoff bound of
``oracles.least_squares_roundoff``, and a whole solve on it stays with the
reference's solve.
"""

import math

import numpy as np
import pytest

from pvsmooth import oracles
from pvsmooth.core import CompositeProblem
from pvsmooth.problems import (
    _PANEL_BYTES,
    LassoInstance,
    QuadraticLoss,
    build_constrained_lasso,
    random_lasso_data,
    subspace_start,
)
from pvsmooth.prox import L1Penalty
from pvsmooth.solver import SolverConfig, run_pvs, theorem_bound_margins


def two_matvecs(design, target, x):
    r = design @ x - target
    return float(r @ r), 2.0 * (design.T @ r)


class TwoMatvecLoss(QuadraticLoss):
    """The reference kernel, for a whole solve."""

    def value_and_grad(self, x):
        return two_matvecs(self.design, self.target, np.asarray(x, dtype=float))


def _panels(m, n):
    """How many panels the budget splits an m x n float design into."""
    return math.ceil(max(m, 1) / max(1, _PANEL_BYTES // (8 * n)))


def _data(m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) / np.sqrt(max(m, 1)), rng.standard_normal(m)


def _x(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


def _within_roundoff(h, design, target, x):
    value, grad = h.value_and_grad(x)
    ref_value, ref_grad = two_matvecs(design, target, x)
    value_bound, grad_bound = oracles.least_squares_roundoff(design, target, x)
    assert abs(value - ref_value) <= value_bound
    assert np.all(np.abs(grad - ref_grad) <= grad_bound)


SINGLE_PANEL = {
    "small": (6, 4),
    "one MiB exactly": (128, 1024),
    "short and wide": (3, 2000),
    "just under one MiB, tall": (13107, 10),
}


@pytest.mark.parametrize("name", sorted(SINGLE_PANEL))
def test_one_panel_is_the_two_matvec_formula_bit_for_bit(name):
    m, n = SINGLE_PANEL[name]
    assert _panels(m, n) == 1
    design, target = _data(m, n, 1)
    h = QuadraticLoss(design, target)
    assert len(h._panels) == 1
    for seed in range(3):
        x = _x(n, seed)
        value, grad = h.value_and_grad(x)
        ref_value, ref_grad = two_matvecs(design, target, x)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()


MULTI_PANEL = {
    "lasso-2000 shape": (500, 2000),  # 65 rows a panel, 45 in the last
    "one row past one MiB": (129, 1024),  # 128 rows, then 1
    "m not a multiple of the panel rows": (300, 1000),  # 131, 131, 38
    "rows wider than the budget": (3, 150_000),  # one row a panel
    "tall": (40_000, 10),  # 13107 rows a panel
}


@pytest.mark.parametrize("name", sorted(MULTI_PANEL))
def test_panels_stay_within_roundoff_of_the_two_matvec_formula(name):
    m, n = MULTI_PANEL[name]
    assert _panels(m, n) > 1
    design, target = _data(m, n, 2)
    h = QuadraticLoss(design, target)
    assert len(h._panels) == _panels(m, n)
    assert sum(panel.shape[0] for panel, _ in h._panels) == m
    assert h.design is design  # already C-ordered: not copied
    for seed in range(3):
        _within_roundoff(h, design, target, _x(n, seed))


@pytest.mark.parametrize("order", ["fortran", "transposed"])
def test_a_design_in_another_order_is_made_c_ordered_once(order):
    if order == "fortran":
        design, target = _data(300, 1000, 3)
        design = np.asfortranarray(design)
    else:
        design, target = _data(1000, 300, 3)[0].T, _x(300, 3)
    assert design.shape == (300, 1000) and not design.flags.c_contiguous
    h = QuadraticLoss(design, target)
    assert h.design.flags.c_contiguous and np.array_equal(h.design, design)
    assert all(panel.base is h.design for panel, _ in h._panels)  # views, no copies
    for seed in range(3):
        _within_roundoff(h, design, target, _x(1000, seed))


def test_the_empty_design_gives_zero_and_still_checks_x():
    h = QuadraticLoss(np.zeros((0, 5)), np.zeros(0))
    value, grad = h.value_and_grad(np.ones(5))
    assert value == 0.0 and isinstance(value, float)
    assert grad.shape == (5,) and not grad.any()
    with pytest.raises(ValueError):
        h.value_and_grad(np.ones(4))


def test_a_multi_panel_lasso_solve_stays_with_the_two_matvec_solve():
    # 200 x 1000 is 1.6 MB, two panels of 131 and 69 rows
    design, target = random_lasso_data(1000, 200, 7)
    assert _panels(200, 1000) == 2
    constraint = np.random.default_rng(8).standard_normal((3, 1000))
    problem = build_constrained_lasso(
        LassoInstance(design, target, L1Penalty(1.0), constraint_matrix=constraint))
    reference = CompositeProblem(TwoMatvecLoss(design, target), problem.g,
                                 problem.a_map, problem.subspace, dim=1000)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=5000, stop_step_norm=1e-4)
    x1 = subspace_start(problem.subspace, 1000)
    trace = run_pvs(problem, cfg, x1)
    ref = run_pvs(reference, cfg, x1)
    assert trace.stop_reason == ref.stop_reason
    assert trace.iterations == ref.iterations < cfg.max_iter
    objective, ref_objective = np.asarray(trace.objective), np.asarray(ref.objective)
    assert np.all(np.abs(objective - ref_objective) <= 1e-12 * np.abs(ref_objective))
    assert np.linalg.norm(constraint @ trace.final_x) <= 1e-10 * np.linalg.norm(trace.final_x)
    grad_margin, prox_margin, _ = theorem_bound_margins(problem, trace)
    assert grad_margin.min() >= 0.0 and prox_margin.min() >= 0.0
