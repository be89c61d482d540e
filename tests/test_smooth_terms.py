"""Smooth terms evaluate once: ``value_and_grad`` is the only method a
``SmoothFunction`` implements, and ``smoothed_parts`` calls it once."""

from collections import Counter

import numpy as np
import pytest

from pvsmooth import oracles
from pvsmooth.core import (
    CallableSmooth,
    CompositeProblem,
    IdentityMap,
    IdentityProjector,
    SmoothFunction,
    ZeroSmooth,
)
from pvsmooth.penalty import BallPenalty, SmoothSum
from pvsmooth.problems import (
    FirstBlockBallPenalty,
    ProductBallPenalty,
    QuadraticLoss,
    random_lasso_data,
)
from pvsmooth.projections import BallSpec
from pvsmooth.prox import SupQuadraticFamily


class CountingSmooth(SmoothFunction):
    """Counts calls by method name and delegates to a wrapped term."""

    def __init__(self, inner):
        self.inner = inner
        self.lip_grad = inner.lip_grad
        self.calls = Counter()

    def value_and_grad(self, x):
        self.calls["value_and_grad"] += 1
        return self.inner.value_and_grad(x)

    def value(self, x):
        self.calls["value"] += 1
        return super().value(x)

    def grad(self, x):
        self.calls["grad"] += 1
        return super().grad(x)


def _problem(h, dim):
    g = SupQuadraticFamily(np.linspace(-1.0, 1.0, dim).reshape(dim, 1))
    return CompositeProblem(h, g, IdentityMap(), IdentityProjector(), dim=dim)


def _ball(dim):
    return BallSpec(np.full(dim, 0.1), 0.7)


def _quadratic_loss():
    design, target = random_lasso_data(6, 4, 1)
    return QuadraticLoss(design, target)


SMOOTH_TERMS = {
    "zero": ZeroSmooth,
    "callable": lambda: CallableSmooth(
        lambda x: float(x @ x) + x[0], lambda x: 2.0 * x + np.eye(x.size)[0], 2.0
    ),
    "quadratic_loss": _quadratic_loss,
    "ball": lambda: BallPenalty(_ball(6), 3.0),
    "first_block_ball": lambda: FirstBlockBallPenalty(_ball(2), 3.0, 3),
    "product_ball": lambda: ProductBallPenalty(_ball(2), 3.0, 3),
    "sum": lambda: SmoothSum(_quadratic_loss(), BallPenalty(_ball(6), 3.0)),
}


def _package_smooth_classes():
    found, todo = set(), [SmoothFunction]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("pvsmooth."):
                found.add(sub)
    return found


def test_every_package_smooth_function_is_covered():
    covered = {type(make()) for make in SMOOTH_TERMS.values()}
    assert _package_smooth_classes() <= covered


@pytest.mark.parametrize("name", sorted(SMOOTH_TERMS))
def test_value_and_grad_matches_value_grad_and_finite_differences(name):
    h = SMOOTH_TERMS[name]()
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.uniform(-1.5, 1.5, 6)
        val, grad = h.value_and_grad(x)
        assert isinstance(val, float)
        assert val == h.value(x)
        assert np.array_equal(grad, h.grad(x))
        fd = oracles.fd_gradient(h.value, x)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_smoothed_parts_evaluates_h_once():
    h = CountingSmooth(BallPenalty(_ball(3), 3.0))
    problem = _problem(h, 3)
    assert h.calls == Counter(value_and_grad=1)  # the build's dimension probe
    x = np.array([1.0, -0.5, 0.25])
    for calls in range(1, 4):
        problem.smoothed_parts(0.2, x)
        assert h.calls == Counter(value_and_grad=1 + calls)


def test_smooth_sum_evaluates_each_term_once():
    terms = [CountingSmooth(BallPenalty(_ball(3), w)) for w in (1.0, 3.0)]
    problem = _problem(SmoothSum(*terms), 3)
    x = np.array([1.0, -0.5, 0.25])
    problem.smoothed_parts(0.2, x)
    for h in terms:  # one call from the build's dimension probe, one here
        assert h.calls == Counter(value_and_grad=2)
