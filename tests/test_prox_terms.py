"""Nonsmooth terms evaluate once: ``smoothed_parts`` asks ``g`` for the prox
point and its value in one ``prox_and_value`` call, which must return the
same floats as ``prox`` followed by ``value``."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pvsmooth  # noqa: F401  (imports every submodule, so all subclasses exist)
from pvsmooth.core import (
    CallableProx,
    CompositeProblem,
    IdentityMap,
    IdentityProjector,
    ProxFunction,
    ZeroFunction,
    ZeroSmooth,
    moreau_envelope,
)
from pvsmooth.errors import DomainError
from pvsmooth.prox import (
    L1Penalty,
    MCPPenalty,
    SCADPenalty,
    SupAffineFamily,
    SupQuadraticFamily,
    TukeyPenalty,
)

DIM = 6


def _sup_affine():
    rng = np.random.default_rng(5)
    return SupAffineFamily(
        rng.uniform(-1.0, 1.0, (4, DIM)), rng.uniform(-1.0, 1.0, 4), sigma=1.0,
    )


PROX_TERMS = {
    "zero": ZeroFunction,
    "callable": lambda: CallableProx(
        lambda y: float(np.abs(y).sum()),
        lambda mu, y: np.sign(y) * np.maximum(np.abs(y) - mu, 0.0),
    ),
    "sup_quadratic": lambda: SupQuadraticFamily(
        np.linspace(-1.0, 1.0, DIM).reshape(3, 2)),
    "sup_quadratic_scalar_blocks": lambda: SupQuadraticFamily(
        np.linspace(-0.5, 1.5, DIM).reshape(DIM, 1)),
    "sup_affine_simplex": _sup_affine,
    "l1": lambda: L1Penalty(0.4),
    "mcp": lambda: MCPPenalty(0.5, 2.0),
    "scad": lambda: SCADPenalty(0.5, 3.7),
    "tukey": lambda: TukeyPenalty(np.linspace(-1.0, 1.0, DIM)),
}


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _package_prox_classes():
    found, todo = set(), [ProxFunction]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("pvsmooth."):
                found.add(sub)
    return found


def test_every_package_prox_function_is_covered():
    covered = {type(make()) for make in PROX_TERMS.values()}
    assert _package_prox_classes() <= covered


@pytest.mark.parametrize("name", sorted(PROX_TERMS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    y=hnp.arrays(float, DIM, elements=st.floats(-2.0, 2.0)),
    frac=st.floats(0.01, 0.99),
)
def test_prox_and_value_is_prox_then_value_bit_for_bit(name, y, frac):
    g = PROX_TERMS[name]()
    mu = frac * min(1.0, g.mu_max)
    p, gp = g.prox_and_value(mu, y)
    ref = g.prox(mu, y)
    assert _same_bits(p, ref)
    assert isinstance(gp, float)
    assert _same_bits(gp, g.value(ref))


@pytest.mark.parametrize("name", sorted(PROX_TERMS))
def test_every_prox_owns_its_mu_check(name):
    # the callers (smoothed_parts, moreau_envelope, moreau_gradient) leave
    # the check of 0 < mu < mu_max to the prox
    g = PROX_TERMS[name]()
    bad = [0.0, -0.1] + ([g.mu_max] if np.isfinite(g.mu_max) else [])
    y = np.linspace(-0.8, 1.1, DIM)
    for mu in bad:
        for call in (g.prox, g.prox_and_value):
            with pytest.raises(DomainError):
                call(mu, y)


@pytest.mark.parametrize("g, bound", [
    (MCPPenalty(1.0, 7.297670644230144), 7.297670644230144),
    (SCADPenalty(1.0, 4.1960616870352885), 4.1960616870352885 - 1.0),
    (MCPPenalty(1.0, 0.3803647443400834), 0.3803647443400834),
], ids=["mcp", "scad", "mcp_below"])
def test_scalar_penalty_mu_bound_is_exact(g, bound):
    # 1 / rho misses the bound by an ulp for these theta (above it for the
    # first MCP, below it for SCAD and the second MCP), so mu_max must be
    # the bound itself for the one mu check to reject exactly mu >= bound
    assert 1.0 / (1.0 / bound) != bound
    assert g.mu_max == bound
    y = np.linspace(-12.0, 12.0, 49)
    for call in (g.prox, g.prox_and_value):
        with pytest.raises(DomainError):
            call(g.mu_max, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = g.prox(np.nextafter(g.mu_max, 0.0), y)
    assert np.isfinite(out).all()


class CountingProx(ProxFunction):
    """Counts calls by method name and delegates to a wrapped term."""

    def __init__(self, inner):
        self.inner = inner
        self.rho = inner.rho
        self.lipschitz = inner.lipschitz
        self.calls = Counter()

    def value(self, y):
        self.calls["value"] += 1
        return self.inner.value(y)

    def prox(self, mu, y):
        self.calls["prox"] += 1
        return self.inner.prox(mu, y)

    def prox_and_value(self, mu, y):
        self.calls["prox_and_value"] += 1
        return self.inner.prox_and_value(mu, y)


@pytest.mark.parametrize("name", ["sup_quadratic", "sup_affine_simplex", "l1"])
def test_smoothed_parts_evaluates_g_once(name):
    g = CountingProx(PROX_TERMS[name]())
    problem = CompositeProblem(ZeroSmooth(), g, IdentityMap(), IdentityProjector(), dim=DIM)
    assert g.calls == Counter(value=1)  # the build's shape probe at 0
    g.calls.clear()
    x = np.linspace(-0.8, 1.1, DIM)
    for calls in range(1, 4):
        problem.smoothed_parts(0.2, x)
        assert g.calls == Counter(prox_and_value=calls)
    moreau_envelope(g, 0.2, x)
    assert g.calls == Counter(prox_and_value=4)


def test_sup_quadratic_step_never_calls_value():
    g = PROX_TERMS["sup_quadratic"]()
    problem = CompositeProblem(ZeroSmooth(), g, IdentityMap(), IdentityProjector(), dim=DIM)
    x = np.linspace(-0.8, 1.1, DIM)
    expected = problem.smoothed_parts(0.2, x)
    g.value = g.alphas = None  # the one-pass prox must not need them
    got = problem.smoothed_parts(0.2, x)
    assert all(_same_bits(a, b) for a, b in zip(got, expected))
