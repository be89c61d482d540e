import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pvsmooth import core, oracles
from pvsmooth.core import moreau_envelope
from pvsmooth.errors import ConvergenceError, DomainError
from pvsmooth.projections import project_simplex
from pvsmooth.prox import (
    ScalarRegularizer,
    SupAffineFamily,
    SupQuadraticFamily,
    envelope_by_weights,
    envelope_sup_identity_check,
    mcp_value,
    prox_l1,
    prox_mcp,
    prox_scad,
    prox_sup_affine,
    prox_tukey,
    scad_value,
    simplex_support_max,
    simplex_weights_kkt,
    solve_simplex_weights,
    tukey_value,
)


# ---------------------------------------------------------------------------
# simplex weights
# ---------------------------------------------------------------------------

def test_simplex_weights_singleton():
    p = solve_simplex_weights(np.array([7.3]), 0.25)
    assert p.shape == (1,)
    assert p[0] == 1.0


def test_simplex_weights_equal_alphas():
    p = solve_simplex_weights(np.array([2.0, 2.0, 2.0]), 0.25)
    assert np.abs(p - 1.0 / 3.0).max() < 1e-14


def test_simplex_weights_411_example():
    alpha = np.array([4.0, 1.0, 1.0])
    p = solve_simplex_weights(alpha, 0.25)
    assert np.abs(p - np.array([0.0, 0.5, 0.5])).max() < 1e-12
    kkt = simplex_weights_kkt(alpha, 0.25, p)
    assert abs(kkt["tau"] - (-16.0 / 9.0)) < 1e-12

    # nothing on a fine barycentric grid beats the closed-form weights
    grid_p, grid_val = oracles.simplex_scan_max(
        lambda q: envelope_by_weights(alpha, 0.25, q), 3, resolution=1e-3
    )
    assert envelope_by_weights(alpha, 0.25, p) >= grid_val - 1e-9
    assert np.abs(grid_p - p).max() < 1e-6


def test_simplex_weights_kkt_invariants():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 7)
        alpha = rng.uniform(0.05, 9.0, n)
        mu = rng.uniform(0.01, 0.49)
        p = solve_simplex_weights(alpha, mu)
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() >= -1e-14
        kkt = simplex_weights_kkt(alpha, mu, p)
        assert kkt["stationarity"] <= 1e-10
        assert kkt["min_eta"] >= -1e-12
        assert abs(kkt["sum_dev"]) < 1e-12


def test_simplex_weights_domain_errors():
    with pytest.raises(DomainError):
        solve_simplex_weights(np.array([1.0, 0.0]), 0.25)
    with pytest.raises(DomainError):
        solve_simplex_weights(np.array([1.0, 2.0]), 0.5)
    with pytest.raises(DomainError):
        solve_simplex_weights(np.array([1.0, 2.0]), -0.1)


# ---------------------------------------------------------------------------
# sup of concave quadratics
# ---------------------------------------------------------------------------

def test_sup_quadratic_prox_at_center():
    fam = SupQuadraticFamily(np.array([[1.0, 1.0]]))
    out = fam.prox(0.25, np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([1.0, 1.0]))


def test_sup_quadratic_prox_three_blocks():
    fam = SupQuadraticFamily(np.zeros((3, 1)))
    x = np.array([2.0, 1.0, 1.0])
    out = fam.prox(0.25, x)
    assert np.abs(out - np.array([2.0, 4.0 / 3.0, 4.0 / 3.0])).max() < 1e-12
    assert np.abs(fam.weights(0.25, x) - np.array([0.0, 0.5, 0.5])).max() < 1e-12


def test_sup_quadratic_prox_zero_alpha_pins_weight():
    # one block sits exactly on its center; that block takes all the weight
    # and the prox leaves the point unchanged
    fam = SupQuadraticFamily(np.array([[5.0], [3.0]]))
    x = np.array([5.0, 0.0])
    assert np.array_equal(fam.weights(0.25, x), np.array([1.0, 0.0]))
    assert np.array_equal(fam.prox(0.25, x), x)


def test_sup_quadratic_zero_alpha_smallest_index_tie_break():
    fam = SupQuadraticFamily(np.array([[1.0], [2.0]]))
    x = np.array([1.0, 2.0])  # both blocks at their centers
    assert np.array_equal(fam.weights(0.3, x), np.array([1.0, 0.0]))
    assert np.array_equal(fam.prox(0.3, x), x)


def test_sup_quadratic_mu_domain():
    fam = SupQuadraticFamily(np.zeros((2, 1)))
    for mu in (0.0, 0.5, 0.7, -1.0):
        with pytest.raises(DomainError):
            fam.prox(mu, np.array([1.0, 2.0]))


def test_sup_quadratic_envelope_identity():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n_blocks = rng.integers(1, 5)
        dim = rng.integers(1, 4)
        fam = SupQuadraticFamily(rng.uniform(-2, 2, (n_blocks, dim)))
        mu = rng.uniform(0.02, 0.45)
        x = rng.uniform(-2, 2, n_blocks * dim)
        lhs, rhs = envelope_sup_identity_check(fam, mu, x)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_sup_quadratic_envelope_identity_closed_forms():
    # single scenario: envelope is alpha / (2 mu - 1)
    fam = SupQuadraticFamily(np.array([[1.0, 0.0]]))
    x = np.array([3.0, 0.0])
    lhs, rhs = envelope_sup_identity_check(fam, 0.25, x)
    assert abs(lhs - 4.0 / (2 * 0.25 - 1.0)) < 1e-12
    assert abs(rhs - lhs) < 1e-12

    # equal distances: the maximizing weights are uniform
    fam2 = SupQuadraticFamily(np.array([[1.0], [-1.0]]))
    lhs2, rhs2 = envelope_sup_identity_check(fam2, 0.25, np.array([0.0, 0.0]))
    uniform = envelope_by_weights(np.array([1.0, 1.0]), 0.25, np.array([0.5, 0.5]))
    assert abs(rhs2 - uniform) < 1e-12
    assert abs(lhs2 - rhs2) < 1e-12

    # example value from the three-block instance
    fam3 = SupQuadraticFamily(np.zeros((3, 1)))
    lhs3, rhs3 = envelope_sup_identity_check(fam3, 0.25, np.array([2.0, 1.0, 1.0]))
    assert abs(lhs3 - (-4.0 / 3.0)) < 1e-12
    assert abs(rhs3 - (-4.0 / 3.0)) < 1e-12


def test_sup_quadratic_prox_beats_perturbations():
    fam = SupQuadraticFamily(np.array([[0.4, -0.2], [-0.7, 0.1]]))
    mu = 0.3
    x = np.array([0.5, -0.1, 0.2, 0.6])

    def objective(y):
        return fam.value(y) + float((y - x) @ (y - x)) / (2 * mu)

    p = fam.prox(mu, x)
    rng = np.random.default_rng(13)
    base = objective(p)
    for _ in range(100):
        assert base <= objective(p + rng.normal(0, 0.3, 4)) + 1e-9


# ---------------------------------------------------------------------------
# sup of affine forms minus a quadratic
# ---------------------------------------------------------------------------

def _simplex_family(a_rows, offsets, sigma, **kw):
    return SupAffineFamily(a_rows, offsets, sigma, project_simplex,
                           support_max=simplex_support_max, **kw)


def test_sup_affine_gram_norm_is_exact():
    # the top right singular vector is orthogonal to the fixed power-iteration
    # start in core.matrix_norm_bound, which therefore settles on the second
    # singular value; the family's |AA^T| must not depend on that start
    start = np.random.default_rng(core._POWER_SEED).standard_normal(5)
    basis = np.random.default_rng(3).standard_normal((5, 5))
    basis[:, 0] -= (basis[:, 0] @ start) / (start @ start) * start
    v_mat, _ = np.linalg.qr(basis)
    a_rows = np.diag([2.0, 1.0, 0.5, 0.25, 0.1]) @ v_mat.T
    fam = _simplex_family(a_rows, np.zeros(5), 1.0)
    assert abs(fam.gram_norm - 4.0) <= 1e-12
    assert np.allclose(fam.gram, a_rows @ a_rows.T)
    wide = _simplex_family(a_rows[:2], np.zeros(2), 1.0)  # A A^T is the smaller
    assert abs(wide.gram_norm - 4.0) <= 1e-12


def test_sup_affine_zero_rows():
    x = np.array([0.7, -0.3])
    for scale in (0.0, 1e-160):  # |AA^T| zero or subnormal
        fam = _simplex_family(np.full((3, 2), scale), np.zeros(3), 1.0)
        y, c, iters = prox_sup_affine(fam, 0.25, x)
        assert np.abs(y - 2.0 * x).max() < 1e-12
        assert iters == 1


def test_sup_affine_singleton_ambiguity():
    a = np.array([[1.5, -0.5]])
    fam = SupAffineFamily(a, np.array([0.3]), 1.0, lambda c: np.ones(1),
                          support_max=lambda v: float(v[0]))
    mu = 0.2
    x = np.array([0.4, 0.9])
    y, c, _ = prox_sup_affine(fam, mu, x)
    expect = (x - mu * a[0]) / (1.0 - 2.0 * mu)
    assert np.abs(y - expect).max() < 1e-9
    assert abs(c[0] - 1.0) < 1e-12


def test_sup_affine_matches_ambiguity_scan():
    fam = _simplex_family(np.array([[2.0], [-2.0]]), np.zeros(2), 1.0)
    y, _, _ = prox_sup_affine(fam, 0.2, np.array([0.5]))
    y_scan, _, _ = oracles.affine_scan_prox(
        np.array([[2.0], [-2.0]]), np.zeros(2), 1.0, 0.2, np.array([0.5])
    )
    assert abs(float(y[0]) - y_scan) < 1e-4


def test_sup_affine_fixed_point_characterization():
    rng = np.random.default_rng(14)
    a_rows = rng.uniform(-1, 1, (3, 2))
    tol = 1e-10
    fam = _simplex_family(a_rows, rng.uniform(-0.5, 0.5, 3), 0.8, km_tol=tol)
    mu = 0.2
    x = rng.uniform(-1, 1, 2)
    y, c, _ = prox_sup_affine(fam, mu, x)
    s = 1.0 - 2.0 * fam.sigma * mu
    gamma = 0.9 * s / (mu * fam.gram_norm)
    step = c + gamma * (a_rows @ y + fam.offsets)
    assert np.linalg.norm(c - project_simplex(step)) <= 10 * tol


def test_sup_affine_prox_beats_perturbations():
    fam = _simplex_family(np.array([[1.0, 0.0], [0.0, -1.0]]),
                          np.array([0.1, -0.2]), 0.9)
    mu = 0.25
    x = np.array([0.3, 0.8])
    y, _, _ = prox_sup_affine(fam, mu, x)

    def objective(z):
        return fam.value(z) + float((z - x) @ (z - x)) / (2 * mu)

    base = objective(y)
    rng = np.random.default_rng(15)
    for _ in range(100):
        assert base <= objective(y + rng.normal(0, 0.2, 2)) + 1e-9


_entries = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


@st.composite
def _sup_affine_cases(draw):
    n_scen = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 4))
    a_rows = draw(hnp.arrays(float, (n_scen, dim), elements=_entries))
    offsets = draw(hnp.arrays(float, n_scen, elements=_entries))
    x = draw(hnp.arrays(float, dim, elements=_entries))
    sigma = draw(st.floats(0.25, 2.0))
    mu = draw(st.floats(0.05, 0.9)) / (2.0 * sigma)
    return a_rows, offsets, sigma, mu, x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sup_affine_cases())
def test_sup_affine_dual_optimality(case):
    a_rows, offsets, sigma, mu, x = case
    fam = _simplex_family(a_rows, offsets, sigma)
    y, c, _ = prox_sup_affine(fam, mu, x)
    s = 1.0 - 2.0 * sigma * mu
    assert abs(c.sum() - 1.0) <= 1e-9 and c.min() >= 0.0
    assert np.array_equal(y, (x - mu * (a_rows.T @ c)) / s)
    # the stop certifies a dual gap of at most 2 sqrt(2) L tol, L = mu |AA^T| / s
    v = a_rows @ y + offsets
    lip = mu * fam.gram_norm / s
    assert v.max() - c @ v <= 1e-9 * max(1.0, lip)
    if lip >= np.finfo(float).tiny:  # else A is numerically zero
        gamma = 0.9 / lip
        assert np.linalg.norm(c - project_simplex(c + gamma * v)) <= 1e-8


def test_sup_affine_budget_exhaustion():
    fam = _simplex_family(np.array([[2.0], [-2.0]]), np.zeros(2), 1.0,
                          km_max_iter=1)  # converges at 2
    with pytest.raises(ConvergenceError) as exc:
        prox_sup_affine(fam, 0.2, np.array([0.5]))
    err = exc.value
    assert err.iterations == 1
    assert err.residual > 0
    y_best, c_best = err.best
    assert y_best.shape == (1,)
    assert c_best.shape == (2,)


def test_sup_affine_mu_domain():
    fam = _simplex_family(np.array([[1.0]]), np.zeros(1), 2.0)  # rho = 4
    with pytest.raises(DomainError):
        prox_sup_affine(fam, 0.25, np.array([0.0]))


# ---------------------------------------------------------------------------
# scalar regularizers
# ---------------------------------------------------------------------------

def test_prox_mcp_pieces():
    assert prox_mcp(1.0, 2.0, 0.5, 0.3) == 0.0
    assert prox_mcp(1.0, 2.0, 0.5, 3.0) == 3.0
    assert abs(prox_mcp(1.0, 2.0, 0.5, 1.5) - 4.0 / 3.0) < 1e-12
    assert abs(prox_mcp(1.0, 2.0, 0.5, -1.5) + 4.0 / 3.0) < 1e-12
    out = prox_mcp(1.0, 2.0, 0.5, np.array([0.3, 3.0, 1.5]))
    assert np.abs(out - np.array([0.0, 3.0, 4.0 / 3.0])).max() < 1e-12


def test_prox_mcp_gamma_domain():
    with pytest.raises(DomainError):
        prox_mcp(1.0, 2.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        prox_mcp(1.0, 2.0, -0.1, 0.5)


def test_prox_mcp_matches_scalar_oracle():
    spec = oracles.GridSpec(-4.0, 4.0, 0.01, refine_passes=30)
    for x in (-2.4, -0.9, 0.2, 1.5, 2.7):
        ref = oracles.brute_force_prox(
            lambda t: mcp_value(1.0, 2.0, t), 0.5, np.array([x]), spec
        )
        assert abs(prox_mcp(1.0, 2.0, 0.5, x) - ref[0]) < 1e-8


def test_prox_scad_pieces():
    assert prox_scad(1.0, 3.0, 0.5, 0.0) == 0.0
    assert prox_scad(1.0, 3.0, 0.5, 10.0) == 10.0
    assert prox_scad(1.0, 3.0, 0.5, -10.0) == -10.0
    # soft-threshold region
    assert abs(prox_scad(1.0, 3.7, 0.3, 1.0) - 0.7) < 1e-12


def test_prox_scad_matches_scalar_oracle():
    spec = oracles.GridSpec(-5.0, 5.0, 0.01, refine_passes=30)
    value = prox_scad(1.0, 3.0, 0.5, 1.2)
    ref = oracles.brute_force_prox(
        lambda t: scad_value(1.0, 3.0, t), 0.5, np.array([1.2]), spec
    )
    assert abs(value - ref[0]) < 1e-8
    for x in (-3.1, -1.6, 0.4, 2.2, 3.5):
        ref = oracles.brute_force_prox(
            lambda t: scad_value(1.0, 3.0, t), 0.5, np.array([x]), spec
        )
        assert abs(prox_scad(1.0, 3.0, 0.5, x) - ref[0]) < 1e-8


def test_prox_scad_domain():
    with pytest.raises(DomainError):
        prox_scad(1.0, 3.0, 2.5, 1.0)  # gamma >= theta - 1


def test_prox_tukey_fixed_points():
    assert prox_tukey(0.7, 0.1, 0.7) == 0.7
    assert abs(prox_tukey(0.0, 1e-6, 0.5) - 0.5) < 1e-4


def test_prox_tukey_against_bisection():
    mu, x = 0.1, 0.5

    def slope(t):
        return (t - x) / mu + 2.0 * t / (1.0 + t * t) ** 2

    lo, hi = min(x, 0.0) - 1.0, max(x, 0.0) + 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    value = prox_tukey(0.0, mu, x)
    assert abs(value - root) < 1e-10
    assert abs(value - 0.4383154351506258) < 1e-12
    assert abs(slope(value)) <= 1e-12 / mu + 1e-9


def test_prox_tukey_residual_and_domain():
    out = prox_tukey(0.3, 0.12, 1.1)
    resid = (out - 1.1) / 0.12 + 2.0 * (out - 0.3) / (1.0 + (out - 0.3) ** 2) ** 2
    assert abs(resid) <= 1e-9
    with pytest.raises(DomainError):
        prox_tukey(0.0, 1.0 / 6.0, 0.5)
    with pytest.raises(DomainError):
        prox_tukey(0.0, 0.3, 0.5)


def test_prox_l1_examples():
    assert np.array_equal(prox_l1(1.0, 0.5, np.zeros(2)), np.zeros(2))
    out = prox_l1(1.0, 0.5, np.array([2.0, -0.2]))
    assert np.array_equal(out, np.array([1.5, 0.0]))


def test_prox_l1_matches_scalar_oracle():
    # Grid oracles comparing raw objective values cannot resolve the argmin
    # below ~sqrt(machine eps) because the objective flattens quadratically,
    # so the tight comparison uses a ternary search driven by the exact
    # pairwise difference
    #   phi(t) - phi(s) = lam (|t|-|s|) + (t-s)(t+s-2x)/(2 gamma),
    # which has no cancellation floor.
    lam, gamma = 0.8, 0.6

    def scalar_argmin(x):
        def diff(t, s):
            return lam * (abs(t) - abs(s)) + (t - s) * (t + s - 2 * x) / (2 * gamma)

        lo, hi = -5.0, 5.0
        while hi - lo > 1e-12:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if diff(m1, m2) < 0.0:
                hi = m2
            else:
                lo = m1
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(16)
    x = rng.uniform(-3, 3, 6)
    out = prox_l1(lam, gamma, x)
    for i in range(x.size):
        assert abs(out[i] - scalar_argmin(x[i])) < 1e-10

    # coarse sanity via the generic grid oracle
    spec = oracles.GridSpec(-4.0, 4.0, 0.01, refine_passes=30)
    ref = oracles.brute_force_prox(
        lambda t: lam * abs(t[0]), gamma, np.array([x[0]]), spec
    )
    assert abs(out[0] - ref[0]) < 1e-7


def test_scalar_prox_monotone_in_x():
    xs = np.linspace(-4, 4, 161)
    for fn in (
        lambda x: prox_mcp(1.0, 2.0, 0.5, x),
        lambda x: prox_scad(1.0, 3.0, 0.5, x),
        lambda x: prox_tukey(0.0, 0.1, x),
        lambda x: prox_l1(1.0, 0.5, x),
    ):
        vals = np.array([float(np.asarray(fn(x))) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)


def test_scalar_regularizer_validation():
    with pytest.raises(DomainError):
        ScalarRegularizer("huber")
    with pytest.raises(DomainError):
        ScalarRegularizer("mcp", lam=1.0)  # theta missing
    with pytest.raises(DomainError):
        ScalarRegularizer("scad", lam=1.0, theta=2.0)
    with pytest.raises(DomainError):
        ScalarRegularizer("l1", lam=0.0)


def test_scalar_regularizer_moduli():
    assert ScalarRegularizer("mcp", theta=2.0).rho == 0.5
    assert ScalarRegularizer("scad", theta=3.0).rho == 0.5
    assert ScalarRegularizer("tukey").rho == 6.0
    assert ScalarRegularizer("l1").rho == 0.0
    assert ScalarRegularizer("l1").mu_max == np.inf
    assert abs(ScalarRegularizer("tukey").mu_max - 1.0 / 6.0) < 1e-15


def test_scalar_regularizer_dispatch():
    x = np.array([0.3, 3.0, 1.5, -0.7])
    mcp = ScalarRegularizer("mcp", lam=1.0, theta=2.0)
    assert np.array_equal(mcp.prox(0.5, x), prox_mcp(1.0, 2.0, 0.5, x))
    assert mcp.value(x) == mcp_value(1.0, 2.0, x)

    scad = ScalarRegularizer("scad", lam=1.0, theta=3.0)
    assert np.array_equal(scad.prox(0.5, x), prox_scad(1.0, 3.0, 0.5, x))
    assert scad.value(x) == scad_value(1.0, 3.0, x)

    shifts = np.array([0.0, 1.0, -1.0, 2.0])
    tk = ScalarRegularizer("tukey", shifts=shifts)
    assert np.array_equal(tk.prox(0.1, x), prox_tukey(shifts, 0.1, x))
    assert tk.value(x) == tukey_value(shifts, x)

    l1 = ScalarRegularizer("l1", lam=0.8)
    assert np.array_equal(l1.prox(0.6, x), prox_l1(0.8, 0.6, x))
    assert l1.value(x) == 0.8 * np.abs(x).sum()


def test_scalar_prox_optimality_sampling():
    rng = np.random.default_rng(17)
    cases = [
        (ScalarRegularizer("mcp", lam=1.0, theta=2.0), 0.5),
        (ScalarRegularizer("scad", lam=1.0, theta=3.0), 0.5),
        (ScalarRegularizer("tukey", shifts=0.2), 0.12),
        (ScalarRegularizer("l1", lam=0.8), 0.6),
    ]
    x = np.array([1.3])
    for reg, mu in cases:
        p = np.asarray(reg.prox(mu, x), dtype=float).reshape(1)

        def objective(y):
            return reg.value(y) + float((y - x) @ (y - x)) / (2 * mu)

        base = objective(p)
        for _ in range(100):
            assert base <= objective(p + rng.normal(0, 0.4, 1)) + 1e-9
