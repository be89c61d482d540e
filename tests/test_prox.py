import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pvsmooth as pvs
from pvsmooth import core, oracles
from pvsmooth import prox as prox_module
from pvsmooth.core import moreau_envelope
from pvsmooth.errors import ContractError, ConvergenceError, DomainError, NumericalError
from pvsmooth.projections import project_simplex
from pvsmooth.prox import (
    L1Penalty,
    MCPPenalty,
    SCADPenalty,
    ScalarRegularizer,
    SupAffineFamily,
    SupQuadraticFamily,
    TukeyPenalty,
    _bordered_system,
    _edge_weights,
    _simplex_kkt_certified,
    envelope_by_weights,
    simplex_weights_kkt,
    solve_simplex_weights,
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
    for alpha in (np.ones((2, 2)), np.array([])):
        with pytest.raises(DomainError, match="nonempty 1-d"):
            solve_simplex_weights(alpha, 0.25)


def test_simplex_weights_tiny_mu_put_all_weight_on_the_nearest_block():
    # 1 - 2 mu rounds to 1, so the split condition holds only by definition
    # at the last index: all weight goes to the smallest alpha
    p = solve_simplex_weights(np.array([2.0, 1.0, 3.0]), 1e-17)
    assert np.array_equal(p, [0.0, 1.0, 0.0])
    fam = SupQuadraticFamily(np.eye(3))
    x = np.array([0.9, 0.1, 0.0, 0.0, 0.8, 0.1, 0.0, 0.0, 0.2])
    assert np.array_equal(fam._weights(1e-17, fam.alphas(x)), [1.0, 0.0, 0.0])
    assert np.abs(fam.prox(1e-17, x) - x).max() <= 1e-15


def test_non_finite_input_to_sup_quadratic_prox_raises_domain_error():
    for alpha in ([np.inf, np.inf], [np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(DomainError, match="finite"):
            solve_simplex_weights(np.array(alpha), 0.1)
    fam = SupQuadraticFamily(np.array([[0.0, 1.0], [2.0, -1.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        # a block at its center pins the weight; the bad block still counts
        for x in (np.array([0.3, bad, 2.0, -1.0]), np.array([0.0, 1.0, bad, 0.5])):
            for call in (fam.prox, fam.prox_and_value,
                         lambda mu, x: fam._weights(mu, fam.alphas(x))):
                with pytest.raises(DomainError, match="finite"):
                    call(0.2, x)


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
    assert np.abs(fam._weights(0.25, fam.alphas(x)) - np.array([0.0, 0.5, 0.5])).max() < 1e-12


def test_sup_quadratic_prox_zero_alpha_pins_weight():
    # one block sits exactly on its center; that block takes all the weight
    # and the prox leaves the point unchanged
    fam = SupQuadraticFamily(np.array([[5.0], [3.0]]))
    x = np.array([5.0, 0.0])
    assert np.array_equal(fam._weights(0.25, fam.alphas(x)), np.array([1.0, 0.0]))
    assert np.array_equal(fam.prox(0.25, x), x)


def test_sup_quadratic_zero_alpha_smallest_index_tie_break():
    fam = SupQuadraticFamily(np.array([[1.0], [2.0]]))
    x = np.array([1.0, 2.0])  # both blocks at their centers
    assert np.array_equal(fam._weights(0.3, fam.alphas(x)), np.array([1.0, 0.0]))
    assert np.array_equal(fam.prox(0.3, x), x)


def test_sup_quadratic_mu_domain():
    fam = SupQuadraticFamily(np.zeros((2, 1)))
    for mu in (0.0, 0.5, 0.7, -1.0):
        with pytest.raises(DomainError):
            fam.prox(mu, np.array([1.0, 2.0]))
    # just below 1/2 the denominator 1 - 2 mu p is 2e-14, under the guard
    with pytest.raises(NumericalError, match="denominators collapsed"):
        SupQuadraticFamily([[0.0]]).prox(0.5 - 1e-14, [1.0])


def envelope_sup_identity_check(family, mu, x):
    """(lhs, rhs): the Moreau envelope through the prox, and the same value as
    the weight-space maximum; the envelope of a supremum of concave
    quadratics is the supremum of the weighted envelopes."""
    alpha = family.alphas(x)
    rhs = envelope_by_weights(alpha, mu, family._weights(mu, alpha))
    return moreau_envelope(family, mu, x), float(rhs)


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

def test_sup_affine_gram_norm_is_exact():
    # the top right singular vector is orthogonal to the fixed power-iteration
    # start in core.matrix_norm_bound, which therefore settles on the second
    # singular value; the family's |AA^T| must not depend on that start
    start = np.random.default_rng(core._POWER_SEED).standard_normal(5)
    basis = np.random.default_rng(3).standard_normal((5, 5))
    basis[:, 0] -= (basis[:, 0] @ start) / (start @ start) * start
    v_mat, _ = np.linalg.qr(basis)
    a_rows = np.diag([2.0, 1.0, 0.5, 0.25, 0.1]) @ v_mat.T
    fam = SupAffineFamily(a_rows, np.zeros(5), 1.0)
    assert abs(fam.gram_norm - 4.0) <= 1e-12
    # the top eigenvalue of the dense A A^T, which the family does not keep
    assert abs(fam.gram_norm - np.linalg.eigvalsh(a_rows @ a_rows.T)[-1]) <= 1e-12
    wide = SupAffineFamily(a_rows[:2], np.zeros(2), 1.0)  # A A^T is the smaller
    assert abs(wide.gram_norm - 4.0) <= 1e-12


def test_sup_affine_zero_rows():
    x = np.array([0.7, -0.3])
    for scale in (0.0, 1e-160):  # |AA^T| zero or subnormal
        fam = SupAffineFamily(np.full((3, 2), scale), np.zeros(3), 1.0)
        y, c, iters = fam.prox_detailed(0.25, x)
        assert np.abs(y - 2.0 * x).max() < 1e-12
        assert iters == 1


def test_sup_affine_matches_ambiguity_scan():
    fam = SupAffineFamily(np.array([[2.0], [-2.0]]), np.zeros(2), 1.0)
    y, _, _ = fam.prox_detailed(0.2, np.array([0.5]))
    y_scan, _, _ = oracles.affine_scan_prox(
        np.array([[2.0], [-2.0]]), np.zeros(2), 1.0, 0.2, np.array([0.5])
    )
    assert abs(float(y[0]) - y_scan) < 1e-4


def test_sup_affine_fixed_point_characterization():
    rng = np.random.default_rng(14)
    a_rows = rng.uniform(-1, 1, (3, 2))
    tol = 1e-10
    fam = SupAffineFamily(a_rows, rng.uniform(-0.5, 0.5, 3), 0.8)
    mu = 0.2
    x = rng.uniform(-1, 1, 2)
    y, c, _ = fam.prox_detailed(mu, x)
    s = 1.0 - 2.0 * fam.sigma * mu
    gamma = 0.9 * s / (mu * fam.gram_norm)
    step = c + gamma * (a_rows @ y + fam.offsets)
    assert np.linalg.norm(c - project_simplex(step)) <= 10 * tol


def test_sup_affine_prox_beats_perturbations():
    fam = SupAffineFamily(np.array([[1.0, 0.0], [0.0, -1.0]]),
                          np.array([0.1, -0.2]), 0.9)
    mu = 0.25
    x = np.array([0.3, 0.8])
    y, _, _ = fam.prox_detailed(mu, x)

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
# two equal rows of size 2.4e-144: L = 5.8e-288, so gamma v = 7.5e143 in
# both entries, and the unshifted step c + gamma v rounded c away
@example((np.full((2, 1), 2.40315567e-144), np.zeros(2), 1.0, 0.25, np.array([1.0])))
def test_sup_affine_dual_optimality(case):
    a_rows, offsets, sigma, mu, x = case
    fam = SupAffineFamily(a_rows, offsets, sigma)
    y, c, _ = fam.prox_detailed(mu, x)
    s = 1.0 - 2.0 * sigma * mu
    assert abs(c.sum() - 1.0) <= 1e-9 and c.min() >= 0.0
    assert np.array_equal(y, (x - mu * (a_rows.T @ c)) / s)
    # the active set certifies the gamma-scaled dual gradient to within
    # eps = 1e-12, so the dual gap max(v) - <c, v> is at rounding level;
    # the bound scales 1e-9 by L = mu |AA^T| / s
    v = a_rows @ y + offsets
    lip = mu * fam.gram_norm / s
    assert v.max() - c @ v <= 1e-9 * max(1.0, lip)
    if lip >= np.finfo(float).tiny:  # else A is numerically zero
        # the simplex projection ignores a shift of its argument by a
        # multiple of ones, so v - max(v) gives the same step, without
        # rounding c away when gamma v is huge
        gamma = 0.9 / lip
        assert np.linalg.norm(c - project_simplex(c + gamma * (v - v.max()))) <= 1e-8


def test_sup_affine_active_set_has_the_whole_budget(monkeypatch):
    # w = 0: a fresh family's active set starts from {0}, adds scenario 1
    # and certifies c = (1/2, 1/2) at its second step; with one step it stops
    # at the vertex (1, 0) and raises, carrying that c, its prox point and
    # its fixed-point residual
    rows = np.array([[2.0], [-2.0]])
    monkeypatch.setattr(prox_module, "_ACTIVE_SET_STEPS", 2)
    fam = SupAffineFamily(rows, np.zeros(2), 1.0)
    mu, x = 0.2, np.zeros(1)
    y, c, iterations = fam.prox_detailed(mu, x)
    assert iterations == 2 and np.array_equal(c, [0.5, 0.5])
    monkeypatch.setattr(prox_module, "_ACTIVE_SET_STEPS", 1)
    fam = SupAffineFamily(rows, np.zeros(2), 1.0)
    with pytest.raises(ConvergenceError, match="uncertified after 1 of 1 iterations"
                       r" \(the budget _ACTIVE_SET_STEPS\)") as exc:
        fam.prox_detailed(mu, x)
    err = exc.value
    assert err.iterations == 1
    y_best, c_best = err.best
    assert np.array_equal(c_best, [1.0, 0.0])
    s = 1.0 - 2.0 * mu
    assert np.array_equal(y_best, (x - mu * (fam.a_rows.T @ c_best)) / s)
    # gamma = 1/L = s / (mu |A|^2) and coef = gamma mu / s = 1/8
    gamma = s / (mu * fam.gram_norm)
    v = gamma * (fam.a_rows @ x / s) - (gamma * mu / s) * (
        fam.a_rows @ (fam.a_rows.T @ c_best))
    residual = np.linalg.norm(project_simplex(c_best + v) - c_best)
    assert abs(err.residual - residual) <= 1e-15
    assert abs(residual - np.sqrt(0.5)) <= 1e-15


def _simplex_kkt_residuals(fam, mu, x, c):
    """(|sum c - 1|, spread of v over c > 0, excess of v off it, eps) for the
    gamma-scaled dual gradient v = w - coef A A^T c of the prox."""
    s = 1.0 - 2.0 * fam.sigma * mu
    lip = mu * fam.gram_norm / s
    gamma = 1.0 / lip if lip >= np.finfo(float).tiny else 1.0
    w = gamma * (fam.a_rows @ x / s + fam.offsets)
    v = w - (gamma * mu / s) * (fam.a_rows @ (fam.a_rows.T @ c))
    live = c > 0.0
    top = v[live].max()
    return (abs(c.sum() - 1.0), top - v[live].min(),
            v[~live].max(initial=-np.inf) - top, 1e-12 * max(1.0, np.abs(w).max()))


@st.composite
def _degenerate_simplex_cases(draw):
    n_scen = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 4))
    a_rows = draw(hnp.arrays(float, (n_scen, dim), elements=_entries))
    offsets = draw(hnp.arrays(float, n_scen, elements=_entries))
    for i in range(1, n_scen):
        kind = draw(st.sampled_from(["keep", "keep", "duplicate", "zero"]))
        if kind == "duplicate":
            j = draw(st.integers(0, i - 1))
            a_rows[i], offsets[i] = a_rows[j], offsets[j]
        elif kind == "zero":
            a_rows[i] = 0.0
    x = draw(hnp.arrays(float, dim, elements=_entries))
    sigma = draw(st.floats(0.25, 2.0))
    mu = draw(st.floats(0.05, 0.9)) / (2.0 * sigma)
    return a_rows, offsets, sigma, mu, x


_rng = np.random.default_rng(21)
_wide = _rng.uniform(-1.0, 1.0, (9, 2))  # N > d + 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_degenerate_simplex_cases())
@example((np.array([[0.7, -1.2]]), np.array([0.4]), 1.0, 0.3, np.array([0.5, 0.1])))
@example((np.array([[1.0, 0.5], [1.0, 0.5], [-1.0, 0.2], [-1.0, 0.2]]),
          np.array([0.1, 0.1, -0.2, -0.2]), 1.0, 0.2, np.array([0.05, -0.3])))
@example((np.zeros((4, 3)), np.array([0.3, -0.1, 0.3, 0.2]), 0.5, 0.4,
          np.array([1.0, -1.0, 0.5])))
@example((np.vstack([np.zeros((2, 2)), _rng.uniform(-1.0, 1.0, (3, 2))]),
          _rng.uniform(-0.2, 0.2, 5), 1.0, 0.3, np.array([0.2, -0.4])))
@example((_wide, _rng.uniform(-0.5, 0.5, 9), 0.8, 0.4, _rng.uniform(-1.0, 1.0, 2)))
# zero rows, and a row (0, 1e-15, 0) whose bordered system solves to
# u ~ e_6 with weights -2e-16: u - c_S then failed to ascend by rounding
# alone, and the active set stepped along a least singular vector that was
# no null direction, back to a support it had left, for all 200,000 steps
@example((np.array([[-4.17681291e-1, 1.11478060e+0, 3.50088073e-281],
                    [2e-2, -2.69418118e-1, 0.0],
                    [0.0, 0.0, 0.0],
                    [2.5e-1, 0.0, -1.30582202e-1],
                    [0.0, 0.0, 0.0],
                    [-2.00459149e-1, 0.0, 0.0],
                    [0.0, 1e-15, 0.0],
                    [0.0, -2.91162425e-291, 0.0]]),
          np.zeros(8), 0.25, 0.1, np.zeros(3)))
def test_sup_affine_active_set_matches_enumeration_and_meets_kkt(case):
    a_rows, offsets, sigma, mu, x = case
    fam = SupAffineFamily(a_rows, offsets, sigma)
    y, c, _ = fam.prox_detailed(mu, x)
    y_ref, violation = oracles.enumerated_simplex_prox(a_rows, offsets, sigma, mu, x)
    assert violation <= 1e-12
    assert np.abs(y - y_ref).max() <= 1e-9
    assert c.min() >= 0.0
    sum_dev, spread, excess, eps = _simplex_kkt_residuals(fam, mu, x, c)
    assert sum_dev <= 1e-12
    assert spread <= eps and excess <= eps


# Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.): a
# product or quotient is (x op y)(1 + delta) + eta with |delta| <= U and
# |eta| <= ETA, where eta is nonzero only on underflow; a sum or difference
# has eta = 0 (section 2.2).  gamma_n = n U / (1 - n U) bounds n such
# relative errors in a row, in any summation order (section 3.1).
_U = Fraction(1, 2 ** 53)
_ETA = Fraction(1, 2 ** 1075)


def _gamma(n):
    return n * _U / (1 - n * _U)


def _exact_inverse_norm(k):
    """|K^-1|_inf of a nonsingular 3 x 3 matrix of Fractions, by cofactors."""
    cof = [[(k[(i + 1) % 3][(j + 1) % 3] * k[(i + 2) % 3][(j + 2) % 3]
             - k[(i + 1) % 3][(j + 2) % 3] * k[(i + 2) % 3][(j + 1) % 3])
            for j in range(3)] for i in range(3)]
    det = sum(k[0][j] * cof[0][j] for j in range(3))
    return max(sum(abs(cof[j][i]) for j in range(3)) for i in range(3)) / abs(det)


def _lu_growth(kkt):
    """The inf-norm of |L| |U| for Gaussian elimination with partial
    pivoting on ``kkt``, the first largest entry as pivot, as LAPACK's
    getrf takes it; None for a zero pivot."""
    a = kkt.tolist()
    n = len(a)
    low = [[float(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0.0:
            return None
        a[k], a[p] = a[p], a[k]
        low[k][:k], low[p][:k] = low[p][:k], low[k][:k]
        for i in range(k + 1, n):
            low[i][k] = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= low[i][k] * a[k][j]
    return max(sum(abs(low[i][m]) * abs(a[m][j]) for j in range(n) for m in range(min(i, j) + 1))
               for i in range(n))


def _edge_agreement(a_rows, coef, w):
    """For the edge {0, 1}: ``(u, u_solve, u_star, edge_bound, solve_bound)``,
    the closed form and an ``np.linalg.solve`` of the bordered system, the
    exact maximizer on the edge's hull (in Fractions), and bounds on each
    computed u's distance to it under the model above.  None when the edge
    is singular, the solve fails or overflows, or the denominator's error
    bound reaches the denominator."""
    u, _ = _edge_weights(a_rows, coef, w, np.array([0, 1]))
    kkt, rhs = _bordered_system(a_rows, coef, w)
    try:
        x_solve = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    growth = _lu_growth(kkt)
    if u is None or growth is None or not np.isfinite([growth, *x_solve]).all():
        return None
    d = a_rows.shape[1]
    rows = [[Fraction(t) for t in row] for row in a_rows.tolist()]
    cf, w_s = Fraction(coef), [Fraction(t) for t in w.tolist()]
    dif = [p - q for p, q in zip(*rows)]
    den = cf * sum(t * t for t in dif)
    cross = sum(p * q for p, q in zip(rows[1], dif))
    num = w_s[0] - w_s[1] - cf * cross
    u_star = num / den
    # the edge: dif entrywise within U; each dot product of length d within
    # gamma_d of its absolute terms plus d underflows; coef * dot, the
    # difference and the quotient add one rounding (and one underflow) each
    dot_eta = d * _ETA * (1 + _gamma(d))
    err_den = _gamma(d + 3) * den + cf * (1 + _U) * dot_eta + _ETA
    err_cross = (_gamma(d + 2) * cf * sum(abs(p * q) for p, q in zip(rows[1], dif))
                 + cf * (1 + _U) * dot_eta + _ETA)
    err_num = (1 + _U) * (_U * abs(w_s[0] - w_s[1]) + err_cross) + _U * abs(num)
    if den <= err_den:
        return None
    err_i = ((1 + _U) * (err_num + abs(u_star) * err_den) / (den - err_den)
             + _U * abs(u_star) + _ETA)
    edge_bound = (1 + _U) * err_i + _U * abs(1 - u_star)
    # the solve: (K + dK) x = r + dr with |dK| <= gamma_3n |L| |U| (Theorem
    # 9.4), doubled for the factors above standing in for LAPACK's (they
    # differ at rounding level), and each of the 3 n^2 products and
    # quotients of the factorization and the two triangular solves
    # charging one underflow to dr, weighted by 1 + |x|
    top = max(w_s)
    k_star = [[cf * sum(p * q for p, q in zip(rows[i], rows[j])) for j in range(2)] + [1]
              for i in range(2)] + [[1, 1, 0]]
    r_star = [w_s[0] - top, w_s[1] - top, Fraction(1)]
    x_hat = [Fraction(t) for t in x_solve.tolist()]
    x_norm = max(abs(t) for t in x_hat)
    err_k = max(_gamma(d + 1) * cf * sum(abs(p * q) for p, q in zip(rows[i], rows[j]))
                + cf * (1 + _U) * dot_eta + _ETA for i in range(2) for j in range(2))
    err_r = _U * max(abs(t) for t in r_star)
    n = 3
    solve_bound = _exact_inverse_norm(k_star) * (
        err_r + n * n * 3 * _ETA * (1 + x_norm)
        + (2 * err_k + 2 * _gamma(3 * n) * Fraction(growth)) * x_norm)
    return u, x_solve[:2], (u_star, 1 - u_star), edge_bound, solve_bound


@st.composite
def _edge_cases(draw):
    dim = draw(st.integers(1, 4))
    a_rows = draw(hnp.arrays(float, (2, dim), elements=_entries))
    offsets = draw(hnp.arrays(float, 2, elements=_entries))
    kind = draw(st.sampled_from(["keep", "duplicate", "parallel", "zero"]))
    if kind == "duplicate":
        a_rows[1] = a_rows[0]
    elif kind == "parallel":
        a_rows[1] = draw(st.floats(-2.0, 2.0)) * a_rows[0]
    elif kind == "zero":
        a_rows[1] = 0.0
    for r in draw(st.sampled_from([(), (0,), (1,), (0, 1)])):
        a_rows[r] *= 1e-160
    if draw(st.booleans()):
        offsets[1] = offsets[0]
    x = draw(hnp.arrays(float, dim, elements=_entries))
    sigma = draw(st.floats(0.25, 2.0))
    mu = draw(st.floats(0.05, 0.9)) / (2.0 * sigma)
    return a_rows, offsets, sigma, mu, x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_edge_cases())
@example((np.array([[0.6, -0.4], [0.6, -0.4]]), np.array([0.2, 0.2]), 1.0, 0.3,
          np.array([0.5, 0.5])))
@example((np.array([[0.6, -0.4], [-0.9, 0.6]]), np.array([0.2, 0.2]), 1.0, 0.3,
          np.array([0.5, 0.5])))
@example((np.array([[0.6, -0.4], [0.0, 0.0]]), np.array([0.1, 0.1]), 1.0, 0.3,
          np.array([-0.5, 1.0])))
@example((np.array([[0.6e-160, -0.4e-160], [0.3e-160, 0.9e-160]]), np.array([0.1, 0.1]),
          1.0, 0.3, np.array([-0.5, 1.0])))
@example((np.array([[0.6e-160, -0.4e-160], [0.3, 0.9]]), np.array([0.1, 0.1]),
          1.0, 0.3, np.array([-0.5, 1.0])))
def test_sup_affine_edge_matches_the_bordered_solve_and_enumeration(case):
    a_rows, offsets, sigma, mu, x = case
    fam = SupAffineFamily(a_rows, offsets, sigma)
    y, c, _ = fam.prox_detailed(mu, x)
    y_ref, violation = oracles.enumerated_simplex_prox(a_rows, offsets, sigma, mu, x)
    assert violation <= 1e-12
    assert np.abs(y - y_ref).max() <= 1e-9
    # the gamma-scaled dual the active set solves, as prox_detailed forms it
    s = 1.0 - 2.0 * sigma * mu
    lip = mu * fam.gram_norm / s
    gamma = 1.0 / lip if lip >= np.finfo(float).tiny else 1.0
    w = gamma * (fam.a_rows @ x / s + fam.offsets)
    w = w - w.max()
    coef = gamma * mu / s
    u, a_u = _edge_weights(fam.a_rows, coef, w, np.array([0, 1]))
    if np.count_nonzero(c) == 2:  # certified on the edge: c is its closed form
        assert c.tolist() == list(u)
        assert np.array_equal(a_u, u[0] * fam.a_rows[0] + u[1] * fam.a_rows[1])
    agreement = _edge_agreement(fam.a_rows, coef, w)
    if agreement is not None:
        u, u_solve, u_star, edge_bound, solve_bound = agreement
        for p in range(2):
            assert abs(Fraction(u[p]) - u_star[p]) <= edge_bound
            assert abs(Fraction(u_solve[p]) - u_star[p]) <= solve_bound
            assert abs(Fraction(u[p]) - Fraction(u_solve[p])) <= edge_bound + solve_bound


def test_sup_affine_edge_is_singular_where_its_closed_form_fails():
    # equal rows give a zero denominator, and rows 1e-161 apart a subnormal
    # one that u_0 = 1e-3 / den overflows: each edge is singular, so the
    # active set steps along its null direction rather than along an
    # infinite u - c_S
    w, edge = np.array([0.0, -1e-3]), np.array([0, 1])
    for rows in (np.array([[0.3, 0.5], [0.3, 0.5]]), np.array([[1e-161, 0.5], [0.0, 0.5]])):
        assert _edge_weights(rows, 0.8, w, edge) == (None, None)
    # rows 2e154 apart overflow |a_0 - a_1|^2 before coef scales it: the
    # edge has no closed form, and is left to the bordered solve
    assert _edge_weights(np.array([[1e154, 0.0], [-1e154, 0.0]]), 0.8, w, edge) is None
    # u_0 = (1e-3 + 0.25 * 2) / (0.25 * 4)
    rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
    u, a_u = _edge_weights(rows, 0.25, w, edge)
    assert u == (0.501, 0.499) and np.array_equal(a_u, 0.501 * rows[0] + 0.499 * rows[1])


def test_sup_affine_edge_past_the_float_range_is_solved():
    # |A|^2 = 1.62e308 is finite, |a_0 - a_1|^2 = 3.24e308 is not, and
    # coef = 1 / |A|^2 scales the edge's denominator back to 2: the
    # bordered solve finds the midpoint of the edge, where f is smallest
    for mu in (0.1, 0.25):
        fam = SupAffineFamily(np.array([[9e153, 0.0], [-9e153, 0.0]]), np.zeros(2), 1.0)
        y, c, steps = fam.prox_detailed(mu, np.zeros(2))
        assert c.tolist() == [0.5, 0.5] and y.tolist() == [0.0, 0.0] and steps <= 2


def test_sup_affine_prox_rejects_an_overflowing_dual_lipschitz_constant():
    # |A|^2 = 1.62e308 is finite, but at mu = 0.45 (s = 0.1) L = mu |A|^2 / s
    # is not: gamma = 1/L = 0 made every weight optimal, and the family and
    # the enumeration alike returned the top vertex, y = (-4.05e154, 0),
    # where the prox of 9e153 |y_1| - |y|^2 at 0 is y = 0
    rows, offsets = np.array([[9e153, 0.0], [-9e153, 0.0]]), np.zeros(2)
    fam = SupAffineFamily(rows, offsets, 1.0)
    match = "L = mu \\|A\\|\\^2 / s must be finite"
    with pytest.raises(DomainError, match=match):
        fam.prox_detailed(0.45, np.zeros(2))
    with pytest.raises(DomainError, match=match):
        oracles.enumerated_simplex_prox(rows, offsets, 1.0, 0.45, np.zeros(2))
    # at mu = 0.3, L = 1.2e308 is finite and both give the midpoint
    y, c, _ = fam.prox_detailed(0.3, np.zeros(2))
    assert c.tolist() == [0.5, 0.5] and y.tolist() == [0.0, 0.0]
    y_ref, violation = oracles.enumerated_simplex_prox(rows, offsets, 1.0, 0.3, np.zeros(2))
    assert y_ref.tolist() == [0.0, 0.0] and violation <= 1e-12


@pytest.mark.parametrize("mu_type", [np.float64, np.float32])
@pytest.mark.parametrize("enumerated", [False, True], ids=["family", "enumeration"])
def test_sup_affine_prox_takes_a_numpy_mu_in_double(mu_type, enumerated):
    # a numpy mu (as from a SolverConfig built with a numpy C) formed L in
    # numpy scalars: float64 warned "overflow encountered in scalar divide"
    # before the DomainError, which warnings-as-errors turned into a
    # RuntimeWarning, and float32 took L, gamma and coef in single precision
    rows, offsets = np.array([[9e153, 0.0], [-9e153, 0.0]]), np.zeros(2)

    def prox(mu):
        if enumerated:
            return oracles.enumerated_simplex_prox(rows, offsets, 1.0, mu, np.zeros(2))[0]
        return SupAffineFamily(rows, offsets, 1.0).prox_detailed(mu, np.zeros(2))[0]

    with pytest.raises(DomainError, match="L = mu \\|A\\|\\^2 / s must be finite"):
        prox(mu_type(0.45))
    # where L is finite, a numpy mu gives the floats of the same value as a float
    rng = np.random.default_rng(5)
    rows, offsets = rng.uniform(-1.0, 1.0, (4, 2)), rng.uniform(-1.0, 1.0, 4)
    for mu in (0.05, 0.3, 0.45):
        assert np.array_equal(prox(mu_type(mu)), prox(float(mu_type(mu))))


def test_sup_affine_family_has_no_budget_argument():
    # the active-set budget is the module constant, with the 200,000 steps
    # the max_iter argument defaulted to; a survey or a test lowers it there
    rows, offsets = np.array([[2.0], [-2.0]]), np.zeros(2)
    assert prox_module._ACTIVE_SET_STEPS == 200_000
    with pytest.raises(TypeError, match="max_iter"):
        SupAffineFamily(rows, offsets, 1.0, max_iter=7)
    assert not hasattr(SupAffineFamily(rows, offsets, 1.0), "max_iter")


def test_sup_affine_reused_family_returns_the_fresh_answers():
    rng = np.random.default_rng(22)
    a_rows = rng.uniform(-1.0, 1.0, (10, 3))
    offsets = rng.uniform(-1.0, 1.0, 10)
    inputs = [(rng.uniform(0.05, 0.45), rng.uniform(-s, s, 3))
              for s in (0.1, 0.3, 1.0, 3.0) for _ in range(3)]
    # each input on a fresh family, then on one family after any history:
    # forwards, backwards, and the same input twice in a row.  The reused
    # family starts from the support it last certified, so only its step
    # counts may differ
    expected = [SupAffineFamily(a_rows, offsets, 1.0).prox_detailed(mu, x)
                for mu, x in inputs]
    fam = SupAffineFamily(a_rows, offsets, 1.0)
    order = list(range(len(inputs)))
    for i in order + order[::-1] + [i for i in order for _ in range(2)]:
        y, c, _ = fam.prox_detailed(*inputs[i])
        y0, c0, _ = expected[i]
        assert np.array_equal(y, y0) and np.array_equal(c, c0)


def test_sup_affine_builder_family_returns_the_cold_answers():
    # slowly moving (mu, x), as successive outer steps give them, on the
    # builder's family, which resumes from its last certified support, and
    # on a fresh family per call: ten scenarios in
    # R^3, random, then collinear on a half-integer grid with repeats (the
    # shapes `pvsmooth verify prox` draws).  Same floats; fewer steps
    rng = np.random.default_rng(27)
    cold_steps = warm_steps = 0
    for i in range(24):
        anchors = rng.uniform(-1.0, 1.0, (10, 3))
        if i >= 12:
            anchors = np.outer(rng.integers(-4, 5, 10) / 2, anchors[0])
        a_rows, offsets = 2.0 * anchors, -(anchors * anchors).sum(axis=1)
        warm = pvs.build_dro_affine(a_rows, offsets, lam=100.0, radius=1.0).g
        mu, x = rng.uniform(0.05, 0.45), rng.uniform(-0.3, 0.3, 3)
        for _ in range(20):
            mu, x = mu * rng.uniform(0.95, 1.0), x + rng.uniform(-0.02, 0.02, 3)
            y, c, steps = warm.prox_detailed(mu, x)
            y0, c0, steps0 = SupAffineFamily(a_rows, offsets, 1.0).prox_detailed(mu, x)
            assert np.array_equal(y, y0) and np.array_equal(c, c0)
            cold_steps += steps0
            warm_steps += steps
    assert warm_steps < 0.7 * cold_steps


def test_sup_affine_family_restarts_cold_off_a_lost_support(monkeypatch):
    # rows (1, -1): at x = 0 the answer is c = (1/2, 1/2); at x = 0.5,
    # w_0 - w_1 = x / mu = 2.5 puts the bordered solve on {0, 1} at
    # u = (1.75, -0.75), so the reused family restarts at the top vertex
    # e_0, one step after a fresh family certifies it
    rows, offsets = np.array([[1.0], [-1.0]]), np.zeros(2)
    warm = SupAffineFamily(rows, offsets, 1.0)
    mu = 0.2
    for x, c_want, cold_steps, warm_steps in (
            (np.zeros(1), [0.5, 0.5], 2, 2),
            (np.array([0.5]), [1.0, 0.0], 1, 2),
            (np.array([0.6]), [1.0, 0.0], 1, 1),
            (np.zeros(1), [0.5, 0.5], 2, 2)):
        y, c, steps = warm.prox_detailed(mu, x)
        y0, c0, steps0 = SupAffineFamily(rows, offsets, 1.0).prox_detailed(mu, x)
        assert np.array_equal(c, c_want)
        assert np.array_equal(y, y0) and np.array_equal(c, c0)
        assert (steps0, steps) == (cold_steps, warm_steps)
    # with one step, the failed solve leaves the top vertex, uncertified
    warm.prox_detailed(mu, np.zeros(1))
    monkeypatch.setattr(prox_module, "_ACTIVE_SET_STEPS", 1)
    with pytest.raises(ConvergenceError) as exc:
        warm.prox_detailed(mu, np.array([0.5]))
    assert exc.value.iterations == 1
    assert np.array_equal(exc.value.best[1], [1.0, 0.0])


def test_certified_simplex_weights_are_fixed_points_of_the_dual_step():
    # the certificate is the KKT conditions alone; the fixed-point test
    # |P(c + v) - c| <= 1e-10 it also ran never rejected an answer and left
    # the prox.  Here every certified c still passes it, on random and
    # collinear families and on slopes scaled by 10^0 to 10^-60, half of
    # those with offsets 10^-15 to 10^-1 apart
    rng = np.random.default_rng(28)
    for i in range(3000):
        n, dim = int(rng.integers(2, 11)), int(rng.integers(1, 4))
        rows = rng.uniform(-1.0, 1.0, (n, dim))
        offsets = rng.uniform(-1.0, 1.0, n)
        if i % 3 == 1:  # collinear, on a half-integer grid
            rows = np.outer(rng.integers(-4, 5, n) / 2, rows[0])
        elif i % 3 == 2:
            rows = rows * 10.0 ** -int(rng.integers(0, 61))
            if i % 2:
                offsets = offsets[0] + rng.uniform(-1.0, 1.0, n) * 10.0 ** -int(
                    rng.integers(1, 16))
        sigma = rng.uniform(0.25, 2.0)
        mu, x = rng.uniform(0.05, 0.9) / (2.0 * sigma), rng.uniform(-1.0, 1.0, dim)
        fam = SupAffineFamily(rows, offsets, sigma)
        _, c, _ = fam.prox_detailed(mu, x)
        s = 1.0 - 2.0 * sigma * mu
        lip = mu * fam.gram_norm / s
        gamma = 1.0 / lip if lip >= np.finfo(float).tiny else 1.0
        w = gamma * (rows @ x / s + offsets)
        v = (w - w.max()) - (gamma * mu / s) * (rows @ (rows.T @ c))
        assert np.linalg.norm(project_simplex(c + v) - c) <= 1e-10


def test_sup_affine_active_set_steps_near_the_anchors_centre():
    # points near the centre of ten scenarios in R^3 put weight on up to
    # d + 1 = 4 of them; the active set reaches that support in a few
    # steps
    rng = np.random.default_rng(20240821)
    steps = []
    for _ in range(40):
        fam = SupAffineFamily(rng.uniform(-1.0, 1.0, (10, 3)),
                              rng.uniform(-1.0, 1.0, 10), 1.0)
        for _ in range(5):
            mu = rng.uniform(0.05, 0.45)
            steps.append(fam.prox_detailed(mu, rng.uniform(-0.3, 0.3, 3))[2])
    assert np.mean(steps) <= 3
    assert max(steps) <= 10


def _counting_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_sup_affine_active_set_takes_the_top_vertex_without_a_solve(monkeypatch):
    # scenario 0 tops w = gamma (A x / s + b) by far, so c = e_0 is the
    # maximizer, certified in one step with no bordered solve
    solves = _counting_solves(monkeypatch)
    fam = SupAffineFamily(np.eye(2), np.array([5.0, 0.0]), 1.0)
    mu, x = 0.2, np.zeros(2)
    y, c, iterations = fam.prox_detailed(mu, x)
    assert iterations == 1 and not solves
    assert np.array_equal(c, [1.0, 0.0])
    assert np.array_equal(y, (x - mu * np.array([1.0, 0.0])) / (1.0 - 2.0 * mu))


def test_sup_affine_active_set_solves_only_off_the_vertex(monkeypatch):
    # the seeded direct max-dispersion run on the builder's family: each
    # prox starts from the support the one before it certified and takes
    # one step when the support stays.  45 answers have two nonzero weights
    # and the rest are vertices, so every step off a vertex is on an edge,
    # whose closed form leaves np.linalg.solve uncalled
    inst = pvs.MaxDispersionInstance(pvs.random_anchors(3, 10, 47), radius=1.0,
                                     lam=100.0, constraint_matrix=np.ones((1, 3)))
    prob = pvs.build_max_dispersion_direct(inst)
    proxes, spread = [], []
    prox_detailed = prob.g.prox_detailed

    def counted(mu, x):
        out = prox_detailed(mu, x)
        proxes.append(out[2])
        spread.append(np.count_nonzero(out[1]))
        return out

    monkeypatch.setattr(prob.g, "prox_detailed", counted)
    solves = _counting_solves(monkeypatch)
    cfg = pvs.SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=60, stop_step_norm=0.0)
    pvs.run_pvs(prob, cfg, pvs.subspace_start(prob.subspace, 3))
    assert len(proxes) == 61
    assert sum(proxes) == 62  # 106 from a cold start at the top vertex
    assert spread.count(2) == 45 and spread.count(1) == 16
    assert not solves


def test_sup_affine_active_set_certifies_collinear_scenarios():
    # rows (1.5, -1, 1, 1): once the support outgrows d + 1 = 2 the bordered
    # system is singular; a solve that dropped every negative weight at once
    # lost the added index 2 again and stopped uncertified, where stepping
    # to the first zero certifies it
    fam = SupAffineFamily(np.array([[1.5], [-1.0], [1.0], [1.0]]),
                          np.array([-0.5, 0.5, 0.5, -0.75]), 1.0)
    x = np.array([0.5])
    y, c, iterations = fam.prox_detailed(0.4, x)
    assert np.array_equal(c, [0.0, 0.0, 1.0, 0.0])
    assert iterations <= 8  # 2N, far inside the max_iter budget
    # seeded collinear draws in R^1 on a half-integer grid, where duplicate
    # and parallel rows are common
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(2, 5))
        rows = rng.integers(-4, 5, (n, 1)) / 2
        offsets = rng.integers(-4, 5, n) / 4
        x = rng.integers(-4, 5, 1) / 2
        mu = float(rng.choice([0.1, 0.2, 0.3, 0.4]))
        fam = SupAffineFamily(rows, offsets, 1.0)
        y, c, iterations = fam.prox_detailed(mu, x)
        assert iterations <= 2 * n and c.min() >= 0.0
        sum_dev, spread, excess, eps = _simplex_kkt_residuals(fam, mu, x, c)
        assert sum_dev <= 1e-12 and spread <= eps and excess <= eps


def test_sup_affine_family_holds_nothing_of_size_n_squared():
    # N = 3000 scenarios in R^2: a dense A A^T would take 72 MB; the family
    # keeps O(N d) arrays, and a prox allocates a small multiple of N d
    n = 3000
    fam = SupAffineFamily(np.random.default_rng(23).uniform(-1.0, 1.0, (n, 2)),
                          np.zeros(n), 1.0)
    arrays = [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
    assert arrays and max(a.size for a in arrays) <= 2 * n
    tracemalloc.start()
    try:
        fam.prox_detailed(0.2, np.zeros(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n  # bytes: an eighth of one N x N float matrix


def test_sup_affine_active_set_certifies_many_scenarios(monkeypatch):
    # 2000 anchors in R^10, x near their centre: the active set certifies
    # a support of up to d + 1 = 11 scenarios within 2N steps, checked
    # here against a dense Gram matrix
    anchors = pvs.random_anchors(10, 2000, 47)
    fam = SupAffineFamily(2.0 * anchors, -(anchors * anchors).sum(axis=1), 1.0)
    certified = []
    certify = prox_module._simplex_kkt_certified

    def recorded(*args):
        certified.append(certify(*args))
        return certified[-1]

    monkeypatch.setattr(prox_module, "_simplex_kkt_certified", recorded)
    rng = np.random.default_rng(24)
    mu, x = 0.4, anchors.mean(axis=0) + rng.uniform(-0.01, 0.01, 10)
    _, c, iterations = fam.prox_detailed(mu, x)
    assert certified[-1] and iterations <= 2 * anchors.shape[0]
    assert 1 < np.count_nonzero(c) <= 11 and c.min() >= 0.0
    s = 1.0 - 2.0 * mu
    gamma = s / (mu * fam.gram_norm)
    w = gamma * (fam.a_rows @ x / s + fam.offsets)
    v = w - (gamma * mu / s) * ((fam.a_rows @ fam.a_rows.T) @ c)
    live = c > 0.0
    top, eps = v[live].max(), 1e-12 * max(1.0, np.abs(w).max())
    assert abs(c.sum() - 1.0) <= 1e-12
    assert top - v[live].min() <= eps and v[~live].max() - top <= eps


def test_sup_affine_active_set_certifies_the_absorbed_case():
    # gamma = 1/L scales w to about -1e40; on the unshifted w the O(1)
    # quadratic term would round away and leave c = (1, 0) standing.
    # On w - max(w) = (0, 0) the dual gradient at c = (1, 0) is (-1, 0), so
    # scenario 1 joins, and the active set certifies c = (0, 1), whose prox
    # point is exactly 0
    fam = SupAffineFamily(np.array([[-7.2e-40], [0.0]]),
                          np.array([-7.2e-40, -7.2e-40]), 0.25)
    x = np.zeros(1)
    y, c, iterations = fam.prox_detailed(0.1, x)
    assert iterations == 2
    assert np.array_equal(c, [0.0, 1.0]) and np.array_equal(y, [0.0])
    y_ref, violation = oracles.enumerated_simplex_prox(fam.a_rows, fam.offsets, fam.sigma,
                                                       0.1, x)
    assert violation <= 1e-12
    assert np.abs(y - y_ref).max() <= 1e-9


def test_sup_affine_active_set_certifies_every_scale_of_slopes():
    # slopes scaled by 10^-k, k in 0..60, blow w = gamma (A x / s + b) up
    # to 1e120; half the families also carry offsets 10^-15 to 10^-1 apart.
    # Every call certifies on the shifted dual gradient with eps = 1e-12
    rng = np.random.default_rng(26)
    for i in range(2000):
        n, dim = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        rows = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** -int(rng.integers(0, 61))
        offsets = rng.uniform(-1.0, 1.0, n)
        if i % 2:
            offsets = offsets[0] + rng.uniform(-1.0, 1.0, n) * 10.0 ** -int(
                rng.integers(1, 16))
        sigma = rng.uniform(0.25, 2.0)
        mu, x = rng.uniform(0.05, 0.9) / (2.0 * sigma), rng.uniform(-1.0, 1.0, dim)
        fam = SupAffineFamily(rows, offsets, sigma)
        _, c, _ = fam.prox_detailed(mu, x)
        assert c.min() >= 0.0 and abs(c.sum() - 1.0) <= 1e-12
        s = 1.0 - 2.0 * sigma * mu
        lip = mu * fam.gram_norm / s
        gamma = 1.0 / lip if lip >= np.finfo(float).tiny else 1.0
        w = gamma * (rows @ x / s + offsets)
        v = (w - w.max()) - (gamma * mu / s) * (rows @ (rows.T @ c))
        live = c > 0.0
        top = v[live].max()
        assert top - v[live].min() <= 1e-12
        assert v[~live].max(initial=-np.inf) - top <= 1e-12


def test_simplex_kkt_certificate_rejects_small_violations():
    # v is off by 1e-11 > eps = 1e-12: off the support for S = {0}, across
    # it for S = {0, 1}; c = (1 + 1e-13, -1e-13) is off the simplex by
    # 1e-13
    eps = 1e-12

    def certified(c, v, idx):
        # the maxima the active set hands in: max v_S and max v
        return _simplex_kkt_certified(c, v[idx], v[idx].max(), v.max(), eps)

    v = np.array([0.0, 1e-11])
    assert not certified(np.array([1.0, 0.0]), v, np.array([0]))
    assert not certified(np.full(2, 0.5), v, np.arange(2))
    outside = np.array([1.0 + 1e-13, -1e-13])
    assert not certified(outside, np.zeros(2), np.arange(2))
    assert certified(np.full(2, 0.5), np.zeros(2), np.arange(2))
    assert certified(np.array([1.0, 0.0]), np.array([0.0, -2.0]), np.array([0]))


def test_sup_affine_rejects_non_finite_input():
    # a NaN offset surfaced only at the first prox, inside project_simplex;
    # a non-finite prox argument is rejected before the active set steps
    fam = SupAffineFamily(np.eye(3), np.zeros(3), 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="offsets"):
            SupAffineFamily(np.eye(3), np.array([0.0, bad, 1.0]), 1.0)
        with pytest.raises(DomainError, match="finite"):
            fam.prox_detailed(0.2, np.array([0.0, bad, 1.0]))
    with pytest.raises(DomainError, match="scenario count"):
        SupAffineFamily(np.eye(3), np.zeros(2), 1.0)
    # |A|^2 overflows, though every row is finite
    with pytest.raises(DomainError, match="finite"):
        SupAffineFamily(np.array([[1e300], [0.0]]), np.zeros(2), 1.0)
    # x is finite, but A x overflows: rejected without a warning before
    # the active set steps
    big = SupAffineFamily(np.array([[1e150], [0.0]]), np.zeros(2), 1.0)
    with pytest.raises(DomainError, match="finite"):
        big.prox_detailed(0.2, np.array([1e200]))


def test_sup_affine_rejects_a_point_of_the_wrong_shape():
    # x of the wrong length made value, prox and prox_detailed raise numpy's
    # bare matmul ValueError, and a (d, 1) column made prox raise TypeError;
    # each call now names the flat vector of length d it expects, as
    # SupQuadraticFamily does
    fam = SupAffineFamily(np.array([[1.0, 0.5, -1.0], [0.0, 2.0, 0.5]]), np.zeros(2), 1.0)
    calls = (fam.value, lambda x: fam.prox(0.2, x), lambda x: fam.prox_detailed(0.2, x),
             lambda x: fam.prox_and_value(0.2, x))
    for bad in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.zeros((1, 3)), 0.5, []):
        for call in calls:
            with pytest.raises(ContractError, match="expected a flat vector of length 3"):
                call(bad)
    for call in calls:  # a list of the right length is a vector
        call([0.1, -0.2, 0.3])
    # ContractError is a ValueError, so the dimension probe names the mismatch
    with pytest.raises(ContractError, match="disagree on dimension 2: expected a flat"):
        pvs.CompositeProblem(pvs.ZeroSmooth(), fam, pvs.IdentityMap(), pvs.IdentityProjector(),
                             dim=2)


def test_sup_families_need_a_scenario():
    # both built, and every later value or prox raised a bare numpy
    # ValueError (argmax of an empty sequence); the affine builder failed in
    # its dimension probe
    for build in (lambda: SupAffineFamily(np.zeros((0, 2)), np.zeros(0), 1.0),
                  lambda: pvs.build_dro_affine(np.zeros((0, 2)), np.zeros(0), 10.0, 1.0)):
        with pytest.raises(DomainError, match="the scenario count must be an integer in"):
            build()
    for build in (lambda: SupQuadraticFamily(np.zeros((0, 3))),
                  lambda: pvs.build_dro_quadratic(np.zeros((0, 3)), 10.0, 1.0)):
        with pytest.raises(DomainError, match="the number of centers must be an integer in"):
            build()


def test_sup_affine_rejects_an_overflowing_prox_point():
    # w stays finite (A = 0), but y = (x - mu A^T c) / s overflows: a
    # DomainError, not a RuntimeWarning
    fam = SupAffineFamily(np.zeros((2, 1)), np.zeros(2), 1.0)
    with pytest.raises(DomainError, match="prox point"):
        fam.prox(0.25, np.array([1e308]))


def test_sup_affine_mu_domain():
    fam = SupAffineFamily(np.array([[1.0]]), np.zeros(1), 2.0)  # rho = 4
    with pytest.raises(DomainError):
        fam.prox_detailed(0.25, np.array([0.0]))


# ---------------------------------------------------------------------------
# scalar regularizers
# ---------------------------------------------------------------------------

MCP = MCPPenalty(1.0, 2.0)
SCAD = SCADPenalty(1.0, 3.0)


def test_prox_mcp_pieces():
    assert MCP.prox(0.5, 0.3) == 0.0
    assert MCP.prox(0.5, 3.0) == 3.0
    assert abs(MCP.prox(0.5, 1.5) - 4.0 / 3.0) < 1e-12
    assert abs(MCP.prox(0.5, -1.5) + 4.0 / 3.0) < 1e-12
    out = MCP.prox(0.5, np.array([0.3, 3.0, 1.5]))
    assert np.abs(out - np.array([0.0, 3.0, 4.0 / 3.0])).max() < 1e-12


def test_prox_mcp_gamma_domain():
    with pytest.raises(DomainError):
        MCP.prox(2.0, 0.5)
    with pytest.raises(DomainError):
        MCP.prox(-0.1, 0.5)


def test_prox_mcp_matches_scalar_oracle():
    spec = oracles.GridSpec(-4.0, 4.0, 0.01, refine_passes=30)
    for x in (-2.4, -0.9, 0.2, 1.5, 2.7):
        ref = oracles.brute_force_prox(MCP.value, 0.5, np.array([x]), spec)
        assert abs(MCP.prox(0.5, x) - ref[0]) < 1e-8


def test_prox_scad_pieces():
    assert SCAD.prox(0.5, 0.0) == 0.0
    assert SCAD.prox(0.5, 10.0) == 10.0
    assert SCAD.prox(0.5, -10.0) == -10.0
    # soft-threshold region
    assert abs(SCADPenalty(1.0, 3.7).prox(0.3, 1.0) - 0.7) < 1e-12


def test_prox_scad_matches_scalar_oracle():
    spec = oracles.GridSpec(-5.0, 5.0, 0.01, refine_passes=30)
    value = SCAD.prox(0.5, 1.2)
    ref = oracles.brute_force_prox(SCAD.value, 0.5, np.array([1.2]), spec)
    assert abs(value - ref[0]) < 1e-8
    for x in (-3.1, -1.6, 0.4, 2.2, 3.5):
        ref = oracles.brute_force_prox(SCAD.value, 0.5, np.array([x]), spec)
        assert abs(SCAD.prox(0.5, x) - ref[0]) < 1e-8


def _scad_prox_exact(lam, theta, mu, y):
    """SCAD's three-piece prox in exact rational arithmetic."""
    lam, theta, mu, y = Fraction(lam), Fraction(theta), Fraction(mu), Fraction(y)
    t = abs(y)
    if t <= (1 + mu) * lam:
        t = max(t - mu * lam, Fraction(0))
    elif t <= theta * lam:
        t = ((theta - 1) * t - mu * theta * lam) / (theta - 1 - mu)
    return t if y >= 0 else -t


@pytest.mark.parametrize("lam, theta, mu", [(1.0, 3.0, 0.5), (0.7, 3.7, 0.3), (2.3, 2.2, 1.1)])
def test_prox_scad_at_its_piece_boundaries(lam, theta, mu):
    # |y| = mu lam, (1 + mu) lam and theta lam, their negatives and their
    # float neighbours, where the pieces meet
    g = SCADPenalty(lam, theta)
    for edge in (mu * lam, (1.0 + mu) * lam, theta * lam):
        for t in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)):
            for y in (float(t), -float(t)):
                exact = _scad_prox_exact(lam, theta, mu, y)
                assert abs(Fraction(g.prox(mu, y)) - exact) <= 1e-12 * abs(y)


def test_prox_scad_on_any_shape():
    # entrywise, as the other scalar penalties: each entry as its own scalar
    # call, bit for bit, where a (2, 3) input raised IndexError and a (2, 2)
    # one came back with shape (2, 2, 2)
    rng = np.random.default_rng(26)
    for shape in ((), (5,), (2, 2), (2, 3)):
        y = rng.uniform(-4.0, 4.0, shape)
        out = SCAD.prox(0.5, y)
        assert np.shape(out) == shape
        expect = [SCAD.prox(0.5, float(t)) for t in np.ravel(y)]
        assert np.array_equal(np.reshape(out, -1), expect)


def test_prox_scad_domain():
    with pytest.raises(DomainError):
        SCAD.prox(2.5, 1.0)  # gamma >= theta - 1


def test_prox_tukey_fixed_points():
    assert TukeyPenalty(0.7).prox(0.1, 0.7) == 0.7
    assert abs(TukeyPenalty().prox(1e-6, 0.5) - 0.5) < 1e-4


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
    value = TukeyPenalty().prox(mu, x)
    assert abs(value - root) < 1e-10
    assert abs(value - 0.4383154351506258) < 1e-12
    assert abs(slope(value)) <= 1e-12 / mu + 1e-9


def test_prox_tukey_residual_and_domain():
    out = TukeyPenalty(0.3).prox(0.12, 1.1)
    resid = (out - 1.1) / 0.12 + 2.0 * (out - 0.3) / (1.0 + (out - 0.3) ** 2) ** 2
    assert abs(resid) <= 1e-9
    with pytest.raises(DomainError):
        TukeyPenalty().prox(1.0 / 6.0, 0.5)
    with pytest.raises(DomainError):
        TukeyPenalty().prox(0.3, 0.5)
    # a NaN argument never meets the stop test, so the root search ends
    # after its 200 steps
    with pytest.raises(ConvergenceError, match="stalled"):
        TukeyPenalty().prox(0.1, np.array([0.0, np.nan]))


def test_prox_l1_examples():
    l1 = L1Penalty(1.0)
    assert np.array_equal(l1.prox(0.5, np.zeros(2)), np.zeros(2))
    out = l1.prox(0.5, np.array([2.0, -0.2]))
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
    out = L1Penalty(lam).prox(gamma, x)
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
    for g, mu in ((MCP, 0.5), (SCAD, 0.5), (TukeyPenalty(), 0.1), (L1Penalty(1.0), 0.5)):
        vals = np.array([float(np.asarray(g.prox(mu, x))) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)


def test_scalar_regularizer_validation():
    with pytest.raises(TypeError):
        MCPPenalty(1.0)  # theta missing
    with pytest.raises(DomainError):
        MCPPenalty(1.0, 0.0)
    with pytest.raises(DomainError):
        MCPPenalty(0.0, 2.0)
    with pytest.raises(DomainError):
        SCADPenalty(1.0, 2.0)
    with pytest.raises(DomainError):
        SCADPenalty(-1.0, 3.0)
    with pytest.raises(DomainError):
        L1Penalty(0.0)


def test_scalar_regularizer_moduli():
    assert MCPPenalty(1.0, 2.0).rho == 0.5
    assert SCADPenalty(1.0, 3.0).rho == 0.5
    assert TukeyPenalty().rho == 6.0
    assert L1Penalty(1.0).rho == 0.0
    assert L1Penalty(1.0).mu_max == np.inf
    assert TukeyPenalty().mu_max == 1.0 / 6.0


def test_scalar_regularizer_dispatch():
    x = np.array([0.3, 3.0, 1.5, -0.7])
    shifts = np.array([0.0, 1.0, -1.0, 2.0])
    for kind, params, direct, mu in (
        ("mcp", {"lam": 1.0, "theta": 2.0}, MCPPenalty(1.0, 2.0), 0.5),
        ("scad", {"lam": 1.0, "theta": 3.0}, SCADPenalty(1.0, 3.0), 0.5),
        ("tukey", {"shifts": shifts}, TukeyPenalty(shifts), 0.1),
        ("l1", {"lam": 0.8}, L1Penalty(0.8), 0.6),
    ):
        g = ScalarRegularizer(kind, **params)
        assert type(g) is type(direct)
        assert np.array_equal(g.prox(mu, x), direct.prox(mu, x))
        assert g.value(x) == direct.value(x)
    assert L1Penalty(0.8).value(x) == 0.8 * np.abs(x).sum()
    with pytest.raises(DomainError):
        ScalarRegularizer("huber")
    with pytest.raises(TypeError):
        ScalarRegularizer("tukey", lam=1.0)  # Tukey carries no weight


def test_scalar_prox_optimality_sampling():
    rng = np.random.default_rng(17)
    cases = [
        (MCPPenalty(1.0, 2.0), 0.5),
        (SCADPenalty(1.0, 3.0), 0.5),
        (TukeyPenalty(0.2), 0.12),
        (L1Penalty(0.8), 0.6),
    ]
    x = np.array([1.3])
    for reg, mu in cases:
        p = np.asarray(reg.prox(mu, x), dtype=float).reshape(1)

        def objective(y):
            return reg.value(y) + float((y - x) @ (y - x)) / (2 * mu)

        base = objective(p)
        for _ in range(100):
            assert base <= objective(p + rng.normal(0, 0.4, 1)) + 1e-9
