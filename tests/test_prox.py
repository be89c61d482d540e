import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pvsmooth as pvs
from pvsmooth import core, oracles
from pvsmooth import prox as prox_module
from pvsmooth.core import moreau_envelope
from pvsmooth.errors import ConvergenceError, DomainError
from pvsmooth.projections import project_simplex
from pvsmooth.prox import (
    L1Penalty,
    MCPPenalty,
    SCADPenalty,
    ScalarRegularizer,
    SupAffineFamily,
    SupQuadraticFamily,
    TukeyPenalty,
    _simplex_kkt_certified,
    envelope_by_weights,
    prox_sup_affine,
    simplex_support_max,
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


def test_simplex_weights_tiny_mu_put_all_weight_on_the_nearest_block():
    # 1 - 2 mu rounds to 1, so the split condition holds only by definition
    # at the last index: all weight goes to the smallest alpha
    p = solve_simplex_weights(np.array([2.0, 1.0, 3.0]), 1e-17)
    assert np.array_equal(p, [0.0, 1.0, 0.0])
    fam = SupQuadraticFamily(np.eye(3))
    x = np.array([0.9, 0.1, 0.0, 0.0, 0.8, 0.1, 0.0, 0.0, 0.2])
    assert np.array_equal(fam.weights(1e-17, x), [1.0, 0.0, 0.0])
    assert np.abs(fam.prox(1e-17, x) - x).max() <= 1e-15


def test_non_finite_input_to_sup_quadratic_prox_raises_domain_error():
    for alpha in ([np.inf, np.inf], [np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(DomainError, match="finite"):
            solve_simplex_weights(np.array(alpha), 0.1)
    fam = SupQuadraticFamily(np.array([[0.0, 1.0], [2.0, -1.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        # a block at its center pins the weight; the bad block still counts
        for x in (np.array([0.3, bad, 2.0, -1.0]), np.array([0.0, 1.0, bad, 0.5])):
            for call in (fam.prox, fam.prox_and_value, fam.weights):
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


def envelope_sup_identity_check(family, mu, x):
    """(lhs, rhs): the Moreau envelope through the prox, and the same value as
    the weight-space maximum; the envelope of a supremum of concave
    quadratics is the supremum of the weighted envelopes."""
    rhs = envelope_by_weights(family.alphas(x), mu, family.weights(mu, x))
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
    # the top eigenvalue of the dense A A^T, which the family does not keep
    assert abs(fam.gram_norm - np.linalg.eigvalsh(a_rows @ a_rows.T)[-1]) <= 1e-12
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
    fam = _simplex_family(a_rows, rng.uniform(-0.5, 0.5, 3), 0.8, tol=tol)
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
    # a wrapped projector keeps plain FISTA, which converges at 2; the active
    # set on project_simplex certifies this case in one step
    fam = SupAffineFamily(np.array([[2.0], [-2.0]]), np.zeros(2), 1.0,
                          lambda c: project_simplex(c), simplex_support_max,
                          max_iter=1)
    with pytest.raises(ConvergenceError) as exc:
        prox_sup_affine(fam, 0.2, np.array([0.5]))
    err = exc.value
    assert err.iterations == 1
    assert err.residual > 0
    y_best, c_best = err.best
    assert y_best.shape == (1,)
    assert c_best.shape == (2,)


def test_sup_affine_active_set_shares_the_budget():
    # w = 0: the active set starts from {0}, adds scenario 1 and certifies
    # c = (1/2, 1/2) at its second step, which a budget of one step forbids
    fam = _simplex_family(np.array([[2.0], [-2.0]]), np.zeros(2), 1.0)
    y, c, iterations = prox_sup_affine(fam, 0.2, np.zeros(1))
    assert iterations == 2 and np.array_equal(c, [0.5, 0.5])
    fam.max_iter = 1
    with pytest.raises(ConvergenceError) as exc:
        prox_sup_affine(fam, 0.2, np.zeros(1))
    err = exc.value
    assert err.iterations == 1
    y_best, c_best = err.best
    assert y_best.shape == (1,)
    # FISTA got no iteration; the carried projected uniform weights are
    # optimal here, and the residual is their fixed-point residual, not inf
    assert np.array_equal(c_best, [0.5, 0.5])
    assert 0.0 <= err.residual <= fam.tol


def test_sup_affine_budget_and_tolerance_validation():
    rows, offsets = np.array([[2.0], [-2.0]]), np.zeros(2)
    for kw in ({"max_iter": 10.5}, {"max_iter": 0}, {"max_iter": -3},
               {"max_iter": None}, {"tol": np.nan}, {"tol": -1.0},
               {"tol": 0.0}, {"tol": np.inf}):
        with pytest.raises(DomainError):
            _simplex_family(rows, offsets, 1.0, **kw)
    fam = _simplex_family(rows, offsets, 1.0, max_iter=np.int64(7), tol=1e-3)
    assert fam.max_iter == 7 and fam.tol == 1e-3


def _fista_only(fam, tol):
    """The same family behind a wrapped projector, which runs plain FISTA."""
    return SupAffineFamily(fam.a_rows, fam.offsets, fam.sigma,
                           lambda c: project_simplex(c), simplex_support_max,
                           tol=tol)


def _simplex_kkt_residuals(fam, mu, x, c):
    """(|sum c - 1|, spread of v over c > 0, excess of v off it, eps) for the
    gamma-scaled dual gradient v = w - coef A A^T c of prox_sup_affine."""
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
def test_sup_affine_exact_finish_matches_fista_and_meets_kkt(case):
    a_rows, offsets, sigma, mu, x = case
    fam = _simplex_family(a_rows, offsets, sigma)
    y, c, _ = prox_sup_affine(fam, mu, x)
    y_ref, _, _ = prox_sup_affine(_fista_only(fam, 1e-13), mu, x)
    assert np.abs(y - y_ref).max() <= 1e-9
    assert c.min() >= 0.0
    sum_dev, spread, excess, eps = _simplex_kkt_residuals(fam, mu, x, c)
    assert sum_dev <= 1e-12
    assert spread <= eps and excess <= eps


def test_sup_affine_exact_finish_is_stateless():
    rng = np.random.default_rng(22)
    a_rows = rng.uniform(-1.0, 1.0, (10, 3))
    offsets = rng.uniform(-1.0, 1.0, 10)
    inputs = [(rng.uniform(0.05, 0.45), rng.uniform(-s, s, 3))
              for s in (0.1, 0.3, 1.0, 3.0) for _ in range(3)]
    # each input on a fresh family, then on one family after any history:
    # forwards, backwards, and the same input twice in a row
    expected = [prox_sup_affine(_simplex_family(a_rows, offsets, 1.0), mu, x)
                for mu, x in inputs]
    fam = _simplex_family(a_rows, offsets, 1.0)
    order = list(range(len(inputs)))
    for i in order + order[::-1] + [i for i in order for _ in range(2)]:
        y, c, it = prox_sup_affine(fam, *inputs[i])
        y0, c0, it0 = expected[i]
        assert np.array_equal(y, y0) and np.array_equal(c, c0) and it == it0


def test_sup_affine_active_set_steps_near_the_anchors_centre():
    # points near the centre of ten scenarios in R^3 put weight on up to
    # d + 1 = 4 of them; the active set reaches that support in a few
    # steps, where plain FISTA takes 40 iterations per call and up to 160
    rng = np.random.default_rng(20240821)
    steps = []
    for _ in range(40):
        fam = _simplex_family(rng.uniform(-1.0, 1.0, (10, 3)),
                              rng.uniform(-1.0, 1.0, 10), 1.0)
        for _ in range(5):
            mu = rng.uniform(0.05, 0.45)
            steps.append(prox_sup_affine(fam, mu, rng.uniform(-0.3, 0.3, 3))[2])
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
    fam = _simplex_family(np.eye(2), np.array([5.0, 0.0]), 1.0)
    mu, x = 0.2, np.zeros(2)
    y, c, iterations = prox_sup_affine(fam, mu, x)
    assert iterations == 1 and not solves
    assert np.array_equal(c, [1.0, 0.0])
    assert np.array_equal(y, (x - mu * np.array([1.0, 0.0])) / (1.0 - 2.0 * mu))


def test_sup_affine_active_set_solves_only_off_the_vertex(monkeypatch):
    # the seeded direct max-dispersion run: every prox starts at a vertex
    # without a solve, so at most steps - proxes bordered systems are solved
    inst = pvs.MaxDispersionInstance(pvs.random_anchors(3, 10, 47), radius=1.0,
                                     lam=100.0, constraint_matrix=np.ones((1, 3)))
    prob = pvs.build_max_dispersion_direct(inst)
    proxes = []
    prox_detailed = prob.g.prox_detailed

    def counted(mu, x):
        out = prox_detailed(mu, x)
        proxes.append(out[2])
        return out

    monkeypatch.setattr(prob.g, "prox_detailed", counted)
    solves = _counting_solves(monkeypatch)
    cfg = pvs.SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=60, stop_step_norm=0.0)
    pvs.run_pvs(prob, cfg, pvs.subspace_start(prob.subspace, 3))
    assert len(proxes) == 61
    assert sum(proxes) == 106  # the vertex start saves solves, not steps
    assert len(solves) <= sum(proxes) - len(proxes)


def test_sup_affine_active_set_certifies_collinear_scenarios():
    # rows (1.5, -1, 1, 1): once the support outgrows d + 1 = 2 the bordered
    # system is singular; a solve that dropped every negative weight at once
    # lost the added index 2 again and left the answer to FISTA (10
    # iterations), where stepping to the first zero certifies it
    fam = _simplex_family(np.array([[1.5], [-1.0], [1.0], [1.0]]),
                          np.array([-0.5, 0.5, 0.5, -0.75]), 1.0)
    x = np.array([0.5])
    y, c, iterations = prox_sup_affine(fam, 0.4, x)
    assert np.array_equal(c, [0.0, 0.0, 1.0, 0.0])
    assert iterations <= 8  # 2N: the active set's share of the budget
    # seeded collinear draws in R^1 on a half-integer grid, where duplicate
    # and parallel rows are common
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(2, 5))
        rows = rng.integers(-4, 5, (n, 1)) / 2
        offsets = rng.integers(-4, 5, n) / 4
        x = rng.integers(-4, 5, 1) / 2
        mu = float(rng.choice([0.1, 0.2, 0.3, 0.4]))
        fam = _simplex_family(rows, offsets, 1.0)
        y, c, iterations = prox_sup_affine(fam, mu, x)
        assert iterations <= 2 * n and c.min() >= 0.0
        sum_dev, spread, excess, eps = _simplex_kkt_residuals(fam, mu, x, c)
        assert sum_dev <= 1e-12 and spread <= eps and excess <= eps


def test_sup_affine_family_holds_nothing_of_size_n_squared():
    # N = 3000 scenarios in R^2: a dense A A^T would take 72 MB; the family
    # keeps O(N d) arrays, and a prox allocates a small multiple of N d
    n = 3000
    fam = _simplex_family(np.random.default_rng(23).uniform(-1.0, 1.0, (n, 2)),
                          np.zeros(n), 1.0)
    arrays = [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
    assert arrays and max(a.size for a in arrays) <= 2 * n
    tracemalloc.start()
    try:
        prox_sup_affine(fam, 0.2, np.zeros(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n  # bytes: an eighth of one N x N float matrix


def test_sup_affine_active_set_certifies_many_scenarios(monkeypatch):
    # 2000 anchors in R^10, x near their centre: the active set certifies
    # a support of up to d + 1 = 11 scenarios within its 2N steps, checked
    # here against a dense Gram matrix
    anchors = pvs.random_anchors(10, 2000, 47)
    fam = _simplex_family(2.0 * anchors, -(anchors * anchors).sum(axis=1), 1.0)
    certified = []
    certify = prox_module._simplex_kkt_certified

    def recorded(*args):
        certified.append(certify(*args))
        return certified[-1]

    monkeypatch.setattr(prox_module, "_simplex_kkt_certified", recorded)
    rng = np.random.default_rng(24)
    mu, x = 0.4, anchors.mean(axis=0) + rng.uniform(-0.01, 0.01, 10)
    _, c, iterations = prox_sup_affine(fam, mu, x)
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


def test_sup_affine_active_set_falls_back_to_fista():
    # gamma = 1/L scales w to about -1e40, which absorbs m c: c = (1, 0)
    # fails the fixed-point test, and no scenario violates, so the active
    # set gives up after one step and FISTA's answer is the wrapped
    # projector's, bit for bit
    fam = _simplex_family(np.array([[-7.2e-40], [0.0]]),
                          np.array([-7.2e-40, -7.2e-40]), 0.25)
    x = np.zeros(1)
    y, c, iterations = prox_sup_affine(fam, 0.1, x)
    y_ref, c_ref, iterations_ref = prox_sup_affine(_fista_only(fam, fam.tol), 0.1, x)
    assert np.array_equal(y, y_ref) and np.array_equal(c, c_ref)
    assert iterations == iterations_ref + 1


def test_simplex_kkt_certificate_rejects_small_violations():
    # v is off by 1e-11 > eps = 1e-12: off the support for S = {0}, across
    # it for S = {0, 1}; c = (1 + 1e-13, -1e-13) is off the simplex by
    # 1e-13; each passes the 1e-10 fixed-point test alone
    eps, tol = 1e-12, 1e-10
    v = np.array([0.0, 1e-11])
    assert not _simplex_kkt_certified(np.array([1.0, 0.0]), v, np.array([0]), eps, tol)
    assert not _simplex_kkt_certified(np.full(2, 0.5), v, np.arange(2), eps, tol)
    outside = np.array([1.0 + 1e-13, -1e-13])
    assert not _simplex_kkt_certified(outside, np.zeros(2), np.arange(2), eps, tol)
    assert _simplex_kkt_certified(np.full(2, 0.5), np.zeros(2), np.arange(2), eps, tol)
    assert _simplex_kkt_certified(np.array([1.0, 0.0]), np.array([0.0, -2.0]),
                                  np.array([0]), eps, tol)


def test_sup_affine_rejects_non_finite_input():
    # a NaN offset surfaced only at the first prox, inside project_simplex;
    # a non-finite prox argument is rejected before the active set steps
    fam = _simplex_family(np.eye(3), np.zeros(3), 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="offsets"):
            _simplex_family(np.eye(3), np.array([0.0, bad, 1.0]), 1.0)
        with pytest.raises(DomainError, match="finite"):
            prox_sup_affine(fam, 0.2, np.array([0.0, bad, 1.0]))
    # |A|^2 overflows, though every row is finite
    with pytest.raises(DomainError, match="finite"):
        _simplex_family(np.array([[1e300], [0.0]]), np.zeros(2), 1.0)
    # x is finite, but A x overflows: rejected without a warning before
    # either path, the active set or FISTA behind a box projector
    rows, x = np.array([[1e150], [0.0]]), np.array([1e200])
    box = SupAffineFamily(rows, np.zeros(2), 1.0, lambda c: np.clip(c, 0.0, 1.0),
                          support_max=lambda v: float(np.maximum(v, 0.0).sum()))
    for big in (_simplex_family(rows, np.zeros(2), 1.0), box):
        with pytest.raises(DomainError, match="finite"):
            prox_sup_affine(big, 0.2, x)


def test_sup_affine_rejects_an_overflowing_prox_point():
    # w stays finite (A = 0), but y = (x - mu A^T c) / s overflows: a
    # DomainError from both the active set and FISTA, not a RuntimeWarning
    rows, x = np.zeros((2, 1)), np.array([1e308])
    box = SupAffineFamily(rows, np.zeros(2), 1.0, lambda c: np.clip(c, 0.0, 1.0),
                          support_max=lambda v: float(np.maximum(v, 0.0).sum()))
    for fam in (_simplex_family(rows, np.zeros(2), 1.0), box):
        with pytest.raises(DomainError, match="prox point"):
            fam.prox(0.25, x)


def test_sup_affine_mu_domain():
    fam = _simplex_family(np.array([[1.0]]), np.zeros(1), 2.0)  # rho = 4
    with pytest.raises(DomainError):
        prox_sup_affine(fam, 0.25, np.array([0.0]))


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
