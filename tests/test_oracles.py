import numpy as np
import pytest

from pvsmooth import oracles, prox, problems
from pvsmooth.errors import CapabilityError, DomainError


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        oracles.GridSpec(1.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        oracles.GridSpec(0.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        oracles.GridSpec(0.0, 1.0, 5.0)
    # a string end raised TypeError, and an infinite one built a grid that
    # brute_force_prox could not lay out
    for lower, upper, step in (("0", 1, 0.1), (0, "1", 0.1), (0, 1, "0.1"),
                               (-np.inf, 1.0, 0.1), (0.0, np.inf, 0.1), (np.nan, 1.0, 0.1),
                               (0.0, np.nan, 0.1), (0.0, 1.0, np.nan), (0.0, 1.0, 0.0),
                               (-10**400, 1.0, 0.1), (None, 1.0, 0.1), (0.0, True, 0.1)):
        with pytest.raises(DomainError, match="(lower|upper|step) must be a finite number"):
            oracles.GridSpec(lower, upper, step)
    # a negative count skipped every pass, and 2.7 was truncated to 2
    for passes in (-3, -1, 2.7, np.nan, np.inf, True, "2"):
        with pytest.raises(DomainError, match="refine_passes must be an integer"):
            oracles.GridSpec(-1, 1, 0.1, refine_passes=passes)
    assert oracles.GridSpec(-1, 1, 0.1, refine_passes=0).refine_passes == 0


def test_brute_force_prox_zero_function():
    grid = oracles.GridSpec(-3.0, 3.0, 0.1)
    x = np.array([0.37, -1.21])
    out = oracles.brute_force_prox(lambda y: 0.0, 0.5, x, grid,
                                   batch_value=lambda pts: np.zeros(len(pts)))
    assert np.abs(out - x).max() < 1e-3


def test_brute_force_prox_quadratic():
    # g = 0.5 |y|^2, mu = 1: prox(x) = x / 2
    grid = oracles.GridSpec(-3.0, 3.0, 0.05)
    out = oracles.brute_force_prox(None, 1.0, np.array([2.0, 0.0]), grid,
                                   batch_value=lambda pts: 0.5 * (pts ** 2).sum(axis=1))
    assert np.abs(out - np.array([1.0, 0.0])).max() < 1e-3


def test_brute_force_prox_sup_quadratic_example():
    # three scalar blocks, centers at 0: minimizer is (2, 4/3, 4/3)
    centers = np.zeros((3, 1))
    fam = prox.SupQuadraticFamily(centers)

    def bv(pts):
        return -np.min((pts.reshape(-1, 3, 1) - centers[None]) ** 2, axis=1).sum(axis=1)

    out = oracles.brute_force_prox(fam.value, 0.25, np.array([2.0, 1.0, 1.0]),
                                   oracles.GridSpec(-3.0, 3.0, 0.05), batch_value=bv)
    assert np.abs(out - np.array([2.0, 4.0 / 3.0, 4.0 / 3.0])).max() < 2e-3


def test_brute_force_prox_step_self_consistency():
    centers = np.zeros((3, 1))
    fam = prox.SupQuadraticFamily(centers)

    def bv(pts):
        return -np.min((pts.reshape(-1, 3, 1) - centers[None]) ** 2, axis=1).sum(axis=1)

    x = np.array([2.0, 1.0, 1.0])
    coarse = oracles.brute_force_prox(fam.value, 0.25, x, oracles.GridSpec(-3, 3, 0.1), batch_value=bv)
    fine = oracles.brute_force_prox(fam.value, 0.25, x, oracles.GridSpec(-3, 3, 0.05), batch_value=bv)
    assert np.abs(coarse - fine).max() < 5 * 0.05


def test_brute_force_prox_dimension_cap():
    with pytest.raises(CapabilityError):
        oracles.brute_force_prox(lambda y: 0.0, 0.5, np.zeros(4),
                                 oracles.GridSpec(-1, 1, 0.1))


def test_fd_gradient_linear_and_quadratic():
    a = np.array([1.5, -2.0, 0.25])
    g_lin = oracles.fd_gradient(lambda x: float(a @ x), np.array([0.3, 0.1, -0.7]))
    assert np.abs(g_lin - a).max() < 1e-10

    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    x0 = np.array([0.4, -1.2])
    g_quad = oracles.fd_gradient(lambda x: float(x @ Q @ x), x0)
    assert np.abs(g_quad - 2 * Q @ x0).max() < 1e-8


def test_fd_gradient_rejects_a_bad_step():
    # h = 0 raised ZeroDivisionError, and a NaN or infinite h returned a
    # gradient of NaNs; a step must be a finite number above 0
    for bad in (0.0, -1e-6, np.nan, np.inf, "1e-6", True, None):
        with pytest.raises(DomainError, match="h must be"):
            oracles.fd_gradient(lambda x: float(x @ x), np.ones(2), h=bad)
    assert np.array_equal(oracles.fd_gradient(lambda x: float(x @ x), [1, 2], h=0.5),
                          [2.0, 4.0])


def test_simplex_scan_max_linear_hits_vertex():
    c = np.array([0.2, 1.3, -0.4])
    p, val = oracles.simplex_scan_max(lambda pts: pts @ c, 3, resolution=0.05)
    assert np.abs(p - np.array([0.0, 1.0, 0.0])).max() < 1e-6
    assert abs(val - 1.3) < 1e-6


def test_simplex_scan_max_symmetric_is_uniform():
    # strictly concave symmetric objective peaks at the uniform weights
    p, _ = oracles.simplex_scan_max(lambda pts: -(pts ** 2).sum(axis=1), 3, resolution=0.04)
    assert np.abs(p - 1.0 / 3.0).max() < 1e-4


def test_simplex_scan_max_matches_closed_form_weights():
    alpha = np.array([4.0, 1.0, 1.0])
    mu = 0.25
    p, _ = oracles.simplex_scan_max(
        lambda pts: prox.envelope_by_weights(alpha, mu, pts), 3, resolution=0.04)
    assert np.abs(p - np.array([0.0, 0.5, 0.5])).max() < 1e-3


def test_simplex_scan_max_size_cap():
    with pytest.raises(CapabilityError):
        oracles.simplex_scan_max(lambda pts: pts.sum(axis=1), 5, resolution=0.25)


def test_barycentric_grids_in_meshgrid_order():
    # every grid comes from one construction; these two sizes had
    # branches of their own
    assert np.array_equal(oracles._barycentric_grid(2, 2), [[0, 1], [0.5, 0.5], [1, 0]])
    expect = np.array([[0, 0, 0, 2], [0, 0, 1, 1], [0, 0, 2, 0], [0, 1, 0, 1], [0, 1, 1, 0],
                       [0, 2, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0], [1, 1, 0, 0],
                       [2, 0, 0, 0]]) / 2.0
    assert np.array_equal(oracles._barycentric_grid(4, 2), expect)
    assert np.array_equal(oracles._barycentric_grid(1, 3), [[1.0]])
    # a flat objective keeps the first grid point, the last vertex
    for n in (1, 2, 3, 4):
        p, _ = oracles.simplex_scan_max(lambda pts: np.zeros(len(pts)), n, resolution=0.5)
        assert np.array_equal(p, np.eye(n)[-1])


def test_simplex_scan_max_domain():
    for resolution in (0.0, -0.5, 1.5, np.nan):
        with pytest.raises(DomainError, match="resolution"):
            oracles.simplex_scan_max(lambda pts: pts.sum(axis=1), 3, resolution)
    # n = 0 scanned the 4-weight grid, and n = -1 failed inside numpy
    for n in (0, -1, 2.5):
        with pytest.raises(DomainError, match="n must be an integer"):
            oracles.simplex_scan_max(lambda pts: pts.sum(axis=1), n, 0.5)


def test_affine_scan_prox_needs_two_rows():
    with pytest.raises(CapabilityError):
        oracles.affine_scan_prox(np.ones((3, 2)), np.zeros(3), 1.0, 0.2, np.zeros(2))


def test_affine_scan_prox_identical_scenarios():
    # both rows equal: any weight gives the same y = (x - mu a) / (1 - 2 sigma mu)
    a = np.array([[0.8, -0.4], [0.8, -0.4]])
    b = np.array([0.3, 0.3])
    x = np.array([0.1, 0.9])
    sigma, mu = 1.0, 0.2
    y, t, _ = oracles.affine_scan_prox(a, b, sigma, mu, x)
    expected = (x - mu * a[0]) / (1 - 2 * sigma * mu)
    assert np.abs(y - expected).max() < 1e-8


def test_reference_lasso_zero_reg_matches_least_squares():
    design, target = problems.random_lasso_data(4, 7, 3)
    x_ls, *_ = np.linalg.lstsq(design, target, rcond=None)
    x_ref, f_ref = oracles.reference_constrained_lasso(design, target, 0.0,
                                                       total_iters=60_000)
    assert np.abs(x_ref - x_ls).max() < 1e-8
    assert abs(f_ref - float(((design @ x_ls - target) ** 2).sum())) < 1e-10


def test_reference_lasso_constrained_zero_reg():
    # with a kernel constraint and no regularizer this is least squares
    # restricted to ker(R); solve directly in a null-space basis to compare
    design, target = problems.random_lasso_data(5, 8, 4)
    R = np.random.default_rng(9).standard_normal((2, 5))
    _, _, vt = np.linalg.svd(R)
    basis = vt[2:].T
    z, *_ = np.linalg.lstsq(design @ basis, target, rcond=None)
    x_direct = basis @ z
    x_ref, _ = oracles.reference_constrained_lasso(design, target, 0.0, R,
                                                   total_iters=120_000)
    assert np.abs(x_ref - x_direct).max() < 1e-7


def test_random_search_dispersion_unit_ball():
    # single anchor at the origin: the best feasible value is -r^2
    best, val = oracles.random_search_dispersion(
        np.zeros((1, 3)), 1.0, 100.0, np.array([[1.0, 1.0, 1.0]]),
        samples=20_000, seed=5)
    assert abs(val - (-1.0)) < 5e-3
    assert abs(np.linalg.norm(best) - 1.0) < 5e-3
    assert abs(best.sum()) < 1e-10  # stays in ker R


def test_random_search_dispersion_deterministic():
    anchors = problems.random_anchors(3, 4, 0)
    a1 = oracles.random_search_dispersion(anchors, 1.0, 10.0, None, samples=500, seed=7)
    a2 = oracles.random_search_dispersion(anchors, 1.0, 10.0, None, samples=500, seed=7)
    assert np.array_equal(a1[0], a2[0]) and a1[1] == a2[1]


def test_random_search_dispersion_on_a_zero_subspace():
    # R of full column rank: ker R = {0}, the only point, is returned
    anchors = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    x, val = oracles.random_search_dispersion(anchors, 1.0, 10.0, np.eye(3),
                                              samples=10, seed=0)
    assert np.array_equal(x, np.zeros(3)) and val == -1.0
