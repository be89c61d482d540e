import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pvsmooth import core, oracles, prox
from pvsmooth.core import (
    CallableProx,
    CallableSmooth,
    CompositeProblem,
    IdentityMap,
    IdentityProjector,
    MatrixMap,
    ScaledSquaredNorm,
    ZeroFunction,
    ZeroSmooth,
    matrix_norm_bound,
    moreau_envelope,
    moreau_gradient,
)
from pvsmooth.errors import ContractError, DomainError
from pvsmooth.problems import QuadraticLoss, random_lasso_data
from pvsmooth.projections import KernelProjector, project_simplex


def test_matrix_norm_bound_known_matrices():
    # diagonal matrix: true norm 3; power iteration bound within [3, 3*1.02]
    d = np.diag([3.0, 1.0, 0.5])
    b = matrix_norm_bound(d)
    assert 3.0 <= b <= 3.0 * 1.02
    assert matrix_norm_bound(np.zeros((2, 3))) == 0.0


def test_matrix_norm_bound_start_orthogonal_to_top_vector():
    # power iteration from the fixed seeded start settles on the second
    # singular value (it returned 1.01 here); the exact certificate gives 2
    start = np.random.default_rng(core._POWER_SEED).standard_normal(5)
    basis = np.random.default_rng(3).standard_normal((5, 5))
    basis[:, 0] -= (basis[:, 0] @ start) / (start @ start) * start
    v_mat, _ = np.linalg.qr(basis)
    a = np.diag([2.0, 1.0, 0.5, 0.25, 0.1]) @ v_mat.T
    for mat in (a, a.T, a[:2], a[:, :3] @ np.eye(3, 4)):
        norm = np.linalg.norm(mat, 2)
        assert norm * (1.0 - 1e-12) <= matrix_norm_bound(mat) <= 1.01 * norm * (1.0 + 1e-12)
    assert matrix_norm_bound(a) >= 2.0


@st.composite
def _norm_cases(draw):
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    mat = draw(hnp.arrays(float, shape, elements=entries))
    if draw(st.booleans()):  # repeat a row: rank deficiency
        mat[-1] = mat[0]
    return np.ldexp(mat, draw(st.integers(-400, 400)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_norm_cases())
def test_matrix_norm_bound_brackets_the_norm(mat):
    norm = np.linalg.norm(mat, 2)
    bound = matrix_norm_bound(mat)
    assert norm * (1.0 - 1e-12) <= bound <= 1.01 * norm * (1.0 + 1e-12)


def _matvec_norm_bound(mat):
    """matrix_norm_bound as power iteration by matvecs with ``mat`` and
    ``mat.T``, maxed with spectral_norm: the reference the Gram-matrix
    iteration must reproduce to roundoff."""
    mat, exp = core._scaled_to_safe_range(mat)
    if not mat.any():
        return 0.0
    rng = np.random.default_rng(core._POWER_SEED)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    av = mat @ v
    lam = 0.0
    for _ in range(core._POWER_ITERS):
        w = mat.T @ av
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
        av = mat @ v
        lam_next = float(av @ av)
        converged = abs(lam_next - lam) <= core._POWER_TOL * max(1.0, abs(lam_next))
        lam = lam_next
        if converged:
            break
    estimate = np.sqrt(max(lam, 0.0)) * core._POWER_INFLATE
    return float(np.ldexp(max(estimate, core.spectral_norm(mat)), exp))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_norm_cases())
def test_matrix_norm_bound_matches_the_matvec_iteration(mat):
    ref = _matvec_norm_bound(mat)
    assert abs(matrix_norm_bound(mat) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("variant", [0, 11])
def test_matrix_norm_bound_on_lasso_designs(variant):
    # the benchmark's 500 x 2000 designs, where 100 power steps stop below
    # the norm and the inflated estimate, not the certificate, is returned
    design, _ = random_lasso_data(2000, 500, variant)
    ref = _matvec_norm_bound(design)
    assert ref > core.spectral_norm(design)
    assert abs(matrix_norm_bound(design) - ref) <= 1e-14 * ref


def test_matrix_norm_bound_row_orthogonal_to_the_start():
    # a row orthogonal to the seeded start up to the roundoff of A v (about
    # 1e-17 here), and its transpose, whose start in R^1 is never
    # orthogonal: the leftover roundoff points along the row, so one power
    # step finds the norm, as the matvec iteration does
    start = np.random.default_rng(core._POWER_SEED).standard_normal(6)
    start /= np.linalg.norm(start)
    row = np.zeros((1, 6))
    row[0, 1], row[0, 4] = start[4], -start[1]
    assert abs(float((row @ start)[0])) <= 1e-15
    norm = float(np.linalg.norm(row))
    for mat in (row, row.T):
        bound = matrix_norm_bound(mat)
        assert norm * (1.0 - 1e-15) <= bound <= 1.01 * norm * (1.0 + 1e-12)
        assert abs(bound - _matvec_norm_bound(mat)) <= 1e-15 * norm


class _FirstAxisStart:
    """Stands in for the seeded generator: the power start becomes e_0."""

    def __init__(self, seed):
        pass

    def standard_normal(self, n):
        start = np.zeros(n)
        start[0] = 1.0
        return start


def test_matrix_norm_bound_start_in_the_null_space(monkeypatch):
    # with the start e_0, A e_0 = 0 exactly when column 0 of A is zero and
    # A^T e_0 = 0 when row 0 is: both the wide loop (u = A v = 0) and the
    # tall one (G v = 0) end at once, and the exact norm 5 comes back, not
    # 1.01 times a smaller singular value
    monkeypatch.setattr(np.random, "default_rng", _FirstAxisStart)
    mat = np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 4.0]])
    for m in (mat, mat.T):
        assert matrix_norm_bound(m) == core.spectral_norm(m) == _matvec_norm_bound(m)
        assert abs(matrix_norm_bound(m) - 5.0) <= 1e-15 * 5.0


@pytest.mark.parametrize("mat", [
    np.random.default_rng(5).standard_normal((4, 7)),
    np.random.default_rng(6).standard_normal((7, 4)),
    np.random.default_rng(7).standard_normal((5, 5)),
    np.ldexp(np.random.default_rng(8).standard_normal((2, 3)), 600),
])
def test_spectral_norm_is_the_smaller_gram_eigenvalue(mat):
    # bit for bit: spectral_norm sets SupAffineFamily.gram_norm, and so the
    # dual step sizes of the dispersion runs
    exp = int(np.frexp(np.abs(mat).max())[1])  # scaled only outside 2^(+-200)
    exp = exp if abs(exp) > 200 else 0
    scaled = np.ldexp(mat, -exp)
    gram = scaled @ scaled.T if mat.shape[0] <= mat.shape[1] else scaled.T @ scaled
    expected = np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[-1]), exp)
    assert core.spectral_norm(mat) == expected


def test_moreau_envelope_zero_function():
    assert moreau_envelope(ZeroFunction(), 0.5, np.array([1.0, -2.0])) == 0.0
    assert np.all(moreau_gradient(ZeroFunction(), 0.5, np.array([1.0, -2.0])) == 0.0)


def test_moreau_envelope_quadratic():
    g = ScaledSquaredNorm(0.5)  # 0.5 |y|^2
    x = np.array([2.0, 0.0])
    assert abs(moreau_envelope(g, 1.0, x) - 1.0) < 1e-12
    assert np.abs(moreau_gradient(g, 1.0, x) - np.array([1.0, 0.0])).max() < 1e-12


def test_moreau_envelope_sup_quadratic_example():
    fam = prox.SupQuadraticFamily(np.zeros((3, 1)))
    x = np.array([2.0, 1.0, 1.0])
    val = moreau_envelope(fam, 0.25, x)
    assert abs(val - (-4.0 / 3.0)) < 1e-12

    # independent grid confirmation
    def bv(pts):
        return -np.min(pts.reshape(-1, 3, 1) ** 2, axis=1).sum(axis=1)

    p_bf = oracles.brute_force_prox(fam.value, 0.25, x,
                                    oracles.GridSpec(-3, 3, 0.05), batch_value=bv)
    env_bf = fam.value(p_bf) + float((p_bf - x) @ (p_bf - x)) / 0.5
    assert abs(val - env_bf) < 2e-3


def test_moreau_gradient_matches_finite_differences():
    fam = prox.SupQuadraticFamily(np.array([[0.5], [-0.25]]))
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = rng.uniform(0.05, 0.4)
        x = rng.uniform(-1.5, 1.5, 2)
        g = moreau_gradient(fam, mu, x)
        fd = oracles.fd_gradient(lambda y: moreau_envelope(fam, mu, y), x)
        denom = max(1.0, float(np.linalg.norm(g)))
        assert np.linalg.norm(g - fd) / denom < 1e-4


def test_envelope_minorizes_and_is_monotone_in_mu():
    fam = prox.SupQuadraticFamily(np.array([[1.0], [-1.0]]))
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        e1 = moreau_envelope(fam, 0.1, x)
        e2 = moreau_envelope(fam, 0.3, x)
        assert e1 <= fam.value(x) + 1e-12
        assert e2 <= e1 + 1e-12


def test_moreau_gradient_lipschitz_bound():
    # bound max(1/mu, rho/(1 - rho mu)) on sampled pairs
    fam = prox.SupQuadraticFamily(np.array([[0.3], [-0.8]]))
    mu = 0.2
    bound = max(1.0 / mu, fam.rho / (1.0 - fam.rho * mu))
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, (2, 2))
        gx = moreau_gradient(fam, mu, x)
        gy = moreau_gradient(fam, mu, y)
        assert np.linalg.norm(gx - gy) <= bound * np.linalg.norm(x - y) + 1e-9


def test_prox_mu_domain_checks():
    fam = prox.SupQuadraticFamily(np.zeros((2, 1)))  # rho = 2, mu_max = 1/2
    with pytest.raises(DomainError):
        fam.prox(0.5, np.ones(2))
    with pytest.raises(DomainError):
        fam.prox(-0.1, np.ones(2))
    assert ZeroFunction().mu_max == np.inf


def test_convex_prox_nonexpansive():
    g = ScaledSquaredNorm(1.3)
    rng = np.random.default_rng(5)
    for _ in range(30):
        x, y = rng.uniform(-3, 3, (2, 4))
        px, py = g.prox(0.7, x), g.prox(0.7, y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_prox_optimality_by_sampling():
    fam = prox.SupQuadraticFamily(np.array([[0.5, -0.5]]))
    mu = 0.25
    rng = np.random.default_rng(6)
    x = np.array([1.0, -0.4])
    p = fam.prox(mu, x)
    def objective(y):
        return fam.value(y) + float((y - x) @ (y - x)) / (2 * mu)

    base = objective(p)
    for _ in range(100):
        y = p + rng.normal(0, 0.5, 2)
        assert base <= objective(y) + 1e-9


def test_linear_map_adjoint_and_norm():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((3, 5))
    amap = MatrixMap(mat)
    for _ in range(20):
        x = rng.standard_normal(5)
        y = rng.standard_normal(3)
        lhs = float(amap.apply(x) @ y)
        rhs = float(x @ amap.adjoint(y))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert np.linalg.norm(amap.apply(x)) <= amap.norm_bound * np.linalg.norm(x) + 1e-12


def test_matrix_map_rejects_zero():
    with pytest.raises(DomainError):
        MatrixMap(np.zeros((2, 2)))


_NON_FINITE_BUILDS = {
    "MatrixMap": MatrixMap,
    "QuadraticLoss": lambda mat: QuadraticLoss(mat, np.ones(mat.shape[0])),
    "SupAffineFamily": lambda mat: prox.SupAffineFamily(
        mat, np.zeros(mat.shape[0]), 1.0, project_simplex, prox.simplex_support_max),
    "KernelProjector": KernelProjector,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", sorted(_NON_FINITE_BUILDS))
def test_non_finite_matrices_are_rejected(build, bad):
    # one row (where MatrixMap took NaN as its norm bound and
    # KernelProjector an inf as an empty basis) and a 5 x 3 matrix (where
    # eigvalsh or the SVD raised a bare LinAlgError)
    row = np.array([[1.0, bad, 1.0]])
    mat = np.random.default_rng(9).standard_normal((5, 3))
    mat[2, 1] = bad
    for m in (row, mat):
        with pytest.raises(DomainError):
            _NON_FINITE_BUILDS[build](m)


def test_identity_map_roundtrip():
    amap = IdentityMap()
    x = np.array([1.0, 2.0])
    assert np.array_equal(amap.apply(x), x)
    assert np.array_equal(amap.adjoint(x), x)
    assert amap.norm_bound == 1.0


def test_subspace_projector_axioms():
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, y = rng.standard_normal((2, 3))
        px = proj.apply(x)
        assert np.abs(proj.apply(px) - px).max() < 1e-12
        assert abs(px @ y - x @ proj.apply(y)) < 1e-12
        a, b = rng.standard_normal(2)
        lin = proj.apply(a * x + b * y)
        assert np.abs(lin - (a * px + b * proj.apply(y))).max() < 1e-12


def squared_norm_smooth():
    return CallableSmooth(lambda x: float(x @ x), lambda x: 2.0 * x, 2.0)


def test_composite_problem_objective_and_dim_check():
    h = squared_norm_smooth()
    g = prox.SupQuadraticFamily(np.zeros((2, 1)))
    problem = CompositeProblem(h, g, IdentityMap(), IdentityProjector(), dim=2)
    x = np.array([1.0, 2.0])
    assert abs(problem.objective(x) - (h.value(x) + g.value(x))) < 1e-12

    with pytest.raises(ContractError):
        CompositeProblem(h, g, MatrixMap(np.eye(3)), IdentityProjector(), dim=2)
    # g of the wrong size, probed through its value
    affine = prox.SupAffineFamily(np.eye(2), np.zeros(2), 1.0, project_simplex,
                                  prox.simplex_support_max)
    for wrong in (g, affine):
        with pytest.raises(ContractError):
            CompositeProblem(h, wrong, IdentityMap(), IdentityProjector(), dim=3)


def test_smoothed_objective_grad_reductions():
    h = squared_norm_smooth()
    problem = CompositeProblem(h, ZeroFunction(), IdentityMap(), IdentityProjector(), dim=2)
    x = np.array([0.3, -0.4])
    val, grad = problem.smoothed_parts(0.2, x)[:2]
    assert abs(val - h.value(x)) < 1e-12
    assert np.abs(grad - h.grad(x)).max() < 1e-12

    fam = prox.SupQuadraticFamily(np.array([[0.2], [0.9]]))
    problem2 = CompositeProblem(ZeroSmooth(), fam, IdentityMap(), IdentityProjector(), dim=2)
    val2, grad2 = problem2.smoothed_parts(0.2, x)[:2]
    assert abs(val2 - moreau_envelope(fam, 0.2, x)) < 1e-12
    assert np.abs(grad2 - moreau_gradient(fam, 0.2, x)).max() < 1e-12


def test_smoothed_gradient_finite_differences_through_map():
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((3, 4))
    fam = prox.SupQuadraticFamily(rng.uniform(-1, 1, (3, 1)))
    problem = CompositeProblem(squared_norm_smooth(), fam, MatrixMap(mat),
                               IdentityProjector(), dim=4)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 4)
        val, grad = problem.smoothed_parts(0.3, x)[:2]
        fd = oracles.fd_gradient(lambda y: problem.smoothed_parts(0.3, y)[0], x)
        assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad)) < 1e-4


def test_smoothed_gradient_lipschitz_constant():
    # |grad F(x) - grad F(y)| <= (L_h + |A|^2 / mu) |x - y| on sampled pairs
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((2, 3))
    fam = prox.SupQuadraticFamily(rng.uniform(-1, 1, (2, 1)))
    h = squared_norm_smooth()
    amap = MatrixMap(mat)
    problem = CompositeProblem(h, fam, amap, IdentityProjector(), dim=3)
    mu = 0.2
    lip = h.lip_grad + amap.norm_bound ** 2 / mu
    for _ in range(40):
        x, y = rng.uniform(-1, 1, (2, 3))
        _, gx = problem.smoothed_parts(mu, x)[:2]
        _, gy = problem.smoothed_parts(mu, y)[:2]
        assert np.linalg.norm(gx - gy) <= lip * np.linalg.norm(x - y) + 1e-9


def test_callable_prox_wraps_closures():
    g = CallableProx(lambda y: float(np.abs(y).sum()),
                     lambda mu, y: np.sign(y) * np.maximum(np.abs(y) - mu, 0.0),
                     rho=0.0, lipschitz=np.sqrt(2.0))
    out = g.prox(0.5, np.array([2.0, -0.2]))
    assert np.abs(out - np.array([1.5, 0.0])).max() < 1e-12
    assert g.mu_max == np.inf
