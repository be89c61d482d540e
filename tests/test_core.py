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
    smoothed_objective_grad,
)
from pvsmooth.errors import ContractError, DomainError
from pvsmooth.projections import KernelProjector


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


def test_smoothed_objective_grad_reductions():
    h = squared_norm_smooth()
    problem = CompositeProblem(h, ZeroFunction(), IdentityMap(), IdentityProjector(), dim=2)
    x = np.array([0.3, -0.4])
    val, grad = smoothed_objective_grad(problem, 0.2, x)
    assert abs(val - h.value(x)) < 1e-12
    assert np.abs(grad - h.grad(x)).max() < 1e-12

    fam = prox.SupQuadraticFamily(np.array([[0.2], [0.9]]))
    problem2 = CompositeProblem(ZeroSmooth(), fam, IdentityMap(), IdentityProjector(), dim=2)
    val2, grad2 = smoothed_objective_grad(problem2, 0.2, x)
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
        val, grad = smoothed_objective_grad(problem, 0.3, x)
        fd = oracles.fd_gradient(lambda y: smoothed_objective_grad(problem, 0.3, y)[0], x)
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
        _, gx = smoothed_objective_grad(problem, mu, x)
        _, gy = smoothed_objective_grad(problem, mu, y)
        assert np.linalg.norm(gx - gy) <= lip * np.linalg.norm(x - y) + 1e-9


def test_callable_prox_wraps_closures():
    g = CallableProx(lambda y: float(np.abs(y).sum()),
                     lambda mu, y: np.sign(y) * np.maximum(np.abs(y) - mu, 0.0),
                     rho=0.0, lipschitz=np.sqrt(2.0))
    out = g.prox(0.5, np.array([2.0, -0.2]))
    assert np.abs(out - np.array([1.5, 0.0])).max() < 1e-12
    assert g.mu_max == np.inf
