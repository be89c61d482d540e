import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pvsmooth as pvs
from pvsmooth import core, oracles, prox
from pvsmooth.core import (
    CallableProx,
    CallableSmooth,
    CompositeProblem,
    IdentityMap,
    IdentityProjector,
    MatrixMap,
    ZeroFunction,
    ZeroSmooth,
    matrix_norm_bound,
    moreau_envelope,
    moreau_gradient,
)
from pvsmooth.errors import ContractError, DomainError
from pvsmooth.penalty import BallPenalty, PenaltySchedule
from pvsmooth.problems import (
    MaxDispersionInstance,
    QuadraticLoss,
    build_dro_quadratic,
    build_max_dispersion_direct,
    build_max_dispersion_product,
    random_lasso_data,
)
from pvsmooth.projections import BallSpec, KernelProjector
from pvsmooth.solver import SolverConfig


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
    # a and a[:2] keep the start orthogonal to their top right singular
    # vector, so the Cholesky certificate fails and the eigensolve fallback
    # returns the exact norm, bit for bit
    for mat in (a, a[:2]):
        assert matrix_norm_bound(mat) == core.spectral_norm(mat)


@st.composite
def _norm_cases(draw):
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    mat = draw(hnp.arrays(float, shape, elements=entries))
    if draw(st.booleans()):  # repeat a row: rank deficiency
        mat[-1] = mat[0]
    return np.ldexp(mat, draw(st.integers(-400, 400)))


def _eigvalsh_norm_bound(mat):
    """matrix_norm_bound with the certificate it had before the Cholesky
    test: the power estimate on the Gram matrix, maxed with the square root
    of its top ``eigvalsh`` eigenvalue.  The Cholesky test must return the
    same float."""
    mat, exp, peak = core._scaled_to_safe_range(mat)
    if peak == 0.0:
        return 0.0
    gram, wide = core._small_gram(mat)
    rng = np.random.default_rng(core._POWER_SEED)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    u = mat @ v if wide else v
    gu = gram @ u
    lam = 0.0
    for _ in range(core._POWER_ITERS):
        sq = float(u @ gu) if wide else float(gu @ gu)
        if sq <= 0.0:
            break
        u = gu / np.sqrt(sq)
        gu = gram @ u
        lam_next = float(u @ u) if wide else float(u @ gu)
        converged = abs(lam_next - lam) <= core._POWER_TOL * max(1.0, abs(lam_next))
        lam = lam_next
        if converged:
            break
    estimate = np.sqrt(max(lam, 0.0)) * core._POWER_INFLATE
    top = np.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    return float(np.ldexp(max(estimate, top), exp))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_norm_cases())
def test_matrix_norm_bound_brackets_the_norm(mat):
    norm = np.linalg.norm(mat, 2)
    bound = matrix_norm_bound(mat)
    assert norm * (1.0 - 1e-12) <= bound <= 1.01 * norm * (1.0 + 1e-12)
    assert bound == _eigvalsh_norm_bound(mat)


def _matvec_norm_bound(mat):
    """matrix_norm_bound as power iteration by matvecs with ``mat`` and
    ``mat.T``, maxed with spectral_norm: the reference the Gram-matrix
    iteration must reproduce to roundoff."""
    mat, exp, peak = core._scaled_to_safe_range(mat)
    if peak == 0.0:
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


@pytest.mark.parametrize("variant", range(16))
def test_matrix_norm_bound_certificate_on_every_lasso_design(variant):
    # the benchmark's 16 designs: the step sizes, and so the recorded
    # reference objectives, rest on these floats
    design, _ = random_lasso_data(2000, 500, variant)
    assert matrix_norm_bound(design) == _eigvalsh_norm_bound(design)


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


def test_moreau_envelope_huber():
    # the envelope of lam |y|_1 is the Huber function, coordinate by
    # coordinate: t^2 / (2 mu) for |t| <= lam mu, else lam |t| - lam^2 mu / 2
    lam, mu = 0.5, 1.0
    g = prox.L1Penalty(lam)
    x = np.array([2.0, 0.0, -0.25, -1.5])
    inside = np.abs(x) <= lam * mu
    huber = np.where(inside, x * x / (2.0 * mu), lam * np.abs(x) - lam * lam * mu / 2.0)
    slope = np.where(inside, x / mu, lam * np.sign(x))
    assert abs(moreau_envelope(g, mu, x) - huber.sum()) < 1e-12
    assert np.abs(moreau_gradient(g, mu, x) - slope).max() < 1e-12


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
    g = prox.L1Penalty(1.3)
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


@pytest.mark.parametrize("build", [MatrixMap, matrix_norm_bound, core.spectral_norm])
def test_one_dimensional_matrices_are_a_contract_error(build):
    with pytest.raises(ContractError, match="2-d"):
        build(np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("norm", [matrix_norm_bound, core.spectral_norm])
def test_norm_routines_reject_non_finite_entries(norm, bad):
    # the builds that call them check their arrays first, so only a direct
    # call reaches this check
    with pytest.raises(DomainError, match="matrix entries must be finite"):
        norm(np.array([[1.0, bad], [0.0, 1.0]]))


# One row per scalar parameter of a public class or builder: the build, and
# values it must reject with DomainError when built.  An infinite value
# would give NaN values (the penalties' value(0)), a NaN prox (SCAD with
# theta = inf), a family whose every prox raises (sigma = inf, mu_max = 0),
# a run failing at its first step (C and the builders' lam), or a vacuous
# bound (a Lipschitz constant or f_star).  A NaN Lipschitz constant made
# every decay-bound margin NaN, and a NaN rho passed the 2 rho C <= 1
# check.  A schedule's weight is checked with the schedule, not by a
# stage's BallPenalty after the stages before it have run.
_CFG = SolverConfig(alpha=0.5, C=0.25, max_iter=1)
_BALL = BallSpec(np.zeros(2), 1.0)
_NO_RANGE = (np.nan, np.inf, -np.inf)  # for parameters of any sign
_POSITIVE = (0.0, -1.0, np.nan, np.inf)
_NONNEGATIVE = (-1.0, np.nan, np.inf)
_COUNT = (0, -1, 2.5, np.nan, np.inf)  # n_blocks and dim: integers from 1
_INTEGER = (0, -1, 1.5, np.nan, np.inf)  # integers from 1


def _dispersion(build, field):
    def make(v):
        fields = {"anchors": np.eye(3), "radius": 1.0, "lam": 100.0, field: v}
        return build(pvs.MaxDispersionInstance(**fields))
    return make


def _lasso(f_star):
    return pvs.build_constrained_lasso(pvs.LassoInstance(
        np.eye(2), np.ones(2), prox.L1Penalty(1.0), f_star=f_star))


def _problem(**kwargs):
    return CompositeProblem(ZeroSmooth(), ZeroFunction(), IdentityMap(),
                            IdentityProjector(), **kwargs)


_PARAMETERS = {
    "SolverConfig alpha": (lambda v: SolverConfig(alpha=v, C=0.25, max_iter=1),
                           (0.0, 1.0, -1.0, np.nan, np.inf)),
    "SolverConfig C": (lambda v: SolverConfig(alpha=0.5, C=v, max_iter=1), _POSITIVE),
    "SolverConfig max_iter": (lambda v: SolverConfig(alpha=0.5, C=0.25, max_iter=v),
                              (-1, 1.5, np.nan, np.inf)),
    "SolverConfig stop_step_norm": (
        lambda v: SolverConfig(alpha=0.5, C=0.25, max_iter=1, stop_step_norm=v),
        (-1.0, np.nan, -np.inf)),
    "SolverConfig epsilon": (
        lambda v: SolverConfig(alpha=0.5, C=0.25, max_iter=1, epsilon=v),
        (0.0, -1.0, np.nan)),
    "CallableProx rho": (lambda v: CallableProx(abs, abs, rho=v), _NONNEGATIVE),
    "CallableProx lipschitz": (lambda v: CallableProx(abs, abs, lipschitz=v), _NONNEGATIVE),
    "CallableSmooth lip_grad": (lambda v: CallableSmooth(abs, abs, v), _NONNEGATIVE),
    "CompositeProblem f_star": (lambda v: _problem(f_star=v, dim=1), _NO_RANGE),
    "CompositeProblem dim": (lambda v: _problem(dim=v), _COUNT),
    "LassoInstance f_star": (_lasso, _NO_RANGE),
    "L1Penalty lam": (prox.L1Penalty, _POSITIVE),
    # lam |t_1| alone has slope lam, so no constant of the sum is smaller; a
    # negative one made every prox-residual bound, C lipschitz k^-alpha, negative
    "L1Penalty lipschitz": (lambda v: prox.L1Penalty(1.0, lipschitz=v),
                            (-1.0, 0.0, 0.5, np.nan, np.inf)),
    "MCPPenalty lam": (lambda v: prox.MCPPenalty(v, 1.0), _POSITIVE),
    "MCPPenalty theta": (lambda v: prox.MCPPenalty(1.0, v), (0.0, -1.0, np.nan)),
    "SCADPenalty lam": (lambda v: prox.SCADPenalty(v, 3.0), _POSITIVE),
    "SCADPenalty theta": (lambda v: prox.SCADPenalty(1.0, v), (2.0, 1.0, np.nan, np.inf)),
    "SupAffineFamily sigma": (
        lambda v: prox.SupAffineFamily(np.eye(2), np.zeros(2), v), _POSITIVE),
    "BallSpec radius": (lambda v: BallSpec(np.zeros(2), v), (0.0, -1.0, np.nan)),
    "BallPenalty weight": (lambda v: BallPenalty(_BALL, v), _POSITIVE),
    "FirstBlockBallPenalty weight": (lambda v: pvs.FirstBlockBallPenalty(_BALL, v, 2),
                                     _POSITIVE),
    "FirstBlockBallPenalty n_blocks": (lambda v: pvs.FirstBlockBallPenalty(_BALL, 1.0, v),
                                       _COUNT),
    "ProductBallPenalty weight": (lambda v: pvs.ProductBallPenalty(_BALL, v, 2), _POSITIVE),
    "ProductBallPenalty n_blocks": (lambda v: pvs.ProductBallPenalty(_BALL, 1.0, v),
                                    _COUNT),
    "ProductKernelProjector n_blocks": (
        lambda v: pvs.ProductKernelProjector(IdentityProjector(), v), _COUNT),
    "ReplicatedKernelProjector n_blocks": (
        lambda v: pvs.ReplicatedKernelProjector(IdentityProjector(), v), _COUNT),
    "PenaltySchedule lambdas": (lambda v: PenaltySchedule((1.0, v), _CFG),
                                (-1.0, np.nan, np.inf)),
    "MaxDispersionInstance lam (direct)": (_dispersion(build_max_dispersion_direct, "lam"),
                                           (2.0, np.nan, np.inf)),
    "MaxDispersionInstance lam (product)": (_dispersion(build_max_dispersion_product, "lam"),
                                            (2.0, np.nan, np.inf)),
    "MaxDispersionInstance radius": (_dispersion(build_max_dispersion_direct, "radius"),
                                     (0.0, -1.0, np.nan)),
    "build_dro_affine lam": (
        lambda v: pvs.build_dro_affine(np.eye(2), np.zeros(2), v, 1.0), (2.0, np.nan, np.inf)),
    "build_dro_affine radius": (
        lambda v: pvs.build_dro_affine(np.eye(2), np.zeros(2), 10.0, v), (0.0, np.nan)),
    "build_dro_quadratic lam": (lambda v: build_dro_quadratic(np.eye(2), v, 1.0),
                                (2.0, np.nan, np.inf)),
    "build_dro_quadratic radius": (lambda v: build_dro_quadratic(np.eye(2), 10.0, v),
                                   (0.0, np.nan)),
    "random_anchors dim": (lambda v: pvs.random_anchors(v, 2, 0), _INTEGER),
    "random_anchors count": (lambda v: pvs.random_anchors(2, v, 0), _INTEGER),
    "random_anchors seed": (lambda v: pvs.random_anchors(2, 2, v), (-1, 1.5, np.nan)),
    "random_affine_scenarios dim": (lambda v: pvs.random_affine_scenarios(v, 2, 0), _INTEGER),
    "random_affine_scenarios count": (lambda v: pvs.random_affine_scenarios(2, v, 0),
                                      _INTEGER),
    "random_affine_scenarios seed": (lambda v: pvs.random_affine_scenarios(2, 2, v),
                                     (-1, 1.5, np.nan)),
    "random_lasso_data dim": (lambda v: pvs.random_lasso_data(v, 2, 0), _INTEGER),
    "random_lasso_data samples": (lambda v: pvs.random_lasso_data(2, v, 0), _INTEGER),
    "random_lasso_data seed": (lambda v: pvs.random_lasso_data(2, 2, v), (-1, 1.5, np.nan)),
    "subspace_start dim": (lambda v: pvs.subspace_start(IdentityProjector(), v), _COUNT),
}

# parameter names that are not numbers, each checked elsewhere or not at all
_NOT_NUMBERS = {
    "value_fn": "a callable", "prox_fn": "a callable", "grad_fn": "a callable",
    "h": "a SmoothFunction", "terms": "SmoothFunctions", "regularizer": "a ProxFunction",
    "g": "a ProxFunction", "a_map": "a LinearMap",
    "subspace": "a SubspaceProjector", "kernel_projector": "a SubspaceProjector",
    "ball": "a BallSpec, whose fields have rows",
    "config": "a SolverConfig, whose fields have rows",
    "inst": "an instance, whose fields have rows",
    "projector": "a SubspaceProjector",
    "kind": "a penalty name, checked when built",
    "params": "a penalty's parameters, which have rows",
    # arrays: each has a row of _ARRAYS
    "mat": "an array", "R": "an array", "design": "an array", "target": "an array",
    "a_rows": "an array", "offsets": "an array", "centers": "an array",
    "center": "an array", "anchors": "an array", "shifts": "an array",
    "constraint_matrix": "an array", "inner_matrix": "an array",
}
# classes that record a run rather than configure one: IterateTrace is
# built by run_pvs from a checked SolverConfig, and errors carry diagnostics
_RECORDS = ("IterateTrace", "PenaltyDiagnostics")
# public functions that compute on their arguments rather than build from
# parameters; the code that takes those arguments checks them per call
_PER_CALL = {
    "dispersion_objective", "dykstra_project", "envelope_by_weights",
    "epoch_iteration_budget", "matrix_norm_bound", "moreau_envelope", "moreau_gradient",
    "penalty_distance_sq", "project_ball", "project_diagonal", "project_simplex",
    "pvs_step", "run_penalty", "run_pvs", "schedule", "simplex_weights_kkt",
    "solve_simplex_weights", "spectral_norm", "stationarity_constant",
    "theorem_bound_margins",
}


def _public_parameters():
    """(owner, parameter) for every class and function in ``pvsmooth.__all__``
    that builds from parameters."""
    for name in pvs.__all__:
        obj = getattr(pvs, name)
        if inspect.isclass(obj):
            if issubclass(obj, Exception) or name in _RECORDS:
                continue
        elif not inspect.isfunction(obj) or name in _PER_CALL:
            continue
        for param in inspect.signature(obj).parameters:
            yield name, param


def test_every_numeric_parameter_has_a_row():
    pairs = set(_public_parameters())
    rows = {tuple(key.split()[:2]) for key in _PARAMETERS}
    assert not sorted(p for p in pairs - rows if p[1] not in _NOT_NUMBERS)
    assert not sorted(rows - pairs)  # each row names a real parameter
    assert not set(_NOT_NUMBERS) - {param for _, param in pairs}
    assert not sorted(_PER_CALL - {name for name in pvs.__all__
                                   if inspect.isfunction(getattr(pvs, name))})


@pytest.mark.parametrize("key, bad", [(key, bad) for key, (_, bads) in _PARAMETERS.items()
                                      for bad in bads])
def test_out_of_range_parameters_are_rejected_when_built(key, bad):
    with pytest.raises(DomainError):
        _PARAMETERS[key][0](bad)


# values that are not real numbers, or a bool posing as one; None is left
# out where the parameter defaults to None, which means "unset" there
_NON_NUMBERS = ("0.5", None, 0.5 + 0j, np.array([1.0, 2.0]), True, False)
# integers past the float range, where a real number is asked for: they
# passed every range and then overflowed in a float conversion
_PAST_FLOATS = (10**400, -10**400)
_COUNTS = ("max_iter", "dim", "n_blocks", "count", "samples", "seed")


def _none_allowed(key):
    owner, param = key.split()[:2]
    return inspect.signature(getattr(pvs, owner)).parameters[param].default is None


@pytest.mark.parametrize("key, bad", [
    (key, bad) for key in _PARAMETERS
    for bad in _NON_NUMBERS + (() if key.split()[1] in _COUNTS else _PAST_FLOATS)
    if not (bad is None and _none_allowed(key))])
def test_non_number_parameters_are_rejected_when_built(key, bad):
    with pytest.raises(DomainError):
        _PARAMETERS[key][0](bad)


# One row per array parameter of a public class or builder: the build, and
# values it accepts, from which _bad_array makes those it must reject with
# DomainError when built.  A NaN matrix entry was MatrixMap's norm bound,
# an inf one an empty KernelProjector basis, and eigvalsh or the SVD raised
# a bare LinAlgError on either; a NaN Tukey shift ran 200 Newton steps into
# a ConvergenceError, and a NaN anchor or center failed the run's first
# prox as a component error.  A 3-d R gave a projector that is not one, a
# 2-d center or offsets failed at the first call, 3-d centers or anchors
# did not unpack, and a string or complex entry raised ValueError or
# TypeError.
_MATRICES = (np.ones((1, 3)), np.random.default_rng(9).standard_normal((5, 3)))
_PAIR = np.zeros(2)
_ROW = np.ones((1, 2))  # a constraint matrix on R^2
_CENTERS = np.array([[0.0, 1.0], [0.0, 0.0]])


def _lasso_with(**fields):
    data = {"design": np.eye(2), "target": np.ones(2), "regularizer": prox.L1Penalty(1.0)}
    return pvs.build_constrained_lasso(pvs.LassoInstance(**{**data, **fields}))


_ARRAYS = {
    "BallSpec center": (lambda v: BallSpec(v, 1.0), (_PAIR,)),
    "KernelProjector R": (KernelProjector, _MATRICES),
    "LassoInstance constraint_matrix": (lambda v: _lasso_with(constraint_matrix=v), (_ROW,)),
    "LassoInstance design": (lambda v: _lasso_with(design=v, target=np.ones(len(v))),
                             _MATRICES),
    "LassoInstance inner_matrix": (lambda v: _lasso_with(inner_matrix=v), (np.eye(2),)),
    "LassoInstance target": (lambda v: _lasso_with(target=v), (_PAIR,)),
    "MatrixMap mat": (MatrixMap, _MATRICES),
    "MaxDispersionInstance anchors (product)": (
        _dispersion(build_max_dispersion_product, "anchors"), (np.eye(3),)),
    "MaxDispersionInstance constraint_matrix": (
        _dispersion(build_max_dispersion_direct, "constraint_matrix"), (np.ones((1, 3)),)),
    "QuadraticLoss design": (lambda v: QuadraticLoss(v, np.ones(len(v))), _MATRICES),
    "QuadraticLoss target": (lambda v: QuadraticLoss(np.eye(2), v), (_PAIR,)),
    "SupAffineFamily a_rows": (lambda v: prox.SupAffineFamily(v, np.zeros(len(v)), 1.0),
                               _MATRICES),
    "SupAffineFamily offsets": (lambda v: prox.SupAffineFamily(np.eye(2), v, 1.0), (_PAIR,)),
    "SupQuadraticFamily centers": (prox.SupQuadraticFamily, (_CENTERS,)),
    "TukeyPenalty shifts": (prox.TukeyPenalty, (_PAIR,)),
    "build_dro_affine a_rows": (
        lambda v: pvs.build_dro_affine(v, np.zeros(len(v)), 10.0, 1.0), (np.eye(2),)),
    "build_dro_affine constraint_matrix": (
        lambda v: pvs.build_dro_affine(np.eye(2), _PAIR, 10.0, 1.0, constraint_matrix=v),
        (_ROW,)),
    "build_dro_affine offsets": (lambda v: pvs.build_dro_affine(np.eye(2), v, 10.0, 1.0),
                                 (_PAIR,)),
    "build_dro_quadratic centers": (lambda v: build_dro_quadratic(v, lam=10.0, radius=1.0),
                                    (_CENTERS,)),
    "build_dro_quadratic constraint_matrix": (
        lambda v: build_dro_quadratic(np.eye(2), 10.0, 1.0, constraint_matrix=v), (_ROW,)),
}
_BAD_ENTRIES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "string": "0.5",
                "complex": 0.5 + 1j}


def _bad_array(base, case):
    """A value an array parameter must reject, made from a ``base`` it
    accepts: a bad entry at the middle flat index (a non-finite one in a
    float array, a string or complex one in a nested list, as a caller
    writes one), a ragged list, or ``base`` with one dimension more."""
    if case == "ragged":
        return base.tolist() + [[]]
    if case == "extra dimension":
        return base[None]
    bad = base.astype(object)
    bad.flat[base.size // 2] = _BAD_ENTRIES[case]
    return bad.tolist() if case in ("string", "complex") else bad.astype(float)


def test_every_array_parameter_has_a_row():
    arrays = {p for p in _public_parameters() if _NOT_NUMBERS.get(p[1]) == "an array"}
    assert arrays == {tuple(key.split()[:2]) for key in _ARRAYS}


@pytest.mark.parametrize("case", [*_BAD_ENTRIES, "ragged", "extra dimension"])
@pytest.mark.parametrize("key", sorted(_ARRAYS))
def test_bad_arrays_are_rejected_when_built(key, case):
    build, bases = _ARRAYS[key]
    for base in bases:
        build(base)  # accepted, so the rejection below is the bad value's
        with pytest.raises(DomainError):
            build(_bad_array(base, case))


# One row per array argument of a function that computes on its arguments:
# the call, and arguments it accepts, from which _bad_array makes those it
# must reject with DomainError per call.  3-d anchors made
# dispersion_objective return -2.0 and random_search_dispersion raise a
# bare broadcast ValueError, a NaN point made brute_force_prox raise a bare
# TypeError, and a string entry was parsed as a number (fd_gradient
# returned [2. 4.] for the point ['1.0', '2.0']).
_ANCHORS = np.array([[1.0, 0.0], [0.0, 1.0]])
_TWO_ROWS = np.array([[1.0, 0.5], [-0.5, 1.0]])
_PER_CALL_ARRAYS = {
    "brute_force_prox x": (
        lambda v: oracles.brute_force_prox(None, 0.5, v, oracles.GridSpec(-1.0, 1.0, 0.5, 1),
                                           batch_value=lambda p: (p * p).sum(axis=1)),
        (_PAIR,)),
    "dispersion_objective anchors": (
        lambda v: pvs.dispersion_objective(v, 1.0, 10.0, _PAIR), (_ANCHORS,)),
    "dispersion_objective x": (
        lambda v: pvs.dispersion_objective(_ANCHORS, 1.0, 10.0, v), (_PAIR,)),
    "random_search_dispersion anchors": (
        lambda v: oracles.random_search_dispersion(v, 1.0, 10.0, _ROW, 10, 0), (_ANCHORS,)),
    "random_search_dispersion constraint_matrix": (
        lambda v: oracles.random_search_dispersion(_ANCHORS, 1.0, 10.0, v, 10, 0), (_ROW,)),
    "reference_constrained_lasso design": (
        lambda v: oracles.reference_constrained_lasso(v, np.ones(len(v)), 1.0,
                                                      total_iters=2), (np.eye(2),)),
    "reference_constrained_lasso target": (
        lambda v: oracles.reference_constrained_lasso(np.eye(2), v, 1.0, total_iters=2),
        (_PAIR,)),
    "reference_constrained_lasso constraint_matrix": (
        lambda v: oracles.reference_constrained_lasso(np.eye(2), _PAIR, 1.0, v,
                                                      total_iters=2), (_ROW,)),
    "affine_scan_prox a_rows": (
        lambda v: oracles.affine_scan_prox(v, _PAIR, 1.0, 0.2, _PAIR, t_step=0.1),
        (_TWO_ROWS,)),
    "affine_scan_prox offsets": (
        lambda v: oracles.affine_scan_prox(_TWO_ROWS, v, 1.0, 0.2, _PAIR, t_step=0.1),
        (_PAIR,)),
    "affine_scan_prox x": (
        lambda v: oracles.affine_scan_prox(_TWO_ROWS, _PAIR, 1.0, 0.2, v, t_step=0.1),
        (_PAIR,)),
    "least_squares_roundoff design": (
        lambda v: oracles.least_squares_roundoff(v, np.ones(len(v)), np.ones(3)), _MATRICES),
    "least_squares_roundoff target": (
        lambda v: oracles.least_squares_roundoff(np.eye(2), v, _PAIR), (_PAIR,)),
    "least_squares_roundoff x": (
        lambda v: oracles.least_squares_roundoff(np.eye(2), _PAIR, v), (_PAIR,)),
    "fd_gradient x": (lambda v: oracles.fd_gradient(lambda y: float(y @ y), v), (_PAIR,)),
    "enumerated_simplex_prox a_rows": (
        lambda v: oracles.enumerated_simplex_prox(v, _PAIR, 1.0, 0.2, _PAIR), (_TWO_ROWS,)),
    "enumerated_simplex_prox offsets": (
        lambda v: oracles.enumerated_simplex_prox(_TWO_ROWS, v, 1.0, 0.2, _PAIR), (_PAIR,)),
    "enumerated_simplex_prox x": (
        lambda v: oracles.enumerated_simplex_prox(_TWO_ROWS, _PAIR, 1.0, 0.2, v), (_PAIR,)),
}


@pytest.mark.parametrize("case", [*_BAD_ENTRIES, "ragged", "extra dimension"])
@pytest.mark.parametrize("key", sorted(_PER_CALL_ARRAYS))
def test_bad_arrays_are_rejected_per_call(key, case):
    call, bases = _PER_CALL_ARRAYS[key]
    for base in bases:
        call(base)  # accepted, so the rejection below is the bad value's
        with pytest.raises(DomainError):
            call(_bad_array(base, case))


def test_checked_per_call_arrays_give_the_same_floats():
    # dispersion_objective is the benchmark's correctness reference: its
    # value on float arrays is the formula's, bit for bit, and a list or
    # an integer array reads as the same floats
    rng = np.random.default_rng(11)
    anchors, x = rng.uniform(-1.0, 1.0, (10, 3)), rng.uniform(-2.0, 2.0, 3)
    d = anchors - x
    excess = max(float(np.linalg.norm(x)) - 1.0, 0.0)
    want = float(0.5 * 100.0 * excess * excess - (d * d).sum(axis=1).min())
    assert pvs.dispersion_objective(anchors, 1.0, 100.0, x) == want
    assert pvs.dispersion_objective(anchors.tolist(), 1.0, 100.0, x.tolist()) == want
    assert pvs.dispersion_objective([[1, 2]], 1.0, 10.0, [0, 0]) == -5.0


def test_array_messages_name_the_parameter_and_what_it_got():
    for build, message in (
            (lambda: KernelProjector(np.ones((2, 2, 2))),
             "R must be at most 2-d, got shape (2, 2, 2)"),
            (lambda: BallSpec([0.0, "1"], 1.0),
             "center must be an array of real numbers, got <U32 entries"),
            (lambda: prox.TukeyPenalty([0.0, 1j]),
             "shifts must be an array of real numbers, got complex128 entries"),
            (lambda: prox.SupQuadraticFamily([[0.0], [1.0, 2.0]]),
             "centers must be an array of real numbers, got a ragged list"),
            (lambda: QuadraticLoss(np.eye(2), [0.0, np.nan]),
             "target must be finite, got a NaN or infinite entry")):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message


def test_array_parameters_are_lifted_like_atleast_1d_and_2d():
    for value, ndim in ((2, 1), (2, 2), ([1, 2], 2), (np.eye(2), 2), ([True], 1)):
        lifted = core._require_array(value, "x", ndim)
        expect = (np.atleast_1d if ndim == 1 else np.atleast_2d)(np.asarray(value, dtype=float))
        assert lifted.dtype == float and np.array_equal(lifted, expect)
    assert prox.SupQuadraticFamily([1.0, 2.0]).centers.shape == (1, 2)
    assert np.array_equal(KernelProjector([1.0, 1.0]).basis, KernelProjector([[1.0, 1.0]]).basis)
    assert prox.TukeyPenalty(0.7).shifts.shape == ()  # so a scalar's prox is a float


def test_one_message_names_the_parameter_and_its_range():
    with pytest.raises(DomainError) as exc:
        prox.L1Penalty(1.0, lipschitz=0.5)
    assert str(exc.value) == "lipschitz must be None or a finite number in [1.0, inf), got 0.5"
    with pytest.raises(DomainError) as exc:
        prox.MCPPenalty(1.0, np.nan)
    assert str(exc.value) == "theta must be a number in (0, inf], got nan"
    with pytest.raises(DomainError) as exc:
        SolverConfig(alpha=0.5, C=0.25, max_iter=1.5)
    assert str(exc.value) == "max_iter must be an integer in [0, inf), got 1.5"
    # an integer past the float range: its size and the reason, not its
    # 401 digits, also where inf is in range
    with pytest.raises(DomainError) as exc:
        SolverConfig(alpha=0.5, C=10**400, max_iter=1)
    assert str(exc.value) == ("C must be a finite number in (0, inf), got an integer of "
                              "about 10^400, past the float range")
    with pytest.raises(DomainError) as exc:
        BallSpec(np.zeros(2), -10**400)
    assert str(exc.value) == ("radius must be a number in (0, inf], got an integer of "
                              "about -10^400, past the float range")
    # NaN fails every kind of end, and inf passes only a closed infinite one
    for ends in ("()", "[)", "(]", "[]"):
        with pytest.raises(DomainError):
            core._require(np.nan, "x", 0, np.inf, ends=ends)
    for ends in ("()", "[)"):
        with pytest.raises(DomainError):
            core._require(np.inf, "x", 0, np.inf, ends=ends)
    assert core._require(np.inf, "x", 0, np.inf, ends="(]") == np.inf
    assert core._require(None, "x", 0, 1, allow_none=True) is None


def test_well_defined_limits_and_defaults_stay_accepted():
    # MCP with theta = inf is the l1 penalty, and an infinite radius a ball
    # that is the whole space
    mcp = prox.MCPPenalty(2.0, np.inf)
    y = np.array([-3.0, 0.5, 1.0])
    assert mcp.value(y) == prox.L1Penalty(2.0).value(y)
    assert np.array_equal(mcp.prox(0.25, y), prox.L1Penalty(2.0).prox(0.25, y))
    ball = BallPenalty(BallSpec(np.zeros(3), np.inf), 1.0)
    assert ball.value_and_grad(y)[0] == 0.0
    assert prox.L1Penalty(1.0, lipschitz=1.0).lipschitz == 1.0
    # no Lipschitz constant, a constant smooth term, and stop thresholds of
    # inf (stop after the first step or row)
    assert CallableProx(abs, abs).lipschitz is None
    assert CallableProx(abs, abs, rho=0.0, lipschitz=0.0).mu_max == np.inf
    assert CallableSmooth(abs, abs, 0).lip_grad == 0.0
    SolverConfig(alpha=0.5, C=0.25, max_iter=0, stop_step_norm=np.inf, epsilon=np.inf)
    assert _problem(dim=1).f_star is None and _problem(f_star=-3.0, dim=1).dim == 1


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

    # without dim no start could be checked before the loop
    with pytest.raises(TypeError, match="dim"):
        CompositeProblem(h, g, IdentityMap(), IdentityProjector())
    with pytest.raises(ContractError):
        CompositeProblem(h, g, MatrixMap(np.eye(3)), IdentityProjector(), dim=2)
    # g of the wrong size, probed through its value
    affine = prox.SupAffineFamily(np.eye(2), np.zeros(2), 1.0)
    for wrong in (g, affine):
        with pytest.raises(ContractError):
            CompositeProblem(h, wrong, IdentityMap(), IdentityProjector(), dim=3)


def test_composite_problem_takes_dim_by_keyword_only():
    # a sixth positional argument is not read as dim
    h = squared_norm_smooth()
    g = prox.SupQuadraticFamily(np.zeros((2, 1)))
    with pytest.raises(TypeError):
        CompositeProblem(h, g, IdentityMap(), IdentityProjector(), None, 2)
    assert CompositeProblem(h, g, IdentityMap(), IdentityProjector(), None, dim=2).dim == 2


def test_composite_problem_dim_check_probes_h():
    # a penalty on R^2 in a problem on R^3: built unchecked, the run's first
    # step failed on a bare numpy broadcast ValueError with no partial trace
    ball = BallPenalty(BallSpec(np.zeros(2), 1.0), 10.0)
    with pytest.raises(ContractError, match="disagree on dimension 3"):
        CompositeProblem(ball, ZeroFunction(), IdentityMap(), IdentityProjector(), dim=3)
    CompositeProblem(ball, ZeroFunction(), IdentityMap(), IdentityProjector(), dim=2)


@pytest.mark.parametrize("kind", ["FirstBlockBallPenalty", "ProductBallPenalty",
                                  "QuadraticLoss", "SmoothSum"])
def test_composite_problem_dim_check_probes_every_h_kind(kind):
    # each h is built for R^4 and checked in a problem on R^5
    ball, loss = BallSpec(np.zeros(2), 1.0), QuadraticLoss(np.ones((3, 4)), np.ones(3))
    h = {"FirstBlockBallPenalty": pvs.FirstBlockBallPenalty(ball, 10.0, 2),
         "ProductBallPenalty": pvs.ProductBallPenalty(ball, 10.0, 2),
         "QuadraticLoss": loss,
         "SmoothSum": pvs.SmoothSum(loss, pvs.FirstBlockBallPenalty(ball, 1.0, 2))}[kind]
    with pytest.raises(ContractError, match="disagree on dimension 5"):
        CompositeProblem(h, ZeroFunction(), IdentityMap(), IdentityProjector(), dim=5)
    CompositeProblem(h, ZeroFunction(), IdentityMap(), IdentityProjector(), dim=4)


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
