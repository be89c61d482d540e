import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsmooth import oracles
from pvsmooth.errors import ConvergenceError, DomainError
from pvsmooth.projections import (
    BallSpec,
    DiagonalProjector,
    KernelProjector,
    ProductKernelProjector,
    ReplicatedKernelProjector,
    dykstra_project,
    project_ball,
    project_diagonal,
    project_simplex,
)


def test_ball_spec_validation():
    with pytest.raises(DomainError):
        BallSpec(np.zeros(2), 0.0)
    with pytest.raises(DomainError):
        BallSpec(np.zeros(2), -1.0)


def test_project_ball_basic():
    spec = BallSpec(np.zeros(2), 1.0)
    assert np.array_equal(project_ball(spec, np.array([0.5, 0.0])),
                          np.array([0.5, 0.0]))
    assert np.abs(project_ball(spec, np.array([2.0, 0.0])) -
                  np.array([1.0, 0.0])).max() < 1e-15


def test_project_ball_geometry():
    rng = np.random.default_rng(21)
    center = np.array([0.3, -1.2, 0.4])
    spec = BallSpec(center, 0.7)
    for _ in range(25):
        x = center + rng.normal(0, 3.0, 3)
        if np.linalg.norm(x - center) <= spec.radius:
            continue
        out = project_ball(spec, x)
        assert abs(np.linalg.norm(out - center) - spec.radius) < 1e-12
        # out - x is parallel to center - x
        u = out - x
        v = center - x
        cross = u * np.linalg.norm(v) - v * np.linalg.norm(u) * np.sign(u @ v)
        assert np.linalg.norm(cross) < 1e-9


def test_project_simplex_basic():
    assert np.array_equal(project_simplex(np.array([1.0, 0.0, 0.0])),
                          np.array([1.0, 0.0, 0.0]))
    inside = np.array([0.2, 0.3, 0.5])
    assert np.abs(project_simplex(inside) - inside).max() < 1e-15
    # entries so large that u - 1 rounds to u (huge dual steps produce these)
    assert np.array_equal(project_simplex(np.array([4e141, 4e141])),
                          np.array([0.5, 0.5]))


def test_project_simplex_example():
    out = project_simplex(np.array([0.5, 0.5, 1.0]))
    assert np.abs(out - np.array([1 / 6, 1 / 6, 2 / 3])).max() < 1e-12
    # cross-check as the nearest point on a dense simplex scan
    x = np.array([0.5, 0.5, 1.0])
    p, _ = oracles.simplex_scan_max(
        lambda q: -((q - x) ** 2).sum(axis=-1), 3, resolution=1e-3
    )
    assert np.abs(out - p).max() < 1e-6


def test_project_simplex_threshold_structure():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = rng.integers(1, 8)
        x = rng.normal(0, 2, n)
        p = project_simplex(x)
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() >= 0.0
        # active coordinates share a common shift tau
        active = p > 0
        tau = x[active] - p[active]
        if active.sum() > 1:
            assert np.ptp(tau) < 1e-10
        # inactive coordinates sit below the shift
        if active.sum() < n:
            assert x[~active].max() <= tau.mean() + 1e-10


def test_kernel_projector_row_sum_examples():
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    assert np.abs(proj.apply(np.array([1.0, 1.0, 1.0]))).max() < 1e-12
    keep = np.array([1.0, -1.0, 0.0])
    assert np.abs(proj.apply(keep) - keep).max() < 1e-12
    assert np.abs(proj.apply(np.array([1.0, 2.0, 3.0])) -
                  np.array([-1.0, 0.0, 1.0])).max() < 1e-12


def test_kernel_projector_zero_matrix_rejected():
    with pytest.raises(DomainError):
        KernelProjector(np.zeros((2, 3)))


def _check_kernel_projector(R):
    # the operator applied to the identity columns is the projector matrix
    n = R.shape[1]
    proj = KernelProjector(R)
    P = np.column_stack([proj.apply(e) for e in np.eye(n)])
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(P - P.T).max() < 1e-12
    dense = np.eye(n) - np.linalg.pinv(R, rcond=1e-12) @ R
    assert np.abs(P - dense).max() < 1e-12
    x = np.random.default_rng(n).standard_normal(n)
    assert np.linalg.norm(R @ proj.apply(x)) <= 1e-9 * max(1.0, np.linalg.norm(x))


def test_kernel_projector_matrix_properties():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m, n = rng.integers(1, 4), rng.integers(4, 7)
        _check_kernel_projector(rng.standard_normal((m, n)))


@st.composite
def _rank_deficient_constraints(draw):
    # rows are scaled copies of a few well-conditioned base rows, so R has
    # repeated directions and may have more rows than columns
    n = draw(st.integers(2, 8))
    rank = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ortho, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mix = np.eye(rank) + np.tril(rng.uniform(-0.5, 0.5, (rank, rank)), -1)
    base = mix @ ortho[:rank]
    picks = draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=n + 3))
    scales = draw(st.lists(st.floats(0.1, 3.0), min_size=len(picks),
                           max_size=len(picks)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(picks),
                          max_size=len(picks)))
    return np.array([s * c * base[i] for i, s, c in zip(picks, signs, scales)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rank_deficient_constraints())
def test_kernel_projector_rank_deficient_and_tall(R):
    _check_kernel_projector(R)


def test_kernel_projector_memory_is_linear_in_n():
    # only the r x n basis is kept: no n x n matrix, no copy of R
    R = np.random.default_rng(26).standard_normal((3, 2000))
    proj = KernelProjector(R)
    held = sum(v.nbytes for v in vars(proj).values() if isinstance(v, np.ndarray))
    assert held <= 8 * 3 * 2000
    assert proj.basis.shape == (3, 2000)


def test_project_diagonal_examples():
    same = np.array([1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(project_diagonal(same, 2), same)
    out = project_diagonal(np.array([0.0, 0.0, 2.0, 2.0]), 2)
    assert np.array_equal(out, np.array([1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        project_diagonal(np.arange(5, dtype=float), 2)


def test_project_diagonal_orthogonality():
    rng = np.random.default_rng(24)
    x = rng.normal(0, 1, 12)
    out = project_diagonal(x, 4)
    assert np.array_equal(project_diagonal(out, 4), out)
    for _ in range(20):
        d = np.tile(rng.normal(0, 1, 3), 4)
        assert abs((x - out) @ d) < 1e-12


def test_product_kernel_projector_flat_vectors():
    kern = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    proj = ProductKernelProjector(kern, 2)
    out = proj.apply(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert np.abs(out - np.array([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0])).max() < 1e-12


def test_dykstra_fixed_point():
    kern = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    x = np.array([1.0, -1.0, 0.0])  # in the kernel and on the diagonal scale
    out = dykstra_project(kern.apply, kern.apply, x)
    assert np.abs(out - x).max() < 1e-11


def test_dykstra_replicated_example():
    kern = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    prod = ProductKernelProjector(kern, 2)
    diag = DiagonalProjector(2)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    out = dykstra_project(prod.apply, diag.apply, x)
    expect = np.array([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0])
    assert np.abs(out - expect).max() < 1e-9
    closed = ReplicatedKernelProjector(kern, 2).apply(x)
    assert np.abs(closed - expect).max() < 1e-12
    assert np.abs(out - closed).max() < 1e-9


def test_dykstra_orthogonal_subspaces():
    # x-axis and y-axis in the plane: Dykstra agrees with composing the two
    px = KernelProjector(np.array([[0.0, 1.0]]))
    py = KernelProjector(np.array([[1.0, 0.0]]))
    x = np.array([1.3, -2.1])
    out = dykstra_project(px.apply, py.apply, x)
    assert np.abs(out - py.apply(px.apply(x))).max() < 1e-10


def test_dykstra_matches_stacked_pseudoinverse():
    rng = np.random.default_rng(26)
    r1 = rng.standard_normal((1, 4))
    r2 = rng.standard_normal((2, 4))
    p1 = KernelProjector(r1)
    p2 = KernelProjector(r2)
    direct = KernelProjector(np.vstack([r1, r2]))
    for _ in range(5):
        x = rng.normal(0, 2, 4)
        out = dykstra_project(p1.apply, p2.apply, x)
        assert np.linalg.norm(out - direct.apply(x)) < 1e-6


def test_dykstra_distance_to_both_sets():
    kern = KernelProjector(np.array([[1.0, 2.0, -1.0]]))
    tol = 1e-12
    out = dykstra_project(kern.apply, project_simplex, np.array([2.0, -1.0, 0.5]),
                          tol=tol)
    assert np.linalg.norm(out - kern.apply(out)) <= 10 * tol
    assert np.linalg.norm(out - project_simplex(out)) <= 10 * tol


def test_dykstra_budget_exhaustion():
    p1 = KernelProjector(np.array([[1.0, 1.0]]))
    p2 = KernelProjector(np.array([[1.0, 0.99]]))
    with pytest.raises(ConvergenceError) as exc:
        dykstra_project(p1.apply, p2.apply, np.array([3.0, 4.0]), max_iter=1)
    assert exc.value.residual > 0


def test_variational_characterization():
    rng = np.random.default_rng(27)
    ball = BallSpec(np.array([0.5, -0.5, 0.0]), 1.2)
    kern = KernelProjector(np.array([[1.0, -2.0, 0.5]]))

    def sample_ball():
        v = rng.normal(0, 1, 3)
        return ball.center + ball.radius * rng.uniform(0, 1) * v / np.linalg.norm(v)

    def sample_kernel():
        return kern.apply(rng.normal(0, 2, 3))

    def sample_simplex():
        return rng.dirichlet(np.ones(3))

    cases = [
        (lambda v: project_ball(ball, v), sample_ball),
        (kern.apply, sample_kernel),
        (project_simplex, sample_simplex),
    ]
    for proj, sample in cases:
        x = rng.normal(0, 3, 3)
        out = proj(x)
        for _ in range(100):
            y = sample()
            assert (x - out) @ (y - out) <= 1e-9


def test_projection_idempotence():
    rng = np.random.default_rng(28)
    ball = BallSpec(np.zeros(3), 0.9)
    kern = KernelProjector(np.array([[1.0, 1.0, -1.0]]))
    repl = ReplicatedKernelProjector(
        KernelProjector(np.array([[1.0, 1.0, 1.0]])), 2
    )
    cases = [
        (lambda v: project_ball(ball, v), 3),
        (project_simplex, 3),
        (kern.apply, 3),
        (lambda v: project_diagonal(v, 2), 6),
        (repl.apply, 6),
    ]
    for proj, dim in cases:
        x = rng.normal(0, 2, dim)
        once = proj(x)
        assert np.abs(proj(once) - once).max() < 1e-10
