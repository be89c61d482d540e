import numpy as np
import pytest

from pvsmooth import oracles, prox
from pvsmooth.core import (
    CallableSmooth,
    CompositeProblem,
    IdentityMap,
    IdentityProjector,
    ZeroFunction,
    ZeroSmooth,
)
from pvsmooth.errors import ContractError, DomainError, StageError
from pvsmooth.penalty import (
    BallPenalty,
    PenaltySchedule,
    SmoothSum,
    penalty_distance_sq,
    run_penalty,
)
from pvsmooth.projections import BallSpec
from pvsmooth.prox import SupAffineFamily
from pvsmooth.solver import SolverConfig


def _problem(h, g, dim):
    return CompositeProblem(h, g, IdentityMap(), IdentityProjector(), dim=dim)


def test_penalty_distance_sq_interior():
    ball = BallSpec(np.zeros(2), 1.0)
    val, grad = penalty_distance_sq(ball, np.array([0.3, -0.2]))
    assert val == 0.0
    assert np.array_equal(grad, np.zeros(2))


def test_penalty_distance_sq_exterior():
    ball = BallSpec(np.zeros(2), 1.0)
    val, grad = penalty_distance_sq(ball, np.array([2.0, 0.0]))
    assert abs(val - 0.5) < 1e-15
    assert np.abs(grad - np.array([1.0, 0.0])).max() < 1e-15


def test_penalty_gradient_finite_differences():
    ball = BallSpec(np.array([0.4, -0.1, 0.2]), 0.8)
    rng = np.random.default_rng(51)
    for _ in range(10):
        x = ball.center + rng.normal(0, 2, 3)
        if np.linalg.norm(x - ball.center) <= ball.radius + 0.1:
            continue
        _, grad = penalty_distance_sq(ball, x)
        fd = oracles.fd_gradient(lambda y: penalty_distance_sq(ball, y)[0], x)
        assert np.linalg.norm(grad - fd) < 1e-6


def test_ball_penalty_scaling():
    ball = BallSpec(np.zeros(2), 1.0)
    pen = BallPenalty(ball, 4.0)
    x = np.array([3.0, 0.0])
    assert abs(pen.value(x) - 4.0 * 2.0) < 1e-12  # 4 * (1/2) * 2^2
    assert np.abs(pen.grad(x) - np.array([8.0, 0.0])).max() < 1e-12
    assert pen.lip_grad == 4.0
    with pytest.raises(DomainError):
        BallPenalty(ball, 0.0)


def test_smooth_sum_accumulates():
    a = CallableSmooth(lambda x: float(x @ x), lambda x: 2.0 * x, 2.0)
    b = CallableSmooth(lambda x: float(x.sum()), lambda x: np.ones_like(x), 0.0)
    s = SmoothSum(a, b)
    x = np.array([1.0, 2.0])
    assert abs(s.value(x) - (5.0 + 3.0)) < 1e-12
    assert np.abs(s.grad(x) - (2.0 * x + 1.0)).max() < 1e-12
    assert s.lip_grad == 2.0


def test_penalty_schedule_validation():
    cfg = SolverConfig(alpha=0.5, C=0.25, max_iter=10)
    with pytest.raises(DomainError):
        PenaltySchedule((), cfg)
    with pytest.raises(DomainError):
        PenaltySchedule((4.0, 4.0), cfg)
    with pytest.raises(DomainError):
        PenaltySchedule((8.0, 4.0), cfg)
    with pytest.raises(DomainError):
        PenaltySchedule((-1.0, 4.0), cfg)

    sched = PenaltySchedule((4.0, 8.0), cfg)
    assert sched.lambdas == (4.0, 8.0) and sched.config is cfg


def test_run_penalty_feasible_start_is_fixed():
    # unconstrained minimizer already strictly inside the ball: every stage
    # stays put and reports zero penalty
    a = np.array([0.2, -0.1])
    h0 = CallableSmooth(
        lambda x: 0.5 * float((x - a) @ (x - a)), lambda x: x - a, 1.0
    )
    ball = BallSpec(np.zeros(2), 1.0)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=2000, stop_step_norm=1e-10)
    sched = PenaltySchedule((4.0, 8.0, 16.0), cfg)
    sols, diag = run_penalty(_problem(h0, ZeroFunction(), 2), ball, sched, a.copy())
    for x, pen in zip(sols, diag.penalty_values):
        assert np.linalg.norm(x - a) < 1e-8
        assert pen < 1e-12


def test_run_penalty_linear_objective_toy():
    # minimize x over [-1, 1]: stage solutions are -1 - 1/lam
    h0 = CallableSmooth(lambda x: float(x[0]), lambda x: np.ones(1), 0.0)
    ball = BallSpec(np.zeros(1), 1.0)
    lambdas = tuple(4.0 * 2**j for j in range(6))
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=8000, stop_step_norm=1e-8)
    sols, diag = run_penalty(_problem(h0, ZeroFunction(), 1), ball,
                             PenaltySchedule(lambdas, cfg), np.zeros(1))
    tol = 1e-6
    for lam, x in zip(lambdas, sols):
        assert abs(x[0] - (-1.0 - 1.0 / lam)) < 1e-3
    q = diag.penalized_values
    pen = diag.penalty_values
    f = diag.objective_values
    for j in range(len(lambdas) - 1):
        assert q[j] <= q[j + 1] + tol
        assert pen[j] >= pen[j + 1] - tol
        assert f[j] <= f[j + 1] + tol
    # sandwich around the true constrained value f* = -1
    f_star = -1.0
    for qj, fj in zip(q, f):
        assert f_star >= qj - tol
        assert qj >= fj - 2 * tol
    assert pen[-1] < 1e-3
    # closed form q(lam, x_lam) = -1 - 1/(2 lam)
    assert abs(q[-1] - (-1.0 - 0.5 / lambdas[-1])) < 1e-4


def test_run_penalty_single_anchor_dispersion():
    # one anchor at the origin: pushing away from it against the ball penalty
    # settles at |x| = lam/(lam-2) with penalized value -lam/(lam-2)
    g = SupAffineFamily(np.zeros((1, 3)), np.zeros(1), 1.0)
    ball = BallSpec(np.zeros(3), 1.0)
    lambdas = tuple(4.0 * 2**j for j in range(6))
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=2000, stop_step_norm=3e-7)
    sols, diag = run_penalty(_problem(ZeroSmooth(), g, 3), ball, PenaltySchedule(lambdas, cfg),
                             np.array([0.5, 0.0, 0.0]))
    lam_last = lambdas[-1]
    assert abs(diag.penalized_values[-1] - (-lam_last / (lam_last - 2.0))) < 1e-3
    assert diag.penalty_values[-1] < 1e-3
    # infeasibility shrinks across stages
    assert diag.penalty_values[0] > diag.penalty_values[-1]


def test_run_penalty_stage_failure_carries_progress(monkeypatch):
    # a weight iteration capped at one step cannot converge, so the first
    # stage fails and the error carries the (empty) completed prefix
    monkeypatch.setattr(prox, "_ACTIVE_SET_STEPS", 1)
    rng = np.random.default_rng(52)
    g = SupAffineFamily(rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, 3), 1.0)
    ball = BallSpec(np.zeros(2), 1.0)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=50, stop_step_norm=0.0)
    with pytest.raises(StageError) as exc:
        run_penalty(_problem(ZeroSmooth(), g, 2), ball, PenaltySchedule((4.0, 8.0), cfg),
                    np.zeros(2))
    err = exc.value
    assert err.completed == []
    assert err.diagnostics is not None
    assert err.__cause__ is not None


def test_run_penalty_stages_take_the_epsilon_stop():
    # a schedule config with epsilon stops every stage on the doubling
    # windows; a stage that exhausts its budget first fails the schedule
    h0 = CallableSmooth(lambda x: float(x[0]), lambda x: np.ones(1), 0.0)
    ball = BallSpec(np.zeros(1), 1.0)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=10.0, max_iter=5, epsilon=1e6)
    sols, diag = run_penalty(_problem(h0, ZeroFunction(), 1), ball,
                             PenaltySchedule((4.0, 8.0), cfg), np.zeros(1))
    assert diag.stop_reasons == ["epoch_stationarity"] * 2
    assert diag.stage_iterations == [1, 1]
    tight = PenaltySchedule((4.0, 8.0), SolverConfig(alpha=1.0 / 3.0, C=10.0,
                                                     max_iter=5, epsilon=1e-12))
    with pytest.raises(StageError) as exc:
        run_penalty(_problem(h0, ZeroFunction(), 1), ball, tight, np.zeros(1))
    assert exc.value.completed == []
    assert exc.value.__cause__.trace.stop_reason == "budget_exhausted"


@pytest.mark.parametrize("length", [2, 4])
def test_run_penalty_stages_inherit_the_problem_dimension(length):
    # every stage keeps the problem's dim, so a start of the wrong length
    # fails the first stage on the solver's shape check, not inside numpy
    rng = np.random.default_rng(53)
    g = SupAffineFamily(rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 4), 1.0)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=50)
    with pytest.raises(StageError) as exc:
        run_penalty(_problem(ZeroSmooth(), g, 3), BallSpec(np.zeros(3), 1.0),
                    PenaltySchedule((4.0, 8.0), cfg), np.zeros(length))
    assert exc.value.completed == []
    assert isinstance(exc.value.__cause__, ContractError)
    assert "x1 must be a flat vector of length 3" in str(exc.value)
