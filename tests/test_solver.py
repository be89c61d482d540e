from dataclasses import replace

import numpy as np
import pytest

from pvsmooth.core import (
    CallableProx,
    CallableSmooth,
    CompositeProblem,
    IdentityMap,
    SubspaceProjector,
    ZeroFunction,
)
from pvsmooth.errors import (
    ContractError,
    ConvergenceError,
    DomainError,
    NumericalError,
    StageError,
)
from pvsmooth.problems import (
    LassoInstance,
    MaxDispersionInstance,
    build_constrained_lasso,
    build_max_dispersion_direct,
    build_max_dispersion_product,
    random_anchors,
    random_lasso_data,
    subspace_start,
)
from pvsmooth.projections import KernelProjector, project_ball, project_simplex
from pvsmooth.prox import L1Penalty, SupQuadraticFamily
from pvsmooth.solver import (
    SolverConfig,
    affine_shift_wrap,
    epoch_iteration_budget,
    epoch_stationarity_constant,
    pvs_step,
    run_pvs,
    schedule,
    stationarity_constant,
    theorem_bound_margins,
)


def lasso_problem(f_star=8.624940891969):
    design, target = random_lasso_data(5, 8, 31)
    constraint = np.random.default_rng(32).standard_normal((2, 5))
    inst = LassoInstance(
        design,
        target,
        L1Penalty(1.0, lipschitz=np.sqrt(5.0)),
        constraint_matrix=constraint,
        f_star=f_star,
    )
    return build_constrained_lasso(inst)


def quadratic_target_problem(a, projector):
    h = CallableSmooth(
        lambda x: 0.5 * float((x - a) @ (x - a)), lambda x: x - a, 1.0
    )
    return CompositeProblem(h, ZeroFunction(), IdentityMap(), projector,
                            dim=a.size)


# ---------------------------------------------------------------------------
# configuration and schedule
# ---------------------------------------------------------------------------

def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(alpha=0.0, C=0.25, max_iter=10)
    with pytest.raises(DomainError):
        SolverConfig(alpha=1.0, C=0.25, max_iter=10)
    with pytest.raises(DomainError):
        SolverConfig(alpha=0.5, C=0.0, max_iter=10)
    with pytest.raises(DomainError):
        SolverConfig(alpha=0.5, C=0.25, max_iter=-1)
    with pytest.raises(DomainError):
        SolverConfig(alpha=0.5, C=0.25, max_iter=10, stop_step_norm=-1.0)
    with pytest.raises(DomainError):
        SolverConfig(alpha=0.5, C=0.25, max_iter=10, epsilon=0.0)
    with pytest.raises(DomainError):
        SolverConfig(alpha=0.5, C=0.25, max_iter=10.5)
    with pytest.raises(DomainError):
        SolverConfig(alpha=0.5, C=0.25, max_iter=10, stop_step_norm=float("nan"))


def test_solver_config_weak_convexity_pairing():
    sup = SupQuadraticFamily(np.zeros((2, 1)))  # rho = 2
    SolverConfig(alpha=0.5, C=0.25, max_iter=1).validate_for(sup)
    with pytest.raises(DomainError):
        SolverConfig(alpha=0.5, C=0.3, max_iter=1).validate_for(sup)
    # convex g puts no restriction on C
    SolverConfig(alpha=0.5, C=100.0, max_iter=1).validate_for(
        L1Penalty(1.0)
    )


def test_schedule_values():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1)
    mu1, _, _ = schedule(cfg, prob, 1)
    assert mu1 == 0.25
    mu8, _, _ = schedule(cfg, prob, 8)
    assert mu8 == 0.125
    with pytest.raises(DomainError):
        schedule(cfg, prob, 0)


def test_schedule_step_size_example():
    # L_h = 100 and a unit map: gamma_1 = mu_1 / (1 + 100 mu_1) = 0.25/26
    h = CallableSmooth(lambda x: 50.0 * float(x @ x), lambda x: 100.0 * x, 100.0)
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    prob = CompositeProblem(h, ZeroFunction(), IdentityMap(), proj, dim=3)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1)
    _, lip, gamma = schedule(cfg, prob, 1)
    assert lip == 104.0
    assert gamma == 0.25 / 26.0


def test_trace_schedule_exactness():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=50, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    for j, k in enumerate(trace.k):
        mu = cfg.C * float(k) ** (-cfg.alpha)
        assert trace.mu[j] == mu
        lip = prob.h.lip_grad + prob.a_map.norm_bound**2 / mu
        assert trace.gamma[j] == 1.0 / lip


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_pvs_step_critical_point_fixed():
    proj = KernelProjector(np.array([[0.0, 1.0]]))  # span{e1}
    h = CallableSmooth(lambda x: 0.5 * float(x @ x), lambda x: x, 1.0)
    prob = CompositeProblem(h, ZeroFunction(), IdentityMap(), proj, dim=2)
    cfg = SolverConfig(alpha=0.5, C=0.25, max_iter=1)
    out = pvs_step(prob, cfg, 1, np.zeros(2))
    assert np.array_equal(out, np.zeros(2))


def test_pvs_step_requires_subspace_membership():
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    prob = quadratic_target_problem(np.array([1.0, 2.0, 4.0]), proj)
    cfg = SolverConfig(alpha=0.5, C=0.25, max_iter=1)
    with pytest.raises(ContractError):
        pvs_step(prob, cfg, 1, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ContractError):
        run_pvs(prob, cfg, np.array([1.0, 1.0, 1.0]))


def test_nan_start_is_not_in_the_subspace():
    # a NaN drift passed the old `drift > tol` test, and the run died in
    # project_simplex with a bare IndexError and no trace; an infinite start
    # warned in x - P x before it was rejected
    prob, _ = seeded_direct_dispersion()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=5, stop_step_norm=0.0,
                       epsilon=1e-9)
    for bad in (np.nan, np.inf):
        x = np.array([bad, 0.0, 0.0])
        for eps in (None, 1e-9):
            with pytest.raises(ContractError, match="not in the constraint subspace"):
                run_pvs(prob, replace(cfg, epsilon=eps), x)
        with pytest.raises(ContractError, match="not in the constraint subspace"):
            pvs_step(prob, cfg, 1, x)


def test_pvs_step_is_the_run_loop_step():
    prob = lasso_problem()
    dispersion, x_disp = seeded_direct_dispersion()
    for problem, x1 in ((prob, subspace_start(prob.subspace, prob.dim)),
                        (dispersion, x_disp)):
        cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1, stop_step_norm=0.0)
        trace = run_pvs(problem, cfg, x1)
        assert trace.iterations == 1
        assert np.array_equal(pvs_step(problem, cfg, 1, x1), trace.final_x)


def test_iteration_converges_to_projected_target():
    a = np.array([1.0, 2.0, 4.0])
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    prob = quadratic_target_problem(a, proj)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=2000, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, np.zeros(3))
    assert np.linalg.norm(trace.final_x - proj.apply(a)) < 1e-9


def test_pvs_step_matches_penalized_dispersion_closed_form():
    # with h = (lam/2) d(., B)^2 and a unit map, one step collapses to
    # P_V((lam mu P_B(x) + prox(x)) / (1 + lam mu))
    anchors = random_anchors(3, 5, 7)
    constraint = np.random.default_rng(8).standard_normal((2, 3))
    inst = MaxDispersionInstance(anchors, radius=1.0, lam=100.0,
                                 constraint_matrix=constraint)
    prob = build_max_dispersion_direct(inst)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1)
    x = subspace_start(prob.subspace, prob.dim)
    for k in (1, 7, 40):
        mu = cfg.C * float(k) ** (-cfg.alpha)
        lam = inst.lam
        closed = prob.subspace.apply(
            (lam * mu * project_ball(prob.h.ball, x) + prob.g.prox(mu, x))
            / (1.0 + lam * mu)
        )
        assert np.linalg.norm(pvs_step(prob, cfg, k, x) - closed) < 1e-10
        x = closed


def test_single_step_descent_inequality():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1)
    x = subspace_start(prob.subspace, prob.dim)
    for k in range(1, 151):
        mu, _, gamma = schedule(cfg, prob, k)
        val, grad, _ = prob.smoothed_parts(mu, x)
        pgn = np.linalg.norm(prob.subspace.apply(grad))
        x_next = pvs_step(prob, cfg, k, x)
        val_next = prob.smoothed_parts(mu, x_next)[0]
        assert val_next <= val - 0.5 * gamma * pgn**2 + 1e-9
        x = x_next


def test_iterates_stay_in_subspace():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1)
    x = subspace_start(prob.subspace, prob.dim)
    for k in range(1, 51):
        x = pvs_step(prob, cfg, k, x)
        drift = np.linalg.norm(x - prob.subspace.apply(x))
        assert drift <= 1e-9 * (1.0 + np.linalg.norm(x))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_pvs_zero_iterations():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=0)
    x1 = subspace_start(prob.subspace, prob.dim)
    trace = run_pvs(prob, cfg, x1)
    assert len(trace) == 1
    assert trace.iterations == 0
    assert trace.stop_reason == "max_iter"
    assert np.array_equal(trace.final_x, x1)


def test_run_pvs_step_norm_stop():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=10**6,
                       stop_step_norm=1e-5)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    assert trace.stop_reason == "step_norm"
    assert trace.iterations < 10**6


def test_run_pvs_theorem_bounds_hold():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=2000, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    grad_margin, prox_margin, heuristic = theorem_bound_margins(prob, trace)
    assert not heuristic
    assert grad_margin.min() > -1e-9
    assert prox_margin.min() > -1e-9


def test_descent_with_smoothing_correction():
    prob = lasso_problem()
    lg = prob.g.lipschitz
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=2000, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    obj = np.asarray(trace.objective)
    gam = np.asarray(trace.gamma)
    pgn = np.asarray(trace.proj_grad_norm)
    mu = np.asarray(trace.mu)
    lhs = obj[1:]
    rhs = obj[:-1] - 0.5 * gam[:-1] * pgn[:-1] ** 2 + (mu[:-1] - mu[1:]) * lg**2
    assert np.all(lhs <= rhs + 1e-8)


def test_run_pvs_numerical_blowup_carries_trace():
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    # gradient map declared far smoother than it is: the step is much too
    # long and the iteration diverges to overflow
    h = CallableSmooth(lambda x: -5.0 * float(x @ x), lambda x: -10.0 * x, 0.001)
    prob = CompositeProblem(h, ZeroFunction(), IdentityMap(), proj, dim=3)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=3000, stop_step_norm=0.0)
    x1 = proj.apply(np.array([1.0, -0.5, 0.2]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as exc:
            run_pvs(prob, cfg, x1)
    trace = exc.value.trace
    assert trace is not None
    assert len(trace) > 1
    assert trace.stop_reason == "numerical_error"
    assert trace.iterations == len(trace) - 1


def test_component_numerical_error_is_a_component_error():
    # a NumericalError raised by the prox is not the loop's own finiteness
    # check: the run ends with component_error and keeps its partial trace
    calls = []

    def prox_fn(mu, y):
        calls.append(mu)
        if len(calls) > 5:
            raise NumericalError("prox broke down")
        return np.sign(y) * np.maximum(np.abs(y) - mu, 0.0)

    g = CallableProx(lambda y: float(np.abs(y).sum()), prox_fn)
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    h = CallableSmooth(lambda x: 0.5 * float(x @ x), lambda x: x, 1.0)
    prob = CompositeProblem(h, g, IdentityMap(), proj)
    x1 = proj.apply(np.array([3.0, -1.0, 0.5]))
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=50, stop_step_norm=0.0,
                       epsilon=1e-12)
    for eps in (None, 1e-12):
        calls.clear()
        with pytest.raises(NumericalError) as exc:
            run_pvs(prob, replace(cfg, epsilon=eps), x1)
        trace = exc.value.trace
        assert trace.stop_reason == "component_error"
        assert trace.iterations == len(trace) == 5
        assert trace.final_x.shape == (3,)


def test_errors_carry_no_trace_until_a_run_attaches_one():
    for exc in (DomainError("bad mu"), ContractError("not in V"),
                StageError("stage failed"), NumericalError("nan")):
        assert exc.trace is None


def seeded_direct_dispersion(max_iter=None):
    # 10 anchors in R^3 on ker(1,1,1), lambda = 100: the direct form runs the
    # sup-affine prox on every evaluation
    inst = MaxDispersionInstance(random_anchors(3, 10, 47), radius=1.0, lam=100.0,
                                 constraint_matrix=np.ones((1, 3)))
    prob = build_max_dispersion_direct(inst)
    if max_iter is not None:
        # the active set needs at most 2 steps per prox on this run; the
        # simplex given as a pair runs plain FISTA, whose 50-step budget
        # runs out partway through
        prob.g.ambiguity = (project_simplex, np.max)
        prob.g.max_iter = max_iter
    return prob, subspace_start(prob.subspace, 3)


def test_run_pvs_inner_failure_carries_partial_trace():
    prob, x1 = seeded_direct_dispersion(max_iter=50)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=60, stop_step_norm=0.0)
    with pytest.raises(ConvergenceError) as exc:
        run_pvs(prob, cfg, x1)
    trace = exc.value.trace
    assert trace is not None
    assert trace.stop_reason == "component_error"
    assert 0 < trace.iterations == len(trace) < 60
    assert abs(float(trace.final_x.sum())) < 1e-9


def test_epsilon_run_inner_failure_carries_partial_trace():
    prob, x1 = seeded_direct_dispersion(max_iter=50)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=60, stop_step_norm=0.0,
                       epsilon=1e-9)
    with pytest.raises(ConvergenceError) as exc:
        run_pvs(prob, cfg, x1)
    trace = exc.value.trace
    assert trace is not None
    assert trace.stop_reason == "component_error"
    assert 0 < trace.iterations == len(trace) < 60
    assert trace.final_x.shape == (3,)


def test_direct_dispersion_inner_work_per_prox():
    # work-count guard for the sup-affine prox: warm-started from the last
    # certified support, the active set takes 62 steps over the 61 calls of
    # this run, where a cold start takes 106 (plain FISTA takes about 75
    # iterations per call)
    prob, x1 = seeded_direct_dispersion()
    counts = []
    detailed = prob.g.prox_detailed

    def counted(mu, x):
        out = detailed(mu, x)
        counts.append(out[2])
        return out

    prob.g.prox_detailed = counted
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=60, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, x1)
    assert trace.iterations == 60
    assert len(counts) == 61
    assert sum(counts) == 62


def test_direct_dispersion_solves_again_to_the_same_floats():
    # the second run's proxes start from the supports the first run left on
    # the problem's warm copy, and must still give the same trace
    prob, x1 = seeded_direct_dispersion()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=60, stop_step_norm=0.0)
    first, second = run_pvs(prob, cfg, x1), run_pvs(prob, cfg, x1)
    for column in ("k", "mu", "gamma", "objective", "proj_grad_norm", "prox_residual"):
        assert getattr(first, column) == getattr(second, column), column
    assert np.array_equal(first.final_x, second.final_x)
    assert (first.iterations, first.stop_reason) == (second.iterations, second.stop_reason)


def test_run_pvs_projects_once_per_step():
    prob = lasso_problem()
    calls = []
    apply = prob.subspace.apply

    def counted(x):
        calls.append(1)
        return apply(x)

    prob.subspace.apply = counted
    x1 = subspace_start(prob.subspace, prob.dim)
    for steps in (0, 1, 25):
        calls.clear()
        cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=steps, stop_step_norm=0.0)
        trace = run_pvs(prob, cfg, x1)
        assert trace.iterations == steps
        # start check, one projected gradient per trace row, end check
        assert len(calls) == 1 + (steps + 1) + 1


class AffineProjector(SubspaceProjector):
    """Projection onto the affine plane {x : a . x = b}; not linear for b != 0,
    so x - gamma P(grad) leaves the plane."""

    def __init__(self, a, b):
        self.a, self.b = np.asarray(a, dtype=float), float(b)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return x - self.a * ((self.a @ x - self.b) / (self.a @ self.a))


def test_final_iterate_membership_is_checked():
    proj = AffineProjector(np.ones(3), 1.0)
    prob = quadratic_target_problem(np.array([1.0, 2.0, 4.0]), proj)
    x1 = np.full(3, 1.0 / 3.0)  # on the plane: the start check passes
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=5, stop_step_norm=0.0)
    with pytest.raises(ContractError) as exc:
        run_pvs(prob, cfg, x1)
    trace = exc.value.trace
    assert trace.stop_reason == "component_error"
    assert trace.iterations == 5 and len(trace) == 6
    # both exits of the epsilon stop: the stationarity stop and the budget
    for eps in (1e6, 1e-12):
        with pytest.raises(ContractError) as exc:
            run_pvs(prob, replace(cfg, epsilon=eps), x1)
        assert exc.value.trace.stop_reason == "component_error"
        assert len(exc.value.trace) == exc.value.trace.iterations + 1


# ---------------------------------------------------------------------------
# epsilon stop
# ---------------------------------------------------------------------------

def test_epochs_huge_epsilon_stops_immediately():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=100, stop_step_norm=0.0,
                       epsilon=1e6)
    x1 = subspace_start(prob.subspace, prob.dim)
    trace = run_pvs(prob, cfg, x1)
    assert trace.iterations == 1
    assert trace.stop_reason == "epoch_stationarity"
    assert np.array_equal(pvs_step(prob, cfg, 1, x1), trace.final_x)


def test_epochs_stop_meets_both_thresholds():
    # alpha = 1/3 makes the prox-residual threshold equal to epsilon itself.
    # At eps = 0.145 the projected gradient norm rises for a few steps after
    # step 25, so no window best meets eps until window [32, 64) opens at
    # step 32; with no reset at 2^l the run would stop at step 54
    prob = lasso_problem()
    for eps, steps in ((0.1, 88), (0.145, 32)):  # deterministic runs
        cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=10**6,
                           stop_step_norm=0.0, epsilon=eps)
        trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
        assert trace.stop_reason == "epoch_stationarity"
        assert trace.best_grad_norm <= eps
        assert trace.prox_residual[-1] <= eps
        assert trace.iterations == steps

        budget = epoch_iteration_budget(prob, cfg, trace.objective[0],
                                        prob.f_star, eps)
        assert trace.iterations <= budget


def test_epochs_budget_exhaustion():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=10, stop_step_norm=0.0,
                       epsilon=1e-9)
    with pytest.raises(ConvergenceError) as exc:
        run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    err = exc.value
    assert err.trace.stop_reason == "budget_exhausted"
    assert err.best is not None
    assert err.iterations == 10
    pgn = err.trace.proj_grad_norm
    assert err.residual == err.trace.best_grad_norm == min(pgn[1:])
    assert err.trace.best_index == 2 + int(np.argmin(pgn[1:]))
    assert np.array_equal(err.trace.final_x, err.best)

    # a zero budget ends at once, handing back the start
    x1 = subspace_start(prob.subspace, prob.dim)
    with pytest.raises(ConvergenceError) as exc:
        run_pvs(prob, replace(cfg, max_iter=0), x1)
    err = exc.value
    assert err.iterations == 0 and len(err.trace) == 1
    assert err.trace.best_index == 1 and err.trace.best_grad_norm == np.inf
    assert np.array_equal(err.best, x1)


def test_run_pvs_and_epochs_share_the_iteration():
    # no iterate meets epsilon, so the epsilon run takes the step-norm run's
    # steps until its budget runs out
    prob = lasso_problem()
    x1 = subspace_start(prob.subspace, prob.dim)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=200, stop_step_norm=0.0,
                       epsilon=1e-12)
    plain = run_pvs(prob, replace(cfg, epsilon=None), x1)
    with pytest.raises(ConvergenceError) as exc:
        run_pvs(prob, cfg, x1)
    epochs = exc.value.trace
    assert epochs.stop_reason == "budget_exhausted"
    assert epochs.iterations == plain.iterations == 200
    for column in ("k", "mu", "gamma", "objective", "proj_grad_norm", "prox_residual"):
        assert (np.asarray(getattr(epochs, column)).tobytes()
                == np.asarray(getattr(plain, column)).tobytes())


def test_epsilon_run_ignores_the_step_norm_stop():
    # every step is shorter than 1e6, yet a set epsilon stops only on the
    # windows or the budget
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=10, stop_step_norm=1e6,
                       epsilon=1e-9)
    with pytest.raises(ConvergenceError) as exc:
        run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    assert exc.value.trace.stop_reason == "budget_exhausted"
    assert exc.value.iterations == exc.value.trace.iterations == 10


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_stationarity_constants_frozen_values():
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    h = CallableSmooth(lambda x: float(x @ x), lambda x: 2.0 * x, 2.0)
    g = L1Penalty(1.0, lipschitz=3.0)
    prob = CompositeProblem(h, g, IdentityMap(), proj, dim=3)
    cfg = SolverConfig(alpha=0.5, C=0.25, max_iter=0)
    c = stationarity_constant(prob, cfg, 10.0, 0.0)
    assert abs(c - 18.838508265487608) < 1e-9
    ce = epoch_stationarity_constant(prob, cfg, 10.0, 0.0)
    assert abs(ce - 13.320836941965114) < 1e-9
    assert abs(ce - np.sqrt(0.5) * c) < 1e-12
    budget = epoch_iteration_budget(prob, cfg, 10.0, 0.0, 0.01)
    assert abs(budget / 6297324086932.02 - 1.0) < 1e-9

    nolip = CompositeProblem(h, SupQuadraticFamily(np.zeros((1, 3))),
                             IdentityMap(), proj, dim=3)
    with pytest.raises(DomainError):
        stationarity_constant(nolip, cfg, 10.0, 0.0)


def test_theorem_bound_margins_hold_over_the_trace():
    prob = lasso_problem()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=500, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    grad_margin, prox_margin, heuristic = theorem_bound_margins(prob, trace)
    assert not heuristic
    assert grad_margin.shape == prox_margin.shape == (len(trace),)

    # the gradient bound k^((alpha-1)/2) Cbar over the running minimum of the
    # observed projected gradient norms, with Cbar from f_star
    ks = np.asarray(trace.k, dtype=float)
    cbar = stationarity_constant(prob, cfg, trace.objective[0], prob.f_star)
    grad_bound = ks ** ((cfg.alpha - 1.0) / 2.0) * cbar
    assert np.array_equal(grad_margin, grad_bound - trace.running_min_grad())
    assert trace.running_min_grad()[-1] == min(trace.proj_grad_norm)
    # the residual bound k^(-alpha) C L_g over the observed prox residuals
    prox_bound = ks ** (-cfg.alpha) * cfg.C * prob.g.lipschitz
    assert np.array_equal(prox_margin, prox_bound - np.asarray(trace.prox_residual))
    # both bounds hold at every recorded index
    assert grad_margin.min() >= 0.0 and prox_margin.min() >= 0.0


def test_theorem_bound_margins_heuristic_without_reference():
    prob = lasso_problem(f_star=None)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=200, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    grad_margin, prox_margin, heuristic = theorem_bound_margins(prob, trace)
    assert heuristic
    # L_g is known, so both margins exist; the observed minimum objective
    # stands in for the missing reference
    assert grad_margin.shape == prox_margin.shape == (len(trace),)
    ks = np.asarray(trace.k, dtype=float)
    cbar = stationarity_constant(prob, cfg, trace.objective[0], min(trace.objective))
    grad_bound = ks ** ((cfg.alpha - 1.0) / 2.0) * cbar
    assert np.array_equal(grad_margin, grad_bound - trace.running_min_grad())
    assert grad_margin.min() >= 0.0 and prox_margin.min() >= 0.0


def test_non_lipschitz_residual_over_mu_bounded():
    anchors = random_anchors(3, 4, 9)
    inst = MaxDispersionInstance(anchors, radius=1.0, lam=100.0)
    prob = build_max_dispersion_product(inst)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=500, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
    ratio = np.asarray(trace.prox_residual) / np.asarray(trace.mu)
    assert np.all(np.isfinite(ratio))
    assert ratio.max() < 1e3

    grad_margin, prox_margin, heuristic = theorem_bound_margins(prob, trace)
    assert grad_margin is None and prox_margin is None and heuristic


# ---------------------------------------------------------------------------
# affine subspaces
# ---------------------------------------------------------------------------

def test_affine_shift_zero_is_identity():
    prob = lasso_problem()
    wrapped = affine_shift_wrap(prob, np.zeros(prob.dim))
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = prob.subspace.apply(rng.normal(0, 1, prob.dim))
        assert abs(wrapped.objective(x) - prob.objective(x)) < 1e-12
        assert np.abs(wrapped.h.grad(x) - prob.h.grad(x)).max() < 1e-12
        assert np.abs(wrapped.g.prox(0.2, x) - prob.g.prox(0.2, x)).max() < 1e-12


def test_affine_shift_soft_threshold_identity():
    proj = KernelProjector(np.array([[1.0, 1.0, 1.0]]))
    h = CallableSmooth(lambda x: 0.0, lambda x: np.zeros_like(x), 0.1)
    g = L1Penalty(1.0)
    prob = CompositeProblem(h, g, IdentityMap(), proj, dim=3)
    e1 = np.array([1.0, 0.0, 0.0])
    wrapped = affine_shift_wrap(prob, e1)
    rng = np.random.default_rng(43)
    for _ in range(10):
        y = rng.normal(0, 2, 3)
        expect = g.prox(0.3, y + e1) - e1
        assert np.abs(wrapped.g.prox(0.3, y) - expect).max() < 1e-12


def test_affine_shift_least_squares():
    rng = np.random.default_rng(41)
    design = rng.standard_normal((8, 5)) / np.sqrt(8)
    target = rng.standard_normal(8)
    constraint = rng.standard_normal((2, 5))
    offset = np.array([0.7, -0.3])
    z0 = np.linalg.lstsq(constraint, offset, rcond=None)[0]
    proj = KernelProjector(constraint)
    h = CallableSmooth(
        lambda w: 0.5 * float((design @ w - target) @ (design @ w - target)),
        lambda w: design.T @ (design @ w - target),
        float(np.linalg.norm(design, 2) ** 2),
    )
    base = CompositeProblem(h, ZeroFunction(), IdentityMap(), proj, dim=5)
    shifted = affine_shift_wrap(base, z0)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=4000, stop_step_norm=0.0)
    trace = run_pvs(shifted, cfg, np.zeros(5))
    recovered = trace.final_x + z0

    # reference through the stationarity system of the constrained problem
    kkt = np.block([
        [design.T @ design, constraint.T],
        [constraint, np.zeros((2, 2))],
    ])
    rhs = np.concatenate([design.T @ target, offset])
    reference = np.linalg.solve(kkt, rhs)[:5]
    assert np.linalg.norm(recovered - reference) < 1e-6


# ---------------------------------------------------------------------------
# scalar inequalities behind the epoch analysis
# ---------------------------------------------------------------------------

def test_doubling_window_inequality():
    ks = np.unique(np.round(np.logspace(0, 6, 80)).astype(int))
    for alpha in np.arange(0.1, 0.95, 0.1):
        e = 1.0 - alpha
        lhs = (ks + 1.0) ** e - 1.0
        rhs = (2.0**e - 1.0) * ks.astype(float) ** e
        assert np.all(lhs >= rhs - 1e-9 * np.maximum(1.0, rhs))


def test_shifted_window_inequality():
    rng = np.random.default_rng(44)
    for _ in range(200):
        alpha = rng.uniform(0.1, 0.9)
        n = int(rng.integers(1, 1000))
        e = 1.0 - alpha
        theta = (1.0 + 1.0 / n) ** e - 1.0
        if theta >= 0.5:
            continue
        k = int(rng.integers(n, 10**6))
        lhs = (k + 1.0) ** e - float(n) ** e
        rhs = theta * float(k) ** e
        assert lhs >= rhs - 1e-9 * max(1.0, rhs)
