import numpy as np
import pytest
from numpy.random import default_rng

from pvsmooth.errors import ContractError, DomainError
from pvsmooth.oracles import fd_gradient, reference_constrained_lasso
from pvsmooth.problems import (
    FirstBlockBallPenalty,
    LassoInstance,
    MaxDispersionInstance,
    ProductBallPenalty,
    QuadraticLoss,
    build_constrained_lasso,
    build_dro_affine,
    build_dro_quadratic,
    build_max_dispersion_direct,
    build_max_dispersion_product,
    dispersion_objective,
    random_affine_scenarios,
    random_anchors,
    random_lasso_data,
    subspace_start,
)
from pvsmooth.projections import BallSpec, KernelProjector
from pvsmooth.prox import (
    L1Penalty,
    MCPPenalty,
    SCADPenalty,
    SupQuadraticFamily,
    TukeyPenalty,
)
from pvsmooth.solver import SolverConfig, pvs_step, run_pvs, schedule

R_SUM = np.array([[1.0, 1.0, 1.0]])


# ---------------------------------------------------------------------------
# smooth building blocks
# ---------------------------------------------------------------------------

def test_quadratic_loss_value_grad_lip():
    rng = default_rng(0)
    design = rng.standard_normal((6, 4))
    target = rng.standard_normal(6)
    h = QuadraticLoss(design, target)
    x = rng.standard_normal(4)
    r = design @ x - target
    assert abs(h.value(x) - r @ r) < 1e-12
    assert np.abs(h.grad(x) - fd_gradient(h.value, x)).max() < 1e-5
    true = 2.0 * np.linalg.norm(design, 2) ** 2
    assert true - 1e-9 <= h.lip_grad <= 1.05 * true


def test_quadratic_loss_sample_count_mismatch():
    with pytest.raises(DomainError):
        QuadraticLoss(np.ones((3, 2)), np.ones(4))
    design, target = random_lasso_data(5, 8, 0)
    with pytest.raises(DomainError):
        QuadraticLoss(design, target.reshape(-1, 1))


def test_first_block_penalty_only_sees_block_one():
    ball = BallSpec(np.zeros(2), 1.0)
    h = FirstBlockBallPenalty(ball, 10.0, 3)
    x = np.array([3.0, 0.0, 9.0, 9.0, -7.0, 5.0])  # blocks 2,3 far outside
    assert abs(h.value(x) - 0.5 * 10.0 * 4.0) < 1e-12
    g = h.grad(x)
    assert np.abs(g[:2] - np.array([20.0, 0.0])).max() < 1e-12
    assert np.all(g[2:] == 0.0)


def test_product_ball_penalty_sums_blocks():
    ball = BallSpec(np.zeros(2), 1.0)
    h = ProductBallPenalty(ball, 4.0, 2)
    x = np.array([2.0, 0.0, 0.0, -3.0])
    assert abs(h.value(x) - 0.5 * 4.0 * (1.0 + 4.0)) < 1e-12
    assert np.abs(h.grad(x) - np.array([4.0, 0.0, 0.0, -8.0])).max() < 1e-12


# ---------------------------------------------------------------------------
# max dispersion
# ---------------------------------------------------------------------------

def test_dispersion_objective_formula():
    anchors = random_anchors(3, 4, 21)
    rng = default_rng(22)
    for _ in range(10):
        x = 3.0 * rng.standard_normal(3)
        expected = 0.5 * 7.0 * max(np.linalg.norm(x) - 1.0, 0.0) ** 2 + max(
            -np.sum((x - u) ** 2) for u in anchors
        )
        assert abs(dispersion_objective(anchors, 1.0, 7.0, x) - expected) < 1e-12


def test_dispersion_builders_match_objective_formula():
    anchors = random_anchors(3, 4, 23)
    inst = MaxDispersionInstance(anchors, 1.0, 9.0, R_SUM)
    direct = build_max_dispersion_direct(inst)
    product = build_max_dispersion_product(inst)
    rng = default_rng(24)
    for _ in range(5):
        x = 2.0 * rng.standard_normal(3)
        f = dispersion_objective(anchors, 1.0, 9.0, x)
        assert abs(direct.objective(x) - f) < 1e-12
        assert abs(product.objective(np.tile(x, 4)) - f) < 1e-12


def test_dispersion_coercivity_guards():
    inst = MaxDispersionInstance(np.zeros((1, 3)), 1.0, 2.0)
    with pytest.raises(DomainError):
        build_max_dispersion_direct(inst)
    with pytest.raises(DomainError):
        build_max_dispersion_product(inst)
    inst = MaxDispersionInstance(np.zeros((1, 3)), -1.0, 5.0)
    with pytest.raises(DomainError):
        build_max_dispersion_direct(inst)
    with pytest.raises(DomainError):
        build_max_dispersion_product(inst)


def test_single_anchor_analytic_optimum():
    # One anchor at the origin: along any ray the objective is
    # (lam/2) max(t-1, 0)^2 - t^2, minimized at t = lam/(lam-2) with value
    # -lam/(lam-2).
    inst = MaxDispersionInstance(np.zeros((1, 3)), 1.0, 100.0, R_SUM)
    prob = build_max_dispersion_direct(inst)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=50000, stop_step_norm=1e-8)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, 3))
    x = trace.final_x
    assert trace.stop_reason == "step_norm"
    assert abs(dispersion_objective(inst.anchors, 1.0, 100.0, x) + 50.0 / 49.0) < 1e-3
    assert abs(np.linalg.norm(x) - 100.0 / 98.0) < 1e-3
    assert np.abs(R_SUM @ x).max() < 1e-9


def test_single_anchor_product_form_agrees():
    inst = MaxDispersionInstance(np.zeros((1, 3)), 1.0, 100.0, R_SUM)
    prob = build_max_dispersion_product(inst)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=50000, stop_step_norm=1e-8)
    trace = run_pvs(prob, cfg, subspace_start(prob.subspace, 3))
    assert abs(
        dispersion_objective(inst.anchors, 1.0, 100.0, trace.final_x) + 50.0 / 49.0
    ) < 1e-3


def test_product_form_degenerates_to_direct_for_one_anchor():
    # With a single block the replicated subspace, the sup-quadratic prox and
    # the first-block penalty all collapse to their direct-form counterparts,
    # so the two formulations produce the same floats step for step.
    inst = MaxDispersionInstance(np.zeros((1, 3)), 1.0, 100.0, R_SUM)
    direct = build_max_dispersion_direct(inst)
    product = build_max_dispersion_product(inst)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1000, stop_step_norm=0.0)
    xd = subspace_start(direct.subspace, 3)
    xp = subspace_start(product.subspace, 3)
    assert np.array_equal(xd, xp)
    for k in range(1, 101):
        xd = pvs_step(direct, cfg, k, xd)
        xp = pvs_step(product, cfg, k, xp)
        assert np.array_equal(xd, xp)


def test_equal_anchors_move_away_and_tighten_with_lambda():
    # All anchors at the same u: the solution leaves u along -u, and as the
    # penalty grows (warm-starting the larger lambda from the smaller one's
    # solution) it approaches the feasible point of V furthest from u.
    u = np.array([0.5, -0.5, 0.0]) / np.sqrt(2.0)
    anchors = np.tile(u, (3, 1))
    far = -u / np.linalg.norm(u)

    prob_lo = build_max_dispersion_direct(MaxDispersionInstance(anchors, 1.0, 1e3, R_SUM))
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=30000, stop_step_norm=1e-6)
    x_lo = run_pvs(prob_lo, cfg, subspace_start(prob_lo.subspace, 3)).final_x
    prob_hi = build_max_dispersion_direct(MaxDispersionInstance(anchors, 1.0, 1e4, R_SUM))
    x_hi = run_pvs(prob_hi, cfg, x_lo).final_x

    assert x_lo @ u < 0 and x_hi @ u < 0
    # larger lambda hugs the ball more tightly and sits closer to the far point
    assert np.linalg.norm(x_hi) - 1.0 < 0.5 * (np.linalg.norm(x_lo) - 1.0)
    assert np.linalg.norm(x_hi - far) < np.linalg.norm(x_lo - far)
    assert np.linalg.norm(x_lo - far) < 0.01


def test_seeded_instance_both_forms_reach_stop_rule():
    # n=3, N=10 with anchors drawn from [0, 2]^3; both formulations run to
    # the 1e-5 step-size stop and their final objectives agree to 5e-2.
    anchors = random_anchors(3, 10, 1)
    inst = MaxDispersionInstance(anchors, 1.0, 100.0, R_SUM)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=200000, stop_step_norm=1e-5)

    direct = build_max_dispersion_direct(inst)
    tr_d = run_pvs(direct, cfg, subspace_start(direct.subspace, 3))
    product = build_max_dispersion_product(inst)
    tr_p = run_pvs(product, cfg, subspace_start(product.subspace, 30))

    assert tr_d.stop_reason == "step_norm"
    assert tr_p.stop_reason == "step_norm"
    f_d = dispersion_objective(anchors, 1.0, 100.0, tr_d.final_x)
    f_p = dispersion_objective(anchors, 1.0, 100.0, tr_p.final_x.reshape(10, 3)[0])
    assert abs(f_d - f_p) < 5e-2


def test_product_update_closed_form_identity():
    # For the product form (A = identity, L_grad_H = lam) the generic step
    # collapses to P_V((mu (lam x - grad H(x)) + prox_{mu g}(x)) / (1 + lam mu)).
    anchors = random_anchors(3, 10, 1)
    prob = build_max_dispersion_product(MaxDispersionInstance(anchors, 1.0, 100.0, R_SUM))
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1000, stop_step_norm=0.0)
    rng = default_rng(3)
    for k in (1, 7, 40):
        x = prob.subspace.apply(rng.standard_normal(30))
        mu, _, _ = schedule(cfg, prob, k)
        closed = prob.subspace.apply(
            (mu * (100.0 * x - prob.h.grad(x)) + prob.g.prox(mu, x)) / (1.0 + 100.0 * mu)
        )
        assert np.abs(pvs_step(prob, cfg, k, x) - closed).max() < 1e-10


def test_product_iterates_stay_in_replicated_subspace():
    anchors = random_anchors(3, 10, 1)
    prob = build_max_dispersion_product(MaxDispersionInstance(anchors, 1.0, 100.0, R_SUM))
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=1000, stop_step_norm=0.0)
    x = subspace_start(prob.subspace, 30)
    for k in range(1, 41):
        x = pvs_step(prob, cfg, k, x)
        drift = np.linalg.norm(x - prob.subspace.apply(x))
        assert drift <= 1e-9 * (1.0 + np.linalg.norm(x))


# ---------------------------------------------------------------------------
# discrete DRO
# ---------------------------------------------------------------------------

def test_dro_builders_reject_nonpositive_radius():
    a_rows, offsets = random_affine_scenarios(3, 4, 5)
    with pytest.raises(DomainError):
        build_dro_affine(a_rows, offsets, 5.0, 0.0)
    with pytest.raises(DomainError):
        build_dro_quadratic(np.zeros((2, 3)), 5.0, 0.0)


def test_dro_coercivity_guards():
    with pytest.raises(DomainError):
        build_dro_quadratic(np.zeros((2, 3)), 2.0, 1.0)


def test_dro_quadratic_simplex_is_max_dispersion_product():
    # Quadratic scenario costs with the full simplex recover the product-form
    # dispersion problem: same sup-quadratic family, same subspace; only the
    # ball penalty widens from the first block to every block (factor N on
    # the diagonal).
    anchors = random_anchors(3, 10, 1)
    dro = build_dro_quadratic(anchors, 50.0, 1.0, R_SUM)
    disp = build_max_dispersion_product(MaxDispersionInstance(anchors, 1.0, 50.0, R_SUM))

    assert isinstance(dro.g, SupQuadraticFamily)
    assert type(dro.g) is type(disp.g)
    assert np.array_equal(dro.g.centers, disp.g.centers)
    rng = default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(30)
        assert dro.g.value(x) == disp.g.value(x)
        assert np.array_equal(dro.g.prox(0.1, x), disp.g.prox(0.1, x))
        assert np.array_equal(dro.subspace.apply(x), disp.subspace.apply(x))
    x_diag = np.tile(rng.standard_normal(3) * 2.0, 10)
    assert abs(dro.h.value(x_diag) - 10.0 * disp.h.value(x_diag)) < 1e-10


# ---------------------------------------------------------------------------
# constrained lasso
# ---------------------------------------------------------------------------

def test_lasso_builder_wires_l1_lipschitz_and_f_star():
    design, target = random_lasso_data(5, 8, 31)
    inst = LassoInstance(design, target, L1Penalty(0.01), f_star=3.5)
    prob = build_constrained_lasso(inst)
    assert abs(prob.g.lipschitz - 0.01 * np.sqrt(5.0)) < 1e-12
    assert prob.f_star == 3.5
    # an explicitly supplied constant is kept
    reg = L1Penalty(0.01, lipschitz=7.0)
    assert build_constrained_lasso(LassoInstance(design, target, reg)).g.lipschitz == 7.0


def test_lasso_builder_l1_lipschitz_counts_the_inner_matrix_rows():
    # with an inner matrix T of shape (9, 4), g = lam |.|_1 acts on R^9, so
    # L_g = lam sqrt(9): lam sqrt(4) would break the prox-residual bound
    # |y - prox_{mu g}(y)| <= mu L_g that the decay-bound margins rest on
    design, target = random_lasso_data(4, 6, 17)
    inner = default_rng(19).standard_normal((9, 4))
    prob = build_constrained_lasso(
        LassoInstance(design, target, L1Penalty(0.5), inner_matrix=inner))
    assert prob.g.lipschitz == 0.5 * 3.0
    mu, y = 0.1, np.full(9, 10.0)
    residual = np.linalg.norm(y - prob.g.prox(mu, y))
    assert residual <= mu * prob.g.lipschitz * (1.0 + 1e-12)
    assert residual > mu * 0.5 * 2.0


def test_lasso_builder_dimension_mismatch():
    design, target = random_lasso_data(5, 8, 31)
    inst = LassoInstance(design, target, L1Penalty(0.1),
                         inner_matrix=np.ones((3, 4)))
    with pytest.raises(ContractError):
        build_constrained_lasso(inst)


def test_lasso_scad_shape_parameter_error():
    with pytest.raises(DomainError):
        SCADPenalty(1.0, 2.0)


def test_lasso_vanishing_regularization_hits_normal_equations():
    design, target = random_lasso_data(5, 8, 31)
    inst = LassoInstance(design, target, L1Penalty(1e-8))
    prob = build_constrained_lasso(inst)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=20000, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, np.zeros(5))
    x_ls, *_ = np.linalg.lstsq(design, target, rcond=None)
    assert np.linalg.norm(trace.final_x - x_ls) < 1e-5


def test_lasso_l1_matches_long_reference_run():
    design, target = random_lasso_data(5, 8, 31)
    constraint = default_rng(32).standard_normal((2, 5))
    inst = LassoInstance(design, target, L1Penalty(0.01),
                         constraint_matrix=constraint)
    prob = build_constrained_lasso(inst)
    cfg = SolverConfig(alpha=2.0 / 3.0, C=0.25, max_iter=100000, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, np.zeros(5))
    _, f_ref = reference_constrained_lasso(
        design, target, 0.01, constraint, total_iters=1_000_000
    )
    assert abs(prob.objective(trace.final_x) - f_ref) < 1e-6


def test_lasso_mcp_beats_l1_solution_under_mcp_objective():
    # Matched weight lam=1: the firm-threshold penalty removes the shrinkage
    # bias, so its run must score at least as well as the l1 minimizer when
    # both are judged by the MCP objective.
    design, target = random_lasso_data(5, 8, 31)
    constraint = default_rng(32).standard_normal((2, 5))
    cfg = SolverConfig(alpha=2.0 / 3.0, C=0.25, max_iter=30000, stop_step_norm=0.0)
    x_l1 = run_pvs(build_constrained_lasso(LassoInstance(
        design, target, L1Penalty(1.0), constraint_matrix=constraint,
    )), cfg, np.zeros(5)).final_x
    x_mcp = run_pvs(build_constrained_lasso(LassoInstance(
        design, target, MCPPenalty(1.0, 2.0),
        constraint_matrix=constraint,
    )), cfg, np.zeros(5)).final_x

    def mcp_objective(x):
        return float(np.sum((design @ x - target) ** 2)) + MCPPenalty(1.0, 2.0).value(x)

    assert mcp_objective(x_mcp) < mcp_objective(x_l1)


def test_lasso_tukey_composition_runs():
    design, target = random_lasso_data(4, 6, 17)
    rng = default_rng(18)
    inner = rng.standard_normal((5, 4))
    shifts = rng.standard_normal(5)
    inst = LassoInstance(design, target,
                         TukeyPenalty(shifts),
                         inner_matrix=inner)
    prob = build_constrained_lasso(inst)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=1.0 / 12.0, max_iter=200, stop_step_norm=0.0)
    trace = run_pvs(prob, cfg, np.zeros(4))
    x = trace.final_x
    expected = float(np.sum((design @ x - target) ** 2)) + TukeyPenalty(shifts).value(inner @ x)
    assert abs(prob.objective(x) - expected) < 1e-12
    assert trace.objective[-1] < trace.objective[0]


# ---------------------------------------------------------------------------
# seeded data helpers
# ---------------------------------------------------------------------------

def test_random_anchors_range_and_determinism():
    a = random_anchors(3, 10, 1)
    assert a.shape == (10, 3)
    assert a.min() >= 0.0 and a.max() <= 2.0
    assert np.array_equal(a, random_anchors(3, 10, 1))
    assert not np.array_equal(a, random_anchors(3, 10, 2))


def test_random_affine_scenarios_range():
    a_rows, offsets = random_affine_scenarios(4, 6, 2)
    assert a_rows.shape == (6, 4) and offsets.shape == (6,)
    assert np.abs(a_rows).max() <= 1.0 and np.abs(offsets).max() <= 1.0


def test_subspace_start_lies_in_subspace_and_is_nonzero():
    proj = KernelProjector(R_SUM)
    x = subspace_start(proj, 3)
    assert np.linalg.norm(x) > 1e-3
    assert np.linalg.norm(x - proj.apply(x)) < 1e-12
    # trivial subspace {0}: nothing to return but the origin
    assert np.array_equal(subspace_start(KernelProjector(np.eye(3)), 3), np.zeros(3))
