"""End-to-end acceptance battery.

Each test covers one numbered acceptance criterion and prints a single
machine-greppable PASS/FAIL line (to the real stdout, past pytest capture)
before asserting.  Shared expensive references are module-scoped fixtures.
"""

import json
import sys
import time

import numpy as np
import pytest
from numpy.random import default_rng

from pvsmooth import cli
from pvsmooth.core import (
    CallableSmooth,
    CompositeProblem,
    IdentityMap,
    IdentityProjector,
    ZeroFunction,
    moreau_envelope,
)
from pvsmooth.oracles import (
    GridSpec,
    affine_scan_prox,
    brute_force_prox,
    random_search_dispersion,
    reference_constrained_lasso,
)
from pvsmooth.penalty import PenaltySchedule, run_penalty
from pvsmooth.problems import (
    LassoInstance,
    MaxDispersionInstance,
    build_constrained_lasso,
    build_max_dispersion_direct,
    build_max_dispersion_product,
    dispersion_objective,
    random_anchors,
    random_lasso_data,
    subspace_start,
)
from pvsmooth.projections import BallSpec, project_simplex
from pvsmooth.prox import (
    L1Penalty,
    MCPPenalty,
    SCADPenalty,
    SupAffineFamily,
    SupQuadraticFamily,
    TukeyPenalty,
    envelope_by_weights,
    simplex_weights_kkt,
    solve_simplex_weights,
)
from pvsmooth.solver import (
    SolverConfig,
    epoch_iteration_budget,
    run_pvs,
    theorem_bound_margins,
)

R_SUM = np.array([[1.0, 1.0, 1.0]])
SUPQUAD_LAYOUTS = ((1, 1), (1, 2), (1, 3), (3, 1), (2, 1))  # (d, N), d*N <= 3


@pytest.fixture
def report(capsys):
    """Emit one PASS/FAIL line per criterion past pytest's output capture."""

    def _report(number, slug, ok):
        line = "ACCEPTANCE %d %s: %s" % (number, slug, "PASS" if ok else "FAIL")
        with capsys.disabled():
            print(line)
            sys.stdout.flush()
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def lasso_reference():
    """Seeded constrained l1 instance with F* from a 1e6-iteration reference."""
    design, target = random_lasso_data(5, 8, 31)
    constraint = default_rng(32).standard_normal((2, 5))
    _, f_star = reference_constrained_lasso(
        design, target, 1.0, constraint, total_iters=1_000_000
    )
    problem = build_constrained_lasso(LassoInstance(
        design, target, L1Penalty(1.0),
        constraint_matrix=constraint, f_star=f_star,
    ))
    return problem, f_star


def supquad_batch(centers):
    n_blocks, d = centers.shape

    def batch(points):
        blocks = points.reshape(points.shape[0], n_blocks, d)
        return -np.sum((blocks - centers[None]) ** 2, axis=2).min(axis=1)

    return batch


def test_criterion_1_prox_oracle_equivalence(report):
    rng = default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0

    grid3 = GridSpec(-4.5, 4.5, 0.075)
    for i in range(50):
        d, n_blocks = SUPQUAD_LAYOUTS[i % len(SUPQUAD_LAYOUTS)]
        centers = rng.uniform(-1.0, 1.0, (n_blocks, d))
        fam = SupQuadraticFamily(centers)
        mu = rng.uniform(0.05, 0.30)
        x = rng.uniform(-1.0, 1.0, n_blocks * d)
        ref = brute_force_prox(fam.value, mu, x, grid3,
                               batch_value=supquad_batch(centers))
        worst = max(worst, float(np.abs(fam.prox(mu, x) - ref).max()))

    grid1 = GridSpec(-4.5, 4.5, 0.05)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, 1)
        lam = rng.uniform(0.5, 2.0)
        theta = rng.uniform(2.5, 4.0)
        gamma = rng.uniform(0.1, 0.9)
        shift = rng.uniform(-1.0, 1.0)
        mu_t = rng.uniform(0.02, 0.16)
        mcp, scad, tukey = MCPPenalty(lam, theta), SCADPenalty(lam, theta), TukeyPenalty(shift)
        cases = (
            (mcp.prox(gamma, x), gamma,
             lambda p, g=mcp: np.array([g.value(t) for t in p])),
            (scad.prox(gamma, x), gamma,
             lambda p, g=scad: np.array([g.value(t) for t in p])),
            (tukey.prox(mu_t, x), mu_t,
             lambda p, g=tukey: np.array([g.value(t) for t in p])),
            (L1Penalty(lam).prox(gamma, x), gamma,
             lambda p, lam=lam: lam * np.abs(p[:, 0])),
        )
        for got, step_mu, batch in cases:
            ref = brute_force_prox(None, step_mu, x, grid1, batch_value=batch)
            worst = max(worst, float(np.abs(np.asarray(got) - ref).max()))

    elapsed = time.perf_counter() - t0
    report(1, "prox-oracle-equivalence", worst <= 1e-3 and elapsed < 60.0)


def test_criterion_2_simplex_weights_kkt_and_optimality(report):
    rng = default_rng(202)
    worst_kkt = 0.0
    worst_gap = -np.inf
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        alpha = rng.uniform(1e-3, 10.0, n)
        mu = rng.uniform(0.02, 0.45)
        p = solve_simplex_weights(alpha, mu)
        kkt = simplex_weights_kkt(alpha, mu, p)
        worst_kkt = max(worst_kkt, kkt["stationarity"], -kkt["min_eta"])
        assert abs(p.sum() - 1.0) <= 1e-12
        candidates = rng.dirichlet(np.ones(n), size=1000)
        phi_best = envelope_by_weights(alpha, mu, p)
        phi_rand = np.max(envelope_by_weights(alpha, mu, candidates))
        worst_gap = max(worst_gap, phi_rand - phi_best)
    ok = worst_kkt <= 1e-10 and worst_gap <= 1e-10 * (1.0 + abs(worst_gap))
    report(2, "simplex-weights-kkt-optimality", ok)


def test_criterion_3_sup_affine_prox_fixed_point_and_scan(report):
    rng = default_rng(303)
    worst_fp = 0.0
    worst_scan = 0.0
    for i in range(20):
        n_scen = 2 if i % 2 == 0 else int(rng.integers(2, 5))
        dim = int(rng.integers(1, 4))
        a_rows = rng.uniform(-1.5, 1.5, (n_scen, dim))
        offsets = rng.uniform(-1.0, 1.0, n_scen)
        sigma = rng.uniform(0.5, 1.5)
        fam = SupAffineFamily(a_rows, offsets, sigma)
        mu = rng.uniform(0.05, 0.9) / (2.0 * sigma)
        x = rng.uniform(-1.0, 1.0, dim)
        y, c, iterations = fam.prox_detailed(mu, x)
        assert iterations <= 200_000
        s = 1.0 - 2.0 * sigma * mu
        gamma = 0.9 * s / (mu * fam.gram_norm) if fam.gram_norm > 0 else 1.0
        fp = np.linalg.norm(c - project_simplex(c + gamma * (a_rows @ y + offsets)))
        worst_fp = max(worst_fp, float(fp))
        if n_scen == 2:
            y_ref, _, _ = affine_scan_prox(a_rows, offsets, sigma, mu, x)
            worst_scan = max(worst_scan, float(np.linalg.norm(y - y_ref)))
    report(3, "sup-affine-prox-fixed-point", worst_fp <= 1e-8 and worst_scan <= 1e-4)


def test_criterion_4_envelope_supremum_identity(report):
    rng = default_rng(404)
    grid = GridSpec(-4.5, 4.5, 0.075)
    worst_id = 0.0
    worst_bf = 0.0
    for i in range(100):
        d, n_blocks = SUPQUAD_LAYOUTS[i % len(SUPQUAD_LAYOUTS)]
        centers = rng.uniform(-1.0, 1.0, (n_blocks, d))
        fam = SupQuadraticFamily(centers)
        mu = rng.uniform(0.05, 0.30)
        x = rng.uniform(-1.0, 1.0, n_blocks * d)
        env = moreau_envelope(fam, mu, x)
        dists = np.sum((x.reshape(n_blocks, d) - centers) ** 2, axis=1)
        phi = envelope_by_weights(dists, mu, solve_simplex_weights(dists, mu))
        worst_id = max(worst_id, abs(env - phi))
        y = brute_force_prox(fam.value, mu, x, grid,
                             batch_value=supquad_batch(centers))
        env_bf = fam.value(y) + float(np.sum((x - y) ** 2)) / (2.0 * mu)
        worst_bf = max(worst_bf, abs(env - env_bf), abs(phi - env_bf))
    report(4, "envelope-supremum-identity", worst_id <= 1e-9 and worst_bf <= 2e-3)


def test_criterion_5_stationarity_decay_bounds(lasso_reference, report):
    problem, f_star = lasso_reference
    t0 = time.perf_counter()
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=10_000, stop_step_norm=0.0)
    trace = run_pvs(problem, cfg, np.zeros(5))
    grad_margin, prox_margin, heuristic = theorem_bound_margins(problem, trace)
    elapsed = time.perf_counter() - t0
    ok = (
        not heuristic
        and len(trace) == 10_001
        and float(min(grad_margin.min(), prox_margin.min())) >= 0.0
        and elapsed < 120.0
    )
    report(5, "stationarity-decay-bounds", ok)


def test_criterion_6_epoch_iteration_budget(lasso_reference, report):
    problem, f_star = lasso_reference
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=200_000,
                       stop_step_norm=0.0, epsilon=1e-2)
    trace = run_pvs(problem, cfg, np.zeros(5))
    budget = epoch_iteration_budget(problem, cfg, trace.objective[0], f_star, 1e-2)
    ok = (
        trace.stop_reason == "epoch_stationarity"
        and trace.iterations <= budget
    )
    report(6, "epoch-iteration-budget", ok)


def test_criterion_7_analytic_dispersion_anchor(report):
    inst = MaxDispersionInstance(np.zeros((1, 3)), 1.0, 100.0, R_SUM)
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=50_000, stop_step_norm=1e-8)
    ok = True
    for build in (build_max_dispersion_direct, build_max_dispersion_product):
        prob = build(inst)
        t0 = time.perf_counter()
        trace = run_pvs(prob, cfg, subspace_start(prob.subspace, prob.dim))
        elapsed = time.perf_counter() - t0
        block = np.asarray(trace.final_x)[:3]
        value = dispersion_objective(inst.anchors, 1.0, 100.0, block)
        ok &= abs(value + 100.0 / 98.0) <= 1e-3 and elapsed < 10.0
    report(7, "analytic-dispersion-anchor", ok)


def test_criterion_8_seeded_experiment_band(report):
    anchors = random_anchors(3, 10, 1)
    _, reference = random_search_dispersion(anchors, 1.0, 100.0, R_SUM, 100_000, 99)
    ok = -6.0 <= reference <= -3.0
    for lam in (100.0, 200.0):
        inst = MaxDispersionInstance(anchors, 1.0, lam, R_SUM)
        cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=200_000,
                           stop_step_norm=1e-5)
        values = []
        for build, dim in ((build_max_dispersion_direct, 3),
                           (build_max_dispersion_product, 30)):
            prob = build(inst)
            trace = run_pvs(prob, cfg, subspace_start(prob.subspace, dim))
            ok &= trace.stop_reason == "step_norm"
            block = np.asarray(trace.final_x)[:3]
            values.append(dispersion_objective(anchors, 1.0, lam, block))
        ok &= abs(values[0] - values[1]) <= 5e-2
        ok &= all(-6.0 <= v <= -3.0 for v in values)
    report(8, "seeded-experiment-band", ok)


def test_criterion_9_penalty_monotonicity(report):
    h0 = CallableSmooth(lambda x: float(x[0]), lambda x: np.ones(1), 0.0)
    ball = BallSpec(np.zeros(1), 1.0)
    lambdas = tuple(4.0 * 2.0**j for j in range(6))
    sched = PenaltySchedule(
        lambdas,
        SolverConfig(alpha=1.0 / 3.0, C=10.0, max_iter=8000, stop_step_norm=1e-8),
    )
    problem = CompositeProblem(h0, ZeroFunction(), IdentityMap(), IdentityProjector(), dim=1)
    xs, diag = run_penalty(problem, ball, sched, np.zeros(1))
    tol = 1e-6
    q, P, f = diag.penalized_values, diag.penalty_values, diag.objective_values
    ok = max(abs(float(x[0]) - (-1.0 - 1.0 / lam)) for x, lam in zip(xs, lambdas)) <= tol
    ok &= all(b >= a - tol for a, b in zip(q, q[1:]))          # q_k nondecreasing
    ok &= all(b <= a + tol for a, b in zip(P, P[1:]))          # penalty nonincreasing
    ok &= all(b >= a - tol for a, b in zip(f, f[1:]))          # f(x_k) nondecreasing
    ok &= all(-1.0 >= qk - tol and qk >= fk - tol for qk, fk in zip(q, f))
    report(9, "penalty-monotonicity", ok)


def test_criterion_10_window_inequalities(report):
    rng = default_rng(1010)
    ks = np.unique(np.round(np.logspace(0, 6, 120)).astype(int)).astype(float)
    violations = 0
    for alpha in np.arange(0.1, 0.95, 0.1):
        e = 1.0 - alpha
        lhs = (ks + 1.0) ** e - 1.0
        rhs = (2.0**e - 1.0) * ks**e
        violations += int(np.sum(lhs < rhs - 1e-9 * np.maximum(1.0, rhs)))
        for n in np.unique(np.round(np.logspace(0, 3, 25)).astype(int)):
            theta = (1.0 + 1.0 / n) ** e - 1.0
            if theta >= 0.5:
                continue
            k = float(rng.integers(n, 10**6))
            lhs_s = (k + 1.0) ** e - float(n) ** e
            rhs_s = theta * k**e
            violations += int(lhs_s < rhs_s - 1e-9 * max(1.0, rhs_s))
    report(10, "window-inequalities", violations == 0)


def test_criterion_11_cli_byte_determinism(tmp_path, report):
    cfg = {
        "problem": "max-dispersion", "formulation": "product",
        "n": 3, "N": 10, "alpha": 1.0 / 3.0, "C": 0.25, "lambda": 100.0,
        "radius": 1.0, "R": [[1.0, 1.0, 1.0]],
        "max_iter": 200000, "stop_step_norm": 1e-5, "seed": 42,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc_a = cli.main(["solve", "--config", str(path), "--out-dir", str(tmp_path / "a")])
    rc_b = cli.main(["solve", "--config", str(path), "--out-dir", str(tmp_path / "b")])
    ok = (
        rc_a == 0 and rc_b == 0
        and (tmp_path / "a" / "trace.csv").read_bytes()
        == (tmp_path / "b" / "trace.csv").read_bytes()
    )
    report(11, "cli-byte-determinism", ok)
