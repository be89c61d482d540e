"""Command-line front end.

Three subcommands:

* ``solve --config cfg.json [--out-dir DIR]`` builds a seeded instance from
  a JSON config, runs the smoothing solver, and writes a per-iteration trace
  CSV plus a summary JSON.
* ``verify SUITE`` cross-checks fast paths against the reference oracles
  (suites: prox, projections, bounds, penalty, all) and prints a pass/fail
  table.
* ``gen --kind K --n N --N COUNT --seed S --out PATH`` writes the seeded
  instance data itself, for use outside this package.

Exit codes: 0 success, 2 bad configuration/usage, 3 solver failure (the
partial trace is still written).

All randomness comes from numpy's default 64-bit generator (PCG64) seeded
with the config seed, so a (config, seed) pair pins the run.  The trace CSV
is byte-reproducible; since wall-clock time is not, its ``elapsed_s`` column
is serialized as 0.0 and the measured wall time is reported in the summary
JSON instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import oracles, projections, prox
from .core import CallableSmooth, IdentityMap, ZeroFunction, matrix_norm_bound
from .errors import ConfigError, DomainError, PvsError
from .penalty import PenaltySchedule, run_penalty
from .problems import (
    LassoInstance,
    MaxDispersionInstance,
    build_constrained_lasso,
    build_dro_affine,
    build_dro_quadratic,
    build_max_dispersion_direct,
    build_max_dispersion_product,
    random_affine_scenarios,
    random_anchors,
    random_lasso_data,
    subspace_start,
)
from .prox import L1Penalty
from .solver import SolverConfig, run_pvs, run_pvs_epochs, theorem_bound_margins

TRACE_HEADER = "k,mu,gamma,objective,proj_grad_norm,prox_residual,elapsed_s"

_KNOWN_KEYS = {
    "problem", "formulation", "algorithm", "n", "N", "alpha", "C", "lambda",
    "radius", "epsilon", "stop_step_norm", "max_iter", "seed", "R",
    "trace_file", "summary_file",
}
_PROBLEMS = ("max-dispersion", "dro", "lasso")
_FORMULATIONS = ("direct", "product")
_ALGORITHMS = ("pvs", "pvs-epochs")


def _as_number(cfg, key, required=False, default=None, integer=False):
    if key not in cfg:
        if required:
            raise ConfigError("missing required field %r" % key)
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("field %r must be a number" % key)
    if not math.isfinite(v):
        raise ConfigError("field %r must be finite" % key)
    if integer:
        if int(v) != v:
            raise ConfigError("field %r must be an integer" % key)
        v = int(v)
    return v


def load_config(path):
    """Read and validate a solve config; unknown fields are rejected."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError("unknown config fields: %s" % ", ".join(unknown))

    out = {}
    out["problem"] = cfg.get("problem")
    if out["problem"] not in _PROBLEMS:
        raise ConfigError("field 'problem' must be one of %s" % (_PROBLEMS,))
    out["formulation"] = cfg.get("formulation", "direct")
    if out["formulation"] not in _FORMULATIONS:
        raise ConfigError("field 'formulation' must be one of %s" % (_FORMULATIONS,))
    out["algorithm"] = cfg.get("algorithm", "pvs")
    if out["algorithm"] not in _ALGORITHMS:
        raise ConfigError("field 'algorithm' must be one of %s" % (_ALGORITHMS,))
    out["n"] = _as_number(cfg, "n", required=True, integer=True)
    out["N"] = _as_number(cfg, "N", required=True, integer=True)
    out["alpha"] = _as_number(cfg, "alpha", required=True)
    out["C"] = _as_number(cfg, "C", required=True)
    out["lambda"] = _as_number(cfg, "lambda", default=None)
    out["radius"] = _as_number(cfg, "radius", default=1.0)
    out["epsilon"] = _as_number(cfg, "epsilon", default=None)
    out["stop_step_norm"] = _as_number(cfg, "stop_step_norm", default=1e-5)
    out["max_iter"] = _as_number(cfg, "max_iter", required=True, integer=True)
    out["seed"] = _as_number(cfg, "seed", required=True, integer=True)
    if out["algorithm"] == "pvs-epochs" and out["epsilon"] is None:
        raise ConfigError("algorithm 'pvs-epochs' needs field 'epsilon'")
    if out["problem"] != "lasso" and out["lambda"] is None:
        raise ConfigError("%s needs field 'lambda'" % out["problem"])

    R = cfg.get("R")
    if R is not None:
        if (not isinstance(R, list) or not R
                or not all(isinstance(row, list) for row in R)):
            raise ConfigError("field 'R' must be a nonempty list of rows")
        widths = {len(row) for row in R}
        if len(widths) != 1 or widths.pop() != out["n"]:
            raise ConfigError("rows of 'R' must all have length n")
        try:
            R = np.asarray(R, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("field 'R' must contain numbers")
    out["R"] = R
    out["trace_file"] = cfg.get("trace_file", "trace.csv")
    out["summary_file"] = cfg.get("summary_file", "summary.json")
    if not isinstance(out["trace_file"], str) or not isinstance(out["summary_file"], str):
        raise ConfigError("output file names must be strings")
    return out


def _instance_data(kind, n, count, seed):
    """The seeded arrays of a ``gen`` kind, keyed by their JSON field names,
    which are also the builders' argument names; ``solve`` builds from the
    same arrays."""
    if kind == "dro-affine":
        a_rows, offsets = random_affine_scenarios(n, count, seed)
        return {"a_rows": a_rows, "offsets": offsets}
    if kind == "lasso":  # count is the sample count
        design, target = random_lasso_data(n, count, seed)
        return {"design": design, "target": target}
    name = "centers" if kind == "dro-quadratic" else "anchors"
    return {name: random_anchors(n, count, seed)}


def build_from_config(cfg):
    """Instantiate the composite problem and starting point for a config."""
    lam, radius, R = cfg["lambda"], cfg["radius"], cfg["R"]
    kind = cfg["problem"]
    if kind == "dro":
        kind = "dro-affine" if cfg["formulation"] == "direct" else "dro-quadratic"
    data = _instance_data(kind, cfg["n"], cfg["N"], cfg["seed"])
    if kind == "max-dispersion":
        build = (build_max_dispersion_direct if cfg["formulation"] == "direct"
                 else build_max_dispersion_product)
        problem = build(MaxDispersionInstance(**data, radius=radius, lam=lam,
                                              constraint_matrix=R))
    elif kind == "dro-affine":
        problem = build_dro_affine(
            **data, lam=lam, radius=radius,
            ambiguity_projector=projections.project_simplex,
            support_max=prox.simplex_support_max, constraint_matrix=R,
        )
    elif kind == "dro-quadratic":
        problem = build_dro_quadratic(**data, lam=lam, radius=radius, constraint_matrix=R)
    else:  # lasso; lambda is the l1 weight
        problem = build_constrained_lasso(LassoInstance(
            **data, regularizer=L1Penalty(1.0 if lam is None else lam),
            constraint_matrix=R,
        ))
    x1 = subspace_start(problem.subspace, problem.dim)
    return problem, x1


def _fmt(v):
    return repr(float(v))


def write_trace_csv(trace, path):
    """Serialize a trace; elapsed_s is zeroed for byte-reproducibility."""
    lines = [TRACE_HEADER]
    for i in range(len(trace)):
        lines.append(
            "%d,%s,%s,%s,%s,%s,%s"
            % (
                trace.k[i],
                _fmt(trace.mu[i]),
                _fmt(trace.gamma[i]),
                _fmt(trace.objective[i]),
                _fmt(trace.proj_grad_norm[i]),
                _fmt(trace.prox_residual[i]),
                _fmt(0.0),
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _margins_hold(trace, gm, pm):
    """Both decay-bound margins >= -slack, slack = 1e-9 (1 + max_k |F_k|)."""
    slack = 1e-9 * (1.0 + np.abs(np.asarray(trace.objective)).max())
    return bool(np.all(gm >= -slack) and np.all(pm >= -slack))


def write_summary_json(problem, trace, path):
    if trace.final_x is None:
        final_objective = None
        bounds_ok = None
    else:
        final_objective = problem.objective(trace.final_x)
        gm, pm, _ = theorem_bound_margins(problem, trace)
        bounds_ok = None if gm is None else _margins_hold(trace, gm, pm)
    summary = {
        "final_objective": final_objective,
        "iterations": trace.iterations,
        "stop_reason": trace.stop_reason,
        "elapsed_s": trace.elapsed_s[-1] if trace.elapsed_s else 0.0,
        "bounds_ok": bounds_ok,
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_solve(args):
    cfg = load_config(args.config)
    try:
        problem, x1 = build_from_config(cfg)
        solver_cfg = SolverConfig(
            alpha=cfg["alpha"], C=cfg["C"], max_iter=cfg["max_iter"],
            stop_step_norm=cfg["stop_step_norm"], epsilon=cfg["epsilon"],
        )
        solver_cfg.validate_for(problem.g)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, cfg["trace_file"])
    summary_path = os.path.join(out_dir, cfg["summary_file"])

    failed = None
    try:
        if cfg["algorithm"] == "pvs":
            trace = run_pvs(problem, solver_cfg, x1)
        else:
            _, trace = run_pvs_epochs(problem, solver_cfg, x1)
    except PvsError as exc:
        if getattr(exc, "trace", None) is None:
            raise
        trace = exc.trace
        failed = exc
    write_trace_csv(trace, trace_path)
    write_summary_json(problem, trace, summary_path)
    if failed is not None:
        print("solver failed: %s" % failed, file=sys.stderr)
        return 3
    print(
        "wrote %s (%d rows) and %s" % (trace_path, len(trace), summary_path)
    )
    return 0


# ---------------------------------------------------------------------------
# verify batteries
# ---------------------------------------------------------------------------

def _verify_prox():
    checks = []
    rng = np.random.default_rng(20240817)
    grid = oracles.GridSpec(-4.0, 4.0, 0.05)

    # mu <= 0.3 and unit boxes keep the prox point inside the search grid:
    # blockwise |y_i| <= (|x_i| + 2 mu |xi_i|) / (1 - 2 mu) <= 4
    worst = 0.0
    for _ in range(6):
        centers = rng.uniform(-1.0, 1.0, (3, 1))
        fam = prox.SupQuadraticFamily(centers)
        mu = rng.uniform(0.05, 0.30)
        x = rng.uniform(-1.0, 1.0, 3)
        ref = oracles.brute_force_prox(
            fam.value, mu, x, grid,
            batch_value=lambda pts: -((pts - centers[:, 0][None, :]) ** 2).min(axis=1),
        )
        worst = max(worst, float(np.linalg.norm(fam.prox(mu, x) - ref)))
    checks.append(("sup-quadratic prox vs grid search", worst <= 1e-3, worst))

    worst = 0.0
    fine = oracles.GridSpec(-4.0, 4.0, 0.01)
    for _ in range(6):
        lam = rng.uniform(0.5, 2.0)
        theta = rng.uniform(2.5, 4.0)
        x = rng.uniform(-3.0, 3.0, 1)
        gamma = rng.uniform(0.1, 0.9)
        for g in (prox.MCPPenalty(lam, theta), prox.SCADPenalty(lam, theta)):
            ref = oracles.brute_force_prox(
                None, gamma, x, fine,
                batch_value=lambda pts: np.array([g.value(p) for p in pts]),
            )
            worst = max(worst, float(np.abs(np.asarray(g.prox(gamma, x)) - ref).max()))
    checks.append(("MCP/SCAD prox vs grid search", worst <= 1e-3, worst))

    worst = 0.0
    for _ in range(4):
        mu = rng.uniform(0.02, 0.16)
        b = rng.uniform(-1.0, 1.0)
        x = rng.uniform(-2.0, 2.0, 1)
        ref = oracles.brute_force_prox(
            None, mu, x, fine,
            batch_value=lambda pts: ((pts - b) ** 2 / (1 + (pts - b) ** 2)).sum(axis=1),
        )
        g = prox.TukeyPenalty(b)
        worst = max(worst, float(np.abs(np.asarray(g.prox(mu, x)) - ref).max()))
    checks.append(("Tukey prox vs grid search", worst <= 1e-3, worst))

    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        alpha = rng.uniform(1e-2, 10.0, n)
        mu = rng.uniform(0.05, 0.45)
        p = prox.solve_simplex_weights(alpha, mu)
        kkt = prox.simplex_weights_kkt(alpha, mu, p)
        worst = max(worst, kkt["stationarity"], -kkt["min_eta"], kkt["sum_dev"])
    checks.append(("simplex weights KKT residuals", worst <= 1e-10, worst))

    worst = 0.0
    for _ in range(4):
        a_rows = rng.uniform(-1.5, 1.5, (2, 2))
        offsets = rng.uniform(-1.0, 1.0, 2)
        sigma = rng.uniform(0.5, 1.5)
        fam = prox.SupAffineFamily(
            a_rows, offsets, sigma,
            project_ambiguity=projections.project_simplex,
            support_max=prox.simplex_support_max,
        )
        mu = rng.uniform(0.05, 0.9) / (2.0 * sigma)
        x = rng.uniform(-1.0, 1.0, 2)
        y, _, _ = prox.prox_sup_affine(fam, mu, x)
        y_ref, _, _ = oracles.affine_scan_prox(a_rows, offsets, sigma, mu, x)
        worst = max(worst, float(np.linalg.norm(y - y_ref)))
    checks.append(("affine-family prox vs weight scan", worst <= 1e-4, worst))

    # the dispersion shape, 10 scenarios in R^3: iterates near the anchors'
    # centre put weight on up to d + 1 = 4 scenarios, which the active set
    # must certify, also when the anchors are collinear (a singular KKT
    # system) or repeat; v = A y + b is the dual gradient at the prox point,
    # and plain FISTA (behind a wrapped projector) must reach the same y
    gap = spread = apart = 0.0
    for i in range(24):
        anchors = rng.uniform(-1.0, 1.0, (10, 3))
        if i >= 12:  # collinear, on a half-integer grid
            anchors = np.outer(rng.integers(-4, 5, 10) / 2, anchors[0])
        a_rows, offsets = 2.0 * anchors, -(anchors * anchors).sum(axis=1)
        fam = prox.SupAffineFamily(
            a_rows, offsets, 1.0,
            project_ambiguity=projections.project_simplex,
            support_max=prox.simplex_support_max,
        )
        fista = prox.SupAffineFamily(
            a_rows, offsets, 1.0,
            project_ambiguity=lambda c: projections.project_simplex(c),
            support_max=prox.simplex_support_max, tol=1e-13,
        )
        mu, x = rng.uniform(0.05, 0.45), rng.uniform(-0.3, 0.3, 3)
        y, c, _ = prox.prox_sup_affine(fam, mu, x)
        y_fista, _, _ = prox.prox_sup_affine(fista, mu, x)
        apart = max(apart, float(np.abs(y - y_fista).max()))
        v = fam.a_rows @ y + fam.offsets
        scale = max(1.0, float(np.abs(v).max()))
        on = v[c > 0.0]
        gap = max(gap, float(v.max() - c @ v) / scale)
        spread = max(spread, float(on.max() - on.min()) / scale)
    checks.append(("affine dual gap, 10 scenarios in R^3", gap <= 1e-10, gap))
    checks.append(("affine support spread, 10 scenarios in R^3", spread <= 1e-10,
                   spread))
    checks.append(("affine prox vs FISTA, 10 scenarios in R^3", apart <= 1e-9, apart))
    return checks


def _verify_projections():
    checks = []
    rng = np.random.default_rng(20240818)

    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 5)
        p = projections.project_simplex(x)
        q = rng.dirichlet(np.ones(5))  # arbitrary simplex point
        worst = max(worst, float((x - p) @ (q - p)))
        worst = max(worst, float(np.abs(p.sum() - 1.0)), float(-p.min()))
    checks.append(("simplex projection optimality", worst <= 1e-10, worst))

    worst = 0.0
    for _ in range(10):
        R = rng.standard_normal((2, 5))
        proj = projections.KernelProjector(R)
        x = rng.standard_normal(5)
        px = proj.apply(x)
        worst = max(worst, float(np.linalg.norm(R @ px)))
        worst = max(worst, float(np.linalg.norm(proj.apply(px) - px)))
    checks.append(("kernel projector idempotent, in kernel", worst <= 1e-10, worst))

    R = np.array([[1.0, 1.0, 1.0]])
    proj_v = projections.ProductKernelProjector(projections.KernelProjector(R), 2)
    x = rng.standard_normal(6)
    via_dykstra = projections.dykstra_project(
        proj_v.apply, lambda v: projections.project_diagonal(v, 2), x
    )
    closed = projections.ReplicatedKernelProjector(
        projections.KernelProjector(R), 2
    ).apply(x)
    err = float(np.linalg.norm(via_dykstra - closed))
    checks.append(("Dykstra vs closed-form intersection", err <= 1e-9, err))
    return checks


def _verify_bounds():
    design, target = random_lasso_data(5, 8, 20240819)
    R = np.random.default_rng(20240820).standard_normal((2, 5))
    _, f_star = oracles.reference_constrained_lasso(
        design, target, 1.0, R, total_iters=100_000
    )
    problem = build_constrained_lasso(
        LassoInstance(design=design, target=target,
                      regularizer=L1Penalty(1.0),
                      constraint_matrix=R, f_star=f_star)
    )
    cfg = SolverConfig(alpha=1.0 / 3.0, C=0.25, max_iter=2000, stop_step_norm=0.0)
    trace = run_pvs(problem, cfg, np.zeros(5))
    gm, pm, heuristic = theorem_bound_margins(problem, trace)
    ok = (not heuristic) and _margins_hold(trace, gm, pm)
    detail = float(min(gm.min(), pm.min()))
    checks = [("stationarity decay bounds on seeded lasso", ok, detail)]

    # |A| <= matrix_norm_bound(A) <= 1.01 |A|, with |A| from the SVD, which
    # shares nothing with the Gram matrix the bound is read from
    rng = np.random.default_rng(20240822)
    low_rank = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 40))
    worst, ok = 0.0, True
    for mat in (rng.standard_normal((20, 60)), rng.standard_normal((60, 20)),
                low_rank, low_rank.T):
        norm = float(np.linalg.norm(mat, 2))
        ratio = matrix_norm_bound(mat) / norm
        ok &= 1.0 <= ratio <= 1.01 * (1.0 + 1e-12)
        worst = max(worst, ratio - 1.0)
    checks.append(("norm bound brackets |A|", ok, worst))
    return checks


def _verify_penalty():
    # 1-d toy: minimize x subject to x in [-1, 1]; stage minimizers are
    # x_k = -1 - 1/lam_k, so all monotonicity relations are checkable.
    h0 = CallableSmooth(lambda x: float(x[0]), lambda x: np.ones(1), 0.0)
    ball = projections.BallSpec(np.zeros(1), 1.0)
    lambdas = [4.0 * 2**j for j in range(6)]
    sched = PenaltySchedule(
        tuple(lambdas),
        SolverConfig(alpha=1.0 / 3.0, C=10.0, max_iter=200000, stop_step_norm=1e-10),
    )
    from .core import IdentityProjector

    xs, diag = run_penalty(
        h0, ZeroFunction(), IdentityMap(), IdentityProjector(), ball, sched,
        np.zeros(1),
    )
    worst = 0.0
    for x, lam in zip(xs, lambdas):
        worst = max(worst, abs(float(x[0]) - (-1.0 - 1.0 / lam)))
    q, P, f = diag.penalized_values, diag.penalty_values, diag.objective_values
    tol = 1e-6
    mono = all(b >= a - tol for a, b in zip(q, q[1:]))
    mono &= all(b <= a + tol for a, b in zip(P, P[1:]))
    mono &= all(b >= a - tol for a, b in zip(f, f[1:]))
    sandwich = all(-1.0 >= qk - tol and qk >= fk - tol for qk, fk in zip(q, f))
    return [
        ("penalty stages reach closed-form minimizers", worst <= 1e-6, worst),
        ("penalty monotonicity and sandwich", bool(mono and sandwich), tol),
    ]


_SUITES = {
    "prox": _verify_prox,
    "projections": _verify_projections,
    "bounds": _verify_bounds,
    "penalty": _verify_penalty,
}


def cmd_verify(args):
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in suites:
        for label, ok, detail in _SUITES[name]():
            all_ok &= bool(ok)
            print("%-12s %-45s %s (%.3e)" % (name, label, "PASS" if ok else "FAIL", detail))
    return 0 if all_ok else 1


def cmd_gen(args):
    payload = {"kind": args.kind, "n": args.n, "N": args.N, "seed": args.seed}
    try:
        data = _instance_data(args.kind, args.n, args.N, args.seed)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    for name, array in data.items():
        payload[name] = array.tolist()
    with open(args.out, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print("wrote %s" % args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pvsmooth",
        description="Variable-smoothing projected gradient solver and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver experiment from a JSON config")
    p_solve.add_argument("--config", required=True, help="path to the JSON config")
    p_solve.add_argument("--out-dir", default=None, help="output directory (default .)")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="cross-check fast paths against oracles")
    p_verify.add_argument(
        "suite", choices=sorted(_SUITES) + ["all"], help="which battery to run"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write seeded instance data as JSON")
    p_gen.add_argument(
        "--kind", required=True,
        choices=["max-dispersion", "dro-affine", "dro-quadratic", "lasso"],
    )
    p_gen.add_argument("--n", type=int, required=True, help="ambient dimension")
    p_gen.add_argument("--N", type=int, required=True, help="scenario/sample count")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True, help="output JSON path")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except PvsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
