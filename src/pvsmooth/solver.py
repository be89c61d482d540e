"""Projected gradient iteration on a variably smoothed composite objective.

Each iteration k uses the smoothed objective F_k(x) = h(x) + g_{mu_k}(A x)
with mu_k = C k^(-alpha), Lipschitz constant L_k = L_h + |A|^2 / mu_k and
step gamma_k = 1/L_k:

    x_{k+1} = P_V(x_k - gamma_k grad F_k(x_k)).

With 2 rho C <= 1, the running minimum of |P_V grad F_j(x_j)| decays like
k^((alpha-1)/2) and the prox residual |A x_k - prox_{mu_k g}(A x_k)| like
k^(-alpha) (for Lipschitz g); both bounds are exposed as diagnostics.

The epoch variant groups iterations into doubling windows [2^l, 2^(l+1)),
tracks the best projected gradient norm per window, and stops once that best
value drops below epsilon while the prox residual meets a secondary
threshold epsilon^(2 alpha / (1 - alpha)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import CallableProx, CallableSmooth, CompositeProblem
from .errors import ContractError, ConvergenceError, DomainError, NumericalError, PvsError

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "schedule",
    "pvs_step",
    "run_pvs",
    "run_pvs_epochs",
    "StationarityReport",
    "stationarity_report",
    "stationarity_constant",
    "epoch_stationarity_constant",
    "epoch_iteration_budget",
    "theorem_bound_margins",
    "affine_shift_wrap",
]

_MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Schedule and stopping parameters for the smoothing iteration.

    alpha in (0, 1) and C > 0 define mu_k = C k^(-alpha).  The weak-convexity
    compatibility condition 2 rho C <= 1 involves g and is checked when the
    config meets a problem (``validate_for``).  ``epsilon`` is only used by
    the epoch variant.
    """

    alpha: float
    C: float
    max_iter: int
    stop_step_norm: float = 1e-5
    epsilon: float | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("alpha must lie in (0, 1)")
        if not (self.C > 0.0):
            raise DomainError("C must be positive")
        if self.max_iter < 0:
            raise DomainError("max_iter must be nonnegative")
        if self.stop_step_norm < 0.0:
            raise DomainError("stop_step_norm must be nonnegative")
        if self.epsilon is not None and not (self.epsilon > 0.0):
            raise DomainError("epsilon must be positive")

    def validate_for(self, g):
        if 2.0 * g.rho * self.C > 1.0 + 1e-15:
            raise DomainError(
                "schedule constant C=%g violates 2*rho*C <= 1 for rho=%g"
                % (self.C, g.rho)
            )


class IterateTrace:
    """Per-iteration record of the smoothing run.

    Row j (0-based) describes iterate x_k with k = j + 1: the smoothing
    parameter and step actually used at that index, the smoothed objective
    F_k(x_k), the projected gradient norm |P_V grad F_k(x_k)|, the prox
    residual |A x_k - prox_{mu_k g}(A x_k)|, and wall-clock seconds since the
    run started.  A run of s steps leaves s + 1 rows.
    """

    def __init__(self, alpha, C):
        self.alpha = alpha
        self.C = C
        self.k = []
        self.mu = []
        self.gamma = []
        self.objective = []
        self.proj_grad_norm = []
        self.prox_residual = []
        self.elapsed_s = []
        self.final_x = None
        self.iterations = 0
        self.stop_reason = None
        self.best_index = None
        self.best_grad_norm = None

    def append(self, k, mu, gamma, objective, pgn, res, elapsed):
        self.k.append(int(k))
        self.mu.append(float(mu))
        self.gamma.append(float(gamma))
        self.objective.append(float(objective))
        self.proj_grad_norm.append(float(pgn))
        self.prox_residual.append(float(res))
        self.elapsed_s.append(float(elapsed))

    def running_min_grad(self):
        return np.minimum.accumulate(np.asarray(self.proj_grad_norm))

    def __len__(self):
        return len(self.k)


def schedule(cfg, problem, k):
    """(mu_k, L_k, gamma_k) for iteration k >= 1."""
    if k < 1:
        raise DomainError("iteration index must be >= 1")
    mu = cfg.C * float(k) ** (-cfg.alpha)
    lip = problem.h.lip_grad + problem.a_map.norm_bound**2 / mu
    if not (lip > 0.0):
        raise DomainError("smoothed objective has zero curvature bound")
    return mu, lip, 1.0 / lip


def _require_in_subspace(projector, x, what="x"):
    drift = np.linalg.norm(x - projector.apply(x))
    if drift > _MEMBERSHIP_TOL * (1.0 + np.linalg.norm(x)):
        raise ContractError(
            "%s is not in the constraint subspace (drift %.3e)" % (what, drift)
        )


def pvs_step(problem, cfg, k, x):
    """One projected step at iteration index k: P_V(x - gamma_k grad F_k(x)).

    ``x`` must already lie in V (up to 1e-9 relative drift).
    """
    x = np.asarray(x, dtype=float)
    _require_in_subspace(problem.subspace, x)
    mu, _, gamma = schedule(cfg, problem, k)
    _, grad, _ = problem.smoothed_parts(mu, x)
    return problem.subspace.apply(x - gamma * grad)


def _record_state(problem, cfg, k, x, trace, t0):
    mu, _, gamma = schedule(cfg, problem, k)
    val, grad, res = problem.smoothed_parts(mu, x)
    pg = problem.subspace.apply(grad)
    pgn = float(np.linalg.norm(pg))
    trace.append(k, mu, gamma, val, pgn, res, time.perf_counter() - t0)
    if not np.isfinite(val) or not np.isfinite(pgn) or not np.all(np.isfinite(grad)):
        trace.final_x = x
        trace.iterations = k - 1
        trace.stop_reason = "numerical_error"
        raise NumericalError("non-finite state at iteration %d" % k, trace=trace)
    return gamma, grad, pgn, res


def _attach_trace(exc, trace, x, steps):
    """Give an error raised inside a run's loop the partial trace, unless it
    already carries one (the loop's own failures fill it in themselves)."""
    if getattr(exc, "trace", None) is None:
        trace.final_x = x
        trace.iterations = steps
        trace.stop_reason = "component_error"
        exc.trace = trace


def run_pvs(problem, cfg, x1):
    """Run the smoothing iteration from x1 (which must lie in V).

    Stops after ``cfg.max_iter`` steps or once the step norm
    |x_{k+1} - x_k| drops to ``cfg.stop_step_norm``.  Returns the trace,
    whose ``final_x`` / ``iterations`` / ``stop_reason`` summarize the run.
    A :class:`PvsError` raised by a component (e.g. an inner prox solver
    running out of budget) propagates with the partial trace attached, its
    ``stop_reason`` set to ``"component_error"``.
    """
    cfg.validate_for(problem.g)
    x = np.array(x1, dtype=float)
    _require_in_subspace(problem.subspace, x, "x1")
    t0 = time.perf_counter()
    trace = IterateTrace(cfg.alpha, cfg.C)
    reason = "max_iter"
    steps = 0
    try:
        gamma, grad, _, _ = _record_state(problem, cfg, 1, x, trace, t0)
        for k in range(1, cfg.max_iter + 1):
            x_next = problem.subspace.apply(x - gamma * grad)
            step_norm = float(np.linalg.norm(x_next - x))
            x = x_next
            steps = k
            gamma, grad, _, _ = _record_state(problem, cfg, k + 1, x, trace, t0)
            if step_norm <= cfg.stop_step_norm:
                reason = "step_norm"
                break
    except PvsError as exc:
        _attach_trace(exc, trace, x, steps)
        raise
    trace.final_x = x
    trace.iterations = steps
    trace.stop_reason = reason
    return trace


def run_pvs_epochs(problem, cfg, x1, epsilon=None):
    """Doubling-epoch variant with a two-part stationarity stop.

    Epoch l covers iterations k in [2^l, 2^(l+1)).  Within an epoch the best
    projected gradient norm of the *arriving* iterates x_{k+1} is tracked;
    when a new best value S is recorded, the run stops as soon as

        S <= epsilon   and   prox residual <= epsilon^(2 alpha / (1 - alpha)).

    Returns ``(x_stop, trace)``.  Exhausting ``cfg.max_iter`` steps raises
    :class:`ConvergenceError` carrying the best iterate seen and the trace.
    Component errors carry the partial trace as in :func:`run_pvs`.
    """
    cfg.validate_for(problem.g)
    eps = cfg.epsilon if epsilon is None else float(epsilon)
    if eps is None or not (eps > 0.0):
        raise DomainError("epoch variant needs a positive epsilon")
    res_threshold = eps ** (2.0 * cfg.alpha / (1.0 - cfg.alpha))

    x = np.array(x1, dtype=float)
    _require_in_subspace(problem.subspace, x, "x1")
    t0 = time.perf_counter()
    trace = IterateTrace(cfg.alpha, cfg.C)
    best_x, best_pgn, best_k = x.copy(), np.inf, 1
    steps = 0
    epoch = 0
    try:
        gamma, grad, _, _ = _record_state(problem, cfg, 1, x, trace, t0)
        while True:
            window_best = np.inf
            for k in range(2**epoch, 2 ** (epoch + 1)):
                if k > cfg.max_iter:
                    trace.final_x = best_x
                    trace.iterations = steps
                    trace.stop_reason = "budget_exhausted"
                    trace.best_index = best_k
                    trace.best_grad_norm = best_pgn
                    raise ConvergenceError(
                        "epoch run exhausted %d iterations without meeting "
                        "epsilon=%g" % (cfg.max_iter, eps),
                        residual=best_pgn,
                        iterations=steps,
                        best=best_x,
                        trace=trace,
                    )
                x_next = problem.subspace.apply(x - gamma * grad)
                x = x_next
                steps = k
                gamma, grad, pgn, res = _record_state(
                    problem, cfg, k + 1, x, trace, t0)
                if pgn < best_pgn:
                    best_x, best_pgn, best_k = x.copy(), pgn, k + 1
                if pgn <= window_best:
                    window_best = pgn
                    if window_best <= eps and res <= res_threshold:
                        trace.final_x = x
                        trace.iterations = steps
                        trace.stop_reason = "epoch_stationarity"
                        trace.best_index = k + 1
                        trace.best_grad_norm = window_best
                        return x, trace
            epoch += 1
    except PvsError as exc:
        _attach_trace(exc, trace, x, steps)
        raise


@dataclass(frozen=True)
class StationarityReport:
    """Observed stationarity measures at an index k, with their bounds.

    ``grad_bound`` / ``prox_bound`` are None when g has no recorded Lipschitz
    constant.  ``heuristic`` flags that no reference value was available and
    the observed minimum objective stood in for it, so the gradient bound is
    indicative rather than certified.
    """

    k: int
    grad_norm_min: float
    prox_residual: float
    grad_bound: float | None
    prox_bound: float | None
    heuristic: bool


def stationarity_constant(problem, cfg, first_objective, reference):
    """Constant in the k^((alpha-1)/2) gradient-norm bound.

    sqrt(2) * sqrt(L_h + |A|^2 / C) / sqrt(2^(1-alpha) - 1)
    * sqrt(F_1(x_1) - F_ref + C L_g^2).
    """
    lg = problem.g.lipschitz
    if lg is None:
        raise DomainError("g has no Lipschitz constant; the bound is undefined")
    gap = first_objective - reference + cfg.C * lg * lg
    gap = max(gap, 0.0)
    lip_term = problem.h.lip_grad + problem.a_map.norm_bound**2 / cfg.C
    return float(
        np.sqrt(2.0) * np.sqrt(lip_term) / np.sqrt(2.0 ** (1.0 - cfg.alpha) - 1.0)
        * np.sqrt(gap)
    )


def epoch_stationarity_constant(problem, cfg, first_objective, reference):
    """Epoch-variant constant; the window bookkeeping tightens the constant
    by a factor sqrt(1 - alpha)."""
    return float(
        np.sqrt(1.0 - cfg.alpha)
        * stationarity_constant(problem, cfg, first_objective, reference)
    )


def epoch_iteration_budget(problem, cfg, first_objective, reference, epsilon):
    """Worst-case iteration count for the epoch variant to stop at epsilon:

    2 * max(Ctil^(2/(1-alpha)), (C L_g)^(1/alpha)) * epsilon^(-2/(1-alpha))
    with Ctil the epoch stationarity constant."""
    lg = problem.g.lipschitz
    if lg is None:
        raise DomainError("g has no Lipschitz constant; the budget is undefined")
    ctil = epoch_stationarity_constant(problem, cfg, first_objective, reference)
    expo = 2.0 / (1.0 - cfg.alpha)
    return float(
        2.0 * max(ctil**expo, (cfg.C * lg) ** (1.0 / cfg.alpha)) * epsilon ** (-expo)
    )


def theorem_bound_margins(problem, trace):
    """Margins (bound - observed) of the two stationarity bounds along a trace.

    Returns ``(grad_margin, prox_margin, heuristic)`` as arrays over the
    trace rows, or None entries when g has no Lipschitz constant.  All
    margins being nonnegative (up to float slack) means the run satisfied
    both decay guarantees.
    """
    lg = problem.g.lipschitz
    if lg is None:
        return None, None, True
    ks = np.asarray(trace.k, dtype=float)
    heuristic = problem.f_star is None
    reference = min(trace.objective) if heuristic else problem.f_star
    cfg = SolverConfig(alpha=trace.alpha, C=trace.C, max_iter=0)
    cbar = stationarity_constant(problem, cfg, trace.objective[0], reference)
    grad_bound = ks ** ((trace.alpha - 1.0) / 2.0) * cbar
    prox_bound = ks ** (-trace.alpha) * trace.C * lg
    grad_margin = grad_bound - trace.running_min_grad()
    prox_margin = prox_bound - np.asarray(trace.prox_residual)
    return grad_margin, prox_margin, heuristic


def stationarity_report(problem, trace, k):
    """Stationarity measures and bounds at iteration index k of a trace."""
    if not (1 <= k <= len(trace)):
        raise DomainError("k=%r outside the recorded range 1..%d" % (k, len(trace)))
    i = k - 1
    grad_min = float(np.min(trace.proj_grad_norm[: i + 1]))
    res = trace.prox_residual[i]
    grad_margin, prox_margin, heuristic = theorem_bound_margins(problem, trace)
    if grad_margin is None:
        return StationarityReport(k, grad_min, res, None, None, True)
    gmin_running = trace.running_min_grad()
    return StationarityReport(
        k,
        grad_min,
        res,
        float(grad_margin[i] + gmin_running[i]),
        float(prox_margin[i] + res),
        heuristic,
    )


def affine_shift_wrap(problem, z0):
    """Recast  min_{x in z0 + W} h(x) + g(A x)  over the subspace W.

    Returns a problem whose smooth part is h(. + z0) and whose nonsmooth part
    is g(. + A z0), with the prox identity
    prox_{mu g(. + A z0)}(y) = prox_{mu g}(y + A z0) - A z0.  Solutions x_hat
    of the returned problem map back to x_hat + z0.
    """
    z0 = np.asarray(z0, dtype=float)
    az0 = problem.a_map.apply(z0)
    h, g = problem.h, problem.g
    shifted_h = CallableSmooth(
        lambda x: h.value(x + z0), lambda x: h.grad(x + z0), h.lip_grad
    )
    shifted_g = CallableProx(
        lambda y: g.value(y + az0),
        lambda mu, y: g.prox(mu, y + az0) - az0,
        rho=g.rho,
        lipschitz=g.lipschitz,
        mu_max=g.mu_max,
    )
    return CompositeProblem(
        shifted_h, shifted_g, problem.a_map, problem.subspace, f_star=problem.f_star
    )
