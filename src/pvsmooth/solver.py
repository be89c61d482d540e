"""Projected gradient iteration on a variably smoothed composite objective.

Each iteration k uses the smoothed objective F_k(x) = h(x) + g_{mu_k}(A x)
with mu_k = C k^(-alpha), Lipschitz constant L_k = L_h + |A|^2 / mu_k and
step gamma_k = 1/L_k:

    x_{k+1} = P_V(x_k - gamma_k grad F_k(x_k)) = x_k - gamma_k P_V grad F_k(x_k).

The two forms agree because x_k lies in V and P_V is linear, so
P_V x_k = x_k.  The loop takes the second form: P_V grad F_k(x_k) is needed
for the trace anyway, so each step costs one projection, and the step norm
|x_{k+1} - x_k| is gamma_k |P_V grad F_k(x_k)|.  The start x_1 and the
returned iterate are checked to lie in V (1e-9 relative drift); a projector
that is not linear fails the final check.

With 2 rho C <= 1, the running minimum of |P_V grad F_j(x_j)| decays like
k^((alpha-1)/2) and the prox residual |A x_k - prox_{mu_k g}(A x_k)| like
k^(-alpha) (for Lipschitz g); both bounds are exposed as diagnostics.

One loop runs this iteration; :func:`run_pvs` and :func:`run_pvs_epochs`
differ only in the stop rule they hand it.  ``run_pvs`` stops on the step
norm.  The epoch variant groups iterations into doubling windows
[2^l, 2^(l+1)), tracks the best projected gradient norm per window, and
stops once that best value drops below epsilon while the prox residual
meets a secondary threshold epsilon^(2 alpha / (1 - alpha)).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .core import CallableProx, CompositeProblem, SmoothFunction
from .errors import ContractError, ConvergenceError, DomainError, NumericalError, PvsError

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "schedule",
    "pvs_step",
    "run_pvs",
    "run_pvs_epochs",
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
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise DomainError("max_iter must be a nonnegative integer")
        if not (self.stop_step_norm >= 0.0):
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
    # a non-finite x would warn in x - P x; its drift reads as NaN
    drift = np.linalg.norm(x - projector.apply(x)) if np.isfinite(x).all() else np.nan
    if not drift <= _MEMBERSHIP_TOL * (1.0 + np.linalg.norm(x)):
        raise ContractError(
            "%s is not in the constraint subspace (drift %.3e)" % (what, drift)
        )


def _state(problem, cfg, k, x):
    """The iteration at x = x_k: ``(mu_k, gamma_k, F_k(x), |P_V grad F_k(x)|,
    prox residual, grad F_k(x), step)``, where x - step is x_{k+1}."""
    mu, _, gamma = schedule(cfg, problem, k)
    val, grad, res = problem.smoothed_parts(mu, x)
    pg = problem.subspace.apply(grad)
    # sqrt(pg @ pg) is what np.linalg.norm computes for a 1-d array
    return mu, gamma, val, math.sqrt(pg @ pg), res, grad, gamma * pg


def pvs_step(problem, cfg, k, x):
    """One projected step at iteration index k: x - gamma_k P_V grad F_k(x),
    the step the run loop takes, equal to P_V(x - gamma_k grad F_k(x)).

    ``x`` must already lie in V (up to 1e-9 relative drift).
    """
    x = np.asarray(x, dtype=float)
    _require_in_subspace(problem.subspace, x)
    return x - _state(problem, cfg, k, x)[-1]


def _iterate(problem, cfg, x1, stop, exhausted):
    """The smoothing iteration from x1, ended by a stop rule.

    Row k of the trace describes x_k.  After the step k that produced
    x_{k+1} and its row, ``stop(k, x_{k+1}, pgn, res, step_norm)`` returns a
    stop reason, or None to go on.  Once ``cfg.max_iter`` steps are done,
    ``exhausted(x)`` returns the reason and the iterate to hand out.  The
    iterate handed out is checked to lie in V and returned with the trace,
    as ``(x, trace)``.

    A non-finite value, projected gradient or gradient raises
    :class:`NumericalError` with ``stop_reason`` ``"numerical_error"``, after
    its row is recorded.  Any other :class:`PvsError` raised on the way
    propagates with the partial trace attached: the last iterate as
    ``final_x``, the steps done as ``iterations`` and ``stop_reason``
    ``"component_error"``.
    """
    cfg.validate_for(problem.g)
    x = np.array(x1, dtype=float)
    _require_in_subspace(problem.subspace, x, "x1")
    t0 = time.perf_counter()
    trace = IterateTrace(cfg.alpha, cfg.C)
    try:
        for k in range(1, cfg.max_iter + 2):
            mu, gamma, val, pgn, res, grad, step = _state(problem, cfg, k, x)
            trace.append(k, mu, gamma, val, pgn, res, time.perf_counter() - t0)
            if not (math.isfinite(val) and math.isfinite(pgn) and np.isfinite(grad).all()):
                trace.final_x, trace.iterations, trace.stop_reason = (
                    x, k - 1, "numerical_error")
                raise NumericalError("non-finite state at iteration %d" % k, trace=trace)
            reason = stop(k - 1, x, pgn, res, step_norm) if k > 1 else None
            if reason is not None:
                out = x
                break
            if k > cfg.max_iter:
                reason, out = exhausted(x)
                break
            x = x - step
            step_norm = gamma * pgn
        _require_in_subspace(problem.subspace, out, "returned iterate")
    except PvsError as exc:
        if getattr(exc, "trace", None) is None:
            trace.final_x, trace.iterations, trace.stop_reason = (
                x, k - 1, "component_error")
            exc.trace = trace
        raise
    trace.final_x, trace.iterations, trace.stop_reason = out, k - 1, reason
    return out, trace


def run_pvs(problem, cfg, x1):
    """Run the smoothing iteration from x1 (which must lie in V).

    Stops after ``cfg.max_iter`` steps or once the step norm
    |x_{k+1} - x_k| = gamma_k |P_V grad F_k(x_k)| drops to
    ``cfg.stop_step_norm``.  Returns the trace, whose ``final_x`` /
    ``iterations`` / ``stop_reason`` summarize the run.  A :class:`PvsError`
    raised by a component (e.g. an inner prox solver running out of budget,
    or a final iterate that left V) propagates with the partial trace
    attached, its ``stop_reason`` set to ``"component_error"``.
    """

    def step_norm_stop(k, x, pgn, res, step_norm):
        return "step_norm" if step_norm <= cfg.stop_step_norm else None

    return _iterate(problem, cfg, x1, step_norm_stop, lambda x: ("max_iter", x))[1]


class _EpochWindows:
    """Stop rule of :func:`run_pvs_epochs`.

    ``best_x`` / ``best_pgn`` / ``best_k`` track the smallest projected
    gradient norm over the run; at the stationarity stop they become the
    stopping iterate, so they always describe the iterate handed out.
    """

    def __init__(self, cfg, x1):
        self.eps = cfg.epsilon
        self.res_threshold = cfg.epsilon ** (2.0 * cfg.alpha / (1.0 - cfg.alpha))
        self.best_x, self.best_pgn, self.best_k = np.array(x1, dtype=float), np.inf, 1
        self.window_best = np.inf

    def __call__(self, k, x, pgn, res, step_norm):
        if k & (k - 1) == 0:  # k = 2^l opens window l
            self.window_best = np.inf
        if pgn < self.best_pgn:
            self.best_x, self.best_pgn, self.best_k = x, pgn, k + 1
        if pgn <= self.window_best:
            self.window_best = pgn
            if pgn <= self.eps and res <= self.res_threshold:
                self.best_x, self.best_pgn, self.best_k = x, pgn, k + 1
                return "epoch_stationarity"
        return None

    def exhausted(self, x):
        return "budget_exhausted", self.best_x


def run_pvs_epochs(problem, cfg, x1):
    """Doubling-epoch variant with a two-part stationarity stop.

    ``cfg.epsilon`` must be set.  Epoch l covers iterations k in
    [2^l, 2^(l+1)).  Within an epoch the best projected gradient norm of the
    *arriving* iterates x_{k+1} is tracked; when a new best value S is
    recorded, the run stops as soon as

        S <= epsilon   and   prox residual <= epsilon^(2 alpha / (1 - alpha)).

    Returns ``(x_stop, trace)``.  Exhausting ``cfg.max_iter`` steps raises
    :class:`ConvergenceError` carrying the best iterate seen and the trace.
    The iterate handed out on either exit is checked to lie in V, and
    ``trace.best_index`` / ``trace.best_grad_norm`` describe it.  Component
    errors carry the partial trace as in :func:`run_pvs`.
    """
    if cfg.epsilon is None:
        raise DomainError("epoch variant needs a positive cfg.epsilon")
    rule = _EpochWindows(cfg, x1)
    x, trace = _iterate(problem, cfg, x1, rule, rule.exhausted)
    trace.best_index, trace.best_grad_norm = rule.best_k, rule.best_pgn
    if trace.stop_reason == "budget_exhausted":
        raise ConvergenceError(
            "epoch run exhausted %d iterations without meeting epsilon=%g"
            % (cfg.max_iter, cfg.epsilon),
            residual=rule.best_pgn,
            iterations=trace.iterations,
            best=x,
            trace=trace,
        )
    return x, trace


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


class _ShiftedSmooth(SmoothFunction):
    """x -> h(x + z0), one evaluation of h per call."""

    def __init__(self, h, z0):
        self.h = h
        self.z0 = z0
        self.lip_grad = h.lip_grad

    def value_and_grad(self, x):
        return self.h.value_and_grad(x + self.z0)


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
    shifted_h = _ShiftedSmooth(h, z0)
    shifted_g = CallableProx(
        lambda y: g.value(y + az0),
        lambda mu, y: g.prox(mu, y + az0) - az0,
        rho=g.rho,
        lipschitz=g.lipschitz,
    )
    return CompositeProblem(
        shifted_h, shifted_g, problem.a_map, problem.subspace, f_star=problem.f_star
    )
