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

One loop, :func:`run_pvs`, runs this iteration, and ``SolverConfig.epsilon``
picks its stop rule: the step norm, or the paper's epsilon stop on doubling
windows of iterations (its docstring states the window rule).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import _all_finite, _require
from .errors import ContractError, ConvergenceError, DomainError, NumericalError, PvsError

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "schedule",
    "pvs_step",
    "run_pvs",
    "stationarity_constant",
    "epoch_iteration_budget",
    "theorem_bound_margins",
]

_MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Schedule and stopping parameters for the smoothing iteration.

    alpha in (0, 1) and C > 0 define mu_k = C k^(-alpha).  The weak-convexity
    compatibility condition 2 rho C <= 1 involves g and is checked when the
    config meets a problem (``validate_for``).  Whether ``epsilon`` is set
    picks the stop rule of :func:`run_pvs`.
    """

    alpha: float
    C: float
    max_iter: int
    stop_step_norm: float = 1e-5
    epsilon: float | None = None

    def __post_init__(self):
        _require(self.alpha, "alpha", 0, 1)
        _require(self.C, "C", 0, math.inf)
        _require(self.max_iter, "max_iter", 0, math.inf, integer=True, ends="[)")
        _require(self.stop_step_norm, "stop_step_norm", 0, math.inf, ends="[]")
        _require(self.epsilon, "epsilon", 0, math.inf, allow_none=True, ends="(]")

    def validate_for(self, g):
        if not 2.0 * g.rho * self.C <= 1.0 + 1e-15:  # written so that a NaN rho fails
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
    run started.  A run of s steps leaves s + 1 rows.  ``config`` is the
    run's :class:`SolverConfig`, which the bound diagnostics read.
    """

    def __init__(self, config):
        self.config = config
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


def _require_flat(problem, x, what):
    """A start of the wrong shape raises :class:`ContractError` here, before
    any component sees it: ``x`` must be 1-d, of length ``problem.dim``."""
    if x.ndim != 1 or x.size != problem.dim:
        raise ContractError("%s must be a flat vector of length %d, got shape %r"
                            % (what, problem.dim, x.shape))


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
    the step :func:`run_pvs` takes, equal to P_V(x - gamma_k grad F_k(x)).

    As :func:`run_pvs` does, it checks 2 rho C <= 1 (``cfg.validate_for``);
    ``x`` must be a flat vector of the problem's dimension that already
    lies in V (up to 1e-9 relative drift).
    """
    cfg.validate_for(problem.g)
    x = np.asarray(x, dtype=float)
    _require_flat(problem, x, "x")
    _require_in_subspace(problem.subspace, x)
    return x - _state(problem, cfg, k, x)[-1]


def run_pvs(problem, cfg, x1):
    """Run the smoothing iteration from x1 (which must lie in V).

    Step j takes x_j to x_{j+1}, whose row the stop rule then reads; the
    trace's ``final_x`` / ``iterations`` / ``stop_reason`` summarize the
    run.  With ``cfg.epsilon`` unset, the run hands out its last iterate
    after ``cfg.max_iter`` steps (``"max_iter"``) or once the step norm
    |x_{j+1} - x_j| = gamma_j |P_V grad F_j(x_j)| drops to
    ``cfg.stop_step_norm`` (``"step_norm"``).

    With it set, the run takes the paper's epsilon stop and ignores
    ``stop_step_norm``.  Window l covers steps j in [2^l, 2^(l+1)) and
    opens empty at j = 2^l.  When the arriving iterate x_{j+1} sets a new
    window best S of the projected gradient norm (ties included), the run
    stops (``"epoch_stationarity"``) if

        S <= epsilon   and   prox residual <= epsilon^(2 alpha / (1 - alpha)).

    It hands out the arriving iterate of least projected gradient norm (the
    first on ties), or at the stop the stopping iterate; ``trace.best_index``
    and ``trace.best_grad_norm`` describe it.  Exhausting ``cfg.max_iter``
    steps raises :class:`ConvergenceError` carrying that iterate (x1, at
    index 1 with norm inf, when no step was taken) and the trace, whose
    ``stop_reason`` is ``"budget_exhausted"``.

    The start and the iterate handed out are checked to lie in V.  A
    non-finite value, projected gradient or gradient raises
    :class:`NumericalError` (``stop_reason`` ``"numerical_error"``) after
    its row is recorded.  Any other :class:`PvsError` on the way (e.g. an
    inner prox solver out of budget, or a final iterate outside V)
    propagates with the partial trace attached: the last iterate as
    ``final_x``, the steps done as ``iterations``, ``stop_reason``
    ``"component_error"``.  On either error ``best_index`` and
    ``best_grad_norm`` stay None.
    """
    cfg.validate_for(problem.g)
    x = np.array(x1, dtype=float)
    _require_flat(problem, x, "x1")
    _require_in_subspace(problem.subspace, x, "x1")
    eps = cfg.epsilon
    if eps is not None:
        res_threshold = eps ** (2.0 * cfg.alpha / (1.0 - cfg.alpha))
        best_x, best_pgn, best_k, window_best = x, math.inf, 1, math.inf
    t0 = time.perf_counter()
    trace = IterateTrace(cfg)
    try:
        for k in range(1, cfg.max_iter + 2):
            mu, gamma, val, pgn, res, grad, step = _state(problem, cfg, k, x)
            trace.append(k, mu, gamma, val, pgn, res, time.perf_counter() - t0)
            if not (math.isfinite(val) and math.isfinite(pgn) and _all_finite(grad)):
                trace.stop_reason = "numerical_error"  # the loop's own check
                raise NumericalError("non-finite state at iteration %d" % k)
            if k > 1 and eps is None:
                if step_norm <= cfg.stop_step_norm:
                    reason = "step_norm"
                    break
            elif k > 1:  # x = x_k arrives from step j = k - 1
                if (k - 1) & (k - 2) == 0:  # j = 2^l opens window l
                    window_best = math.inf
                if pgn < best_pgn:
                    best_x, best_pgn, best_k = x, pgn, k
                if pgn <= window_best:
                    window_best = pgn
                    if pgn <= eps and res <= res_threshold:
                        best_x, best_pgn, best_k = x, pgn, k
                        reason = "epoch_stationarity"
                        break
            if k > cfg.max_iter:
                reason = "max_iter" if eps is None else "budget_exhausted"
                break
            x = x - step
            step_norm = gamma * pgn
        out = x if eps is None else best_x
        _require_in_subspace(problem.subspace, out, "returned iterate")
    except PvsError as exc:
        if exc.trace is None:
            trace.final_x, trace.iterations = x, k - 1
            trace.stop_reason = trace.stop_reason or "component_error"
            exc.trace = trace
        raise
    trace.final_x, trace.iterations, trace.stop_reason = out, k - 1, reason
    if eps is None:
        return trace
    trace.best_index, trace.best_grad_norm = best_k, best_pgn
    if reason == "budget_exhausted":
        raise ConvergenceError(
            "epoch run exhausted %d iterations without meeting epsilon=%g"
            % (cfg.max_iter, eps),
            residual=best_pgn,
            iterations=trace.iterations,
            best=out,
            trace=trace,
        )
    return trace


def stationarity_constant(problem, cfg, first_objective, reference):
    """Constant in the k^((alpha-1)/2) gradient-norm bound.

    sqrt(2) * sqrt(L_1) / sqrt(2^(1-alpha) - 1) * sqrt(F_1(x_1) - F_ref + C L_g^2)
    with L_1 = L_h + |A|^2 / C from :func:`schedule` (mu_1 = C).

    Since g_mu >= g - mu L_g^2 / 2, a valid reference F_ref (a lower bound
    on the objective) makes the gap under the root at least C L_g^2 / 2; a
    negative gap means the reference lies above the minimum, and raises
    :class:`DomainError`.
    """
    lg = problem.g.lipschitz
    if lg is None:
        raise DomainError("g has no Lipschitz constant; the bound is undefined")
    gap = first_objective - reference + cfg.C * lg * lg
    if gap < 0.0:
        raise DomainError(
            "the reference %r exceeds F_1(x_1) + C L_g^2 = %r, so it is no lower"
            " bound on the objective" % (reference, first_objective + cfg.C * lg * lg))
    lip_1 = schedule(cfg, problem, 1)[1]
    return float(
        np.sqrt(2.0) * np.sqrt(lip_1) / np.sqrt(2.0 ** (1.0 - cfg.alpha) - 1.0)
        * np.sqrt(gap)
    )


def epoch_iteration_budget(problem, cfg, first_objective, reference, epsilon):
    """Worst-case iteration count for the epoch variant to stop at epsilon:

    2 * max(Ctil^(2/(1-alpha)), (C L_g)^(1/alpha)) * epsilon^(-2/(1-alpha))

    with Ctil the epoch stationarity constant: the window bookkeeping
    tightens :func:`stationarity_constant` (which needs L_g) by a factor
    sqrt(1 - alpha)."""
    ctil = float(np.sqrt(1.0 - cfg.alpha)
                 * stationarity_constant(problem, cfg, first_objective, reference))
    expo = 2.0 / (1.0 - cfg.alpha)
    return float(
        2.0 * max(ctil**expo, (cfg.C * problem.g.lipschitz) ** (1.0 / cfg.alpha))
        * epsilon ** (-expo)
    )


def theorem_bound_margins(problem, trace):
    """Margins (bound - observed) of the two stationarity bounds along a trace.

    Returns ``(grad_margin, prox_margin, heuristic)`` as arrays over the
    trace rows, or None entries when g has no Lipschitz constant.  All
    margins being nonnegative (up to float slack) means the run satisfied
    both decay guarantees.  The schedule is the run's own ``trace.config``.
    """
    lg = problem.g.lipschitz
    if lg is None:
        return None, None, True
    ks = np.asarray(trace.k, dtype=float)
    heuristic = problem.f_star is None
    reference = min(trace.objective) if heuristic else problem.f_star
    cfg = trace.config
    cbar = stationarity_constant(problem, cfg, trace.objective[0], reference)
    grad_bound = ks ** ((cfg.alpha - 1.0) / 2.0) * cbar
    prox_bound = ks ** (-cfg.alpha) * cfg.C * lg
    grad_margin = grad_bound - trace.running_min_grad()
    prox_margin = prox_bound - np.asarray(trace.prox_residual)
    return grad_margin, prox_margin, heuristic
