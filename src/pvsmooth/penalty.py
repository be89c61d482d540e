"""Quadratic-distance penalty stages for ball-constrained problems.

A constraint x in B is replaced by the penalty term (lam/2) d(x, B)^2 with
an increasing weight schedule.  Along exact stage minimizers x_k for weights
lam_k the classical monotonicity relations hold:

    q(lam_k, x_k) nondecreasing,  P(x_k) nonincreasing,  f(x_k) nondecreasing,

and when the constrained problem has a minimizer x*,

    f(x*) >= q(lam_k, x_k) >= f(x_k)

sandwiches the penalized values.  The inner solver only approximates stage
minimizers, so downstream checks should allow its stopping tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, SmoothFunction, _require
from .errors import DomainError, PvsError, StageError
from .projections import project_ball
from .solver import SolverConfig, run_pvs

__all__ = [
    "BallPenalty",
    "SmoothSum",
    "penalty_distance_sq",
    "PenaltySchedule",
    "PenaltyDiagnostics",
    "run_penalty",
]


def penalty_distance_sq(ball, x):
    """Unit-weight penalty: (value, gradient) of (1/2) d(x, B)^2.

    The gradient is x - P_B(x); scaling by a weight lam scales both.
    """
    x = np.asarray(x, dtype=float)
    d = x - project_ball(ball, x)
    return float(0.5 * (d @ d)), d


class BallPenalty(SmoothFunction):
    """(weight/2) d(x, B)^2; gradient weight*(x - P_B(x)), Lipschitz weight."""

    def __init__(self, ball, weight):
        self.ball = ball
        self.weight = self.lip_grad = float(_require(weight, "weight", 0, math.inf))

    def value_and_grad(self, x):
        val, d = penalty_distance_sq(self.ball, x)
        return self.weight * val, self.weight * d


class SmoothSum(SmoothFunction):
    """Sum of smooth terms; Lipschitz constants add."""

    def __init__(self, *terms):
        self.terms = terms
        self.lip_grad = float(sum(t.lip_grad for t in terms))

    def value_and_grad(self, x):
        x = np.asarray(x, dtype=float)
        val, out = 0, np.zeros_like(x)
        for t in self.terms:
            t_val, t_grad = t.value_and_grad(x)
            val = val + t_val
            out = out + t_grad
        return float(val), out


@dataclass(frozen=True)
class PenaltySchedule:
    """Strictly increasing penalty weights and the inner-solver config every
    stage runs with."""

    lambdas: tuple
    config: SolverConfig

    def __post_init__(self):
        lambdas = tuple(float(_require(l, "lambdas", 0, math.inf)) for l in self.lambdas)
        object.__setattr__(self, "lambdas", lambdas)
        if not lambdas:
            raise DomainError("penalty weights must be nonempty")
        if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
            raise DomainError("penalty weights must be strictly increasing")


@dataclass
class PenaltyDiagnostics:
    lambdas: list
    penalized_values: list  # q(lam_k, x_k) = f(x_k) + lam_k P(x_k)
    penalty_values: list  # P(x_k) = (1/2) d(x_k, B)^2
    objective_values: list  # f(x_k) = problem.objective(x_k)
    stage_iterations: list
    stop_reasons: list


def run_penalty(problem, ball, schedule, x1):
    """Solve the penalized stages in order, warm-starting each from the last.

    Parameters
    ----------
    problem : CompositeProblem
        f = h + g(A .) over V.  Stage k solves it with h + (lam_k/2) d(., B)^2
        in place of h, keeping its ``dim`` (not its ``f_star``).
    ball : BallSpec
        The constraint set being penalized.
    schedule : PenaltySchedule
    x1 : initial point in the subspace.

    Returns ``(solutions, diagnostics)`` with one entry per stage.  If an
    inner run fails, a :class:`StageError` (``__cause__``: the inner error)
    carries the completed stages.  A schedule config that sets ``epsilon``
    gives epsilon-stopped stages (see :func:`run_pvs`); a stage that exhausts
    its budget then fails.
    """
    solutions = []
    diag = PenaltyDiagnostics([], [], [], [], [], [])
    x = np.asarray(x1, dtype=float)
    for lam in schedule.lambdas:
        stage = CompositeProblem(SmoothSum(problem.h, BallPenalty(ball, lam)), problem.g,
                                 problem.a_map, problem.subspace, dim=problem.dim)
        try:
            trace = run_pvs(stage, schedule.config, x)
        except PvsError as exc:
            raise StageError(
                "penalty stage lam=%g failed: %s" % (lam, exc),
                completed=solutions,
                diagnostics=diag,
            ) from exc
        x = trace.final_x
        pen, _ = penalty_distance_sq(ball, x)
        f_val = problem.objective(x)
        solutions.append(x)
        diag.lambdas.append(lam)
        diag.penalty_values.append(pen)
        diag.objective_values.append(f_val)
        diag.penalized_values.append(f_val + lam * pen)
        diag.stage_iterations.append(trace.iterations)
        diag.stop_reasons.append(trace.stop_reason)
    return solutions, diag
