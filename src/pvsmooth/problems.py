"""Model problem builders: max-dispersion, discrete distributionally robust
objectives, and subspace-constrained regularized least squares.

Each builder assembles a :class:`~pvsmooth.core.CompositeProblem` whose
pieces come from the prox toolkit and the projection module, so the generic
smoothing solver applies unchanged.  The ball-constrained problems arrive in
penalized form: the hard constraint x in B is replaced by (lam/2) d(x, B)^2,
and the builders reject weights at or below the coercivity threshold
(lam <= 2 sigma for the affine families, lam <= 2 for the quadratic ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CompositeProblem,
    IdentityMap,
    IdentityProjector,
    MatrixMap,
    ProxFunction,
    SmoothFunction,
    matrix_norm_bound,
)
from .errors import DomainError
from .penalty import BallPenalty
from .projections import (
    BallSpec,
    KernelProjector,
    ReplicatedKernelProjector,
    project_ball,
    project_simplex,
)
from .prox import L1Penalty, SupAffineFamily, SupQuadraticFamily, simplex_support_max

__all__ = [
    "MaxDispersionInstance",
    "LassoInstance",
    "QuadraticLoss",
    "FirstBlockBallPenalty",
    "ProductBallPenalty",
    "build_max_dispersion_direct",
    "build_max_dispersion_product",
    "build_dro_affine",
    "build_dro_quadratic",
    "build_constrained_lasso",
    "dispersion_objective",
    "subspace_start",
    "random_anchors",
    "random_affine_scenarios",
    "random_lasso_data",
]


# ---------------------------------------------------------------------------
# smooth terms
# ---------------------------------------------------------------------------

class QuadraticLoss(SmoothFunction):
    """h(x) = |B x - b|^2 with grad 2 B^T (B x - b) and L = 2 |B|^2."""

    def __init__(self, design, target):
        self.design = np.atleast_2d(np.asarray(design, dtype=float))
        self.target = np.asarray(target, dtype=float)
        if self.target.ndim != 1:
            raise DomainError("target must be a 1-d array of samples")
        if self.design.shape[0] != self.target.size:
            raise DomainError("design and target disagree on the sample count")
        self.lip_grad = 2.0 * matrix_norm_bound(self.design) ** 2

    def value_and_grad(self, x):
        r = self.design @ np.asarray(x, dtype=float) - self.target
        return float(r @ r), 2.0 * (self.design.T @ r)


class FirstBlockBallPenalty(BallPenalty):
    """(weight/2) d(x_1, B)^2 on a product space; only block 1 is penalized.

    Used with the replicated-diagonal subspace, where all blocks agree and
    penalizing one of them is enough.
    """

    def __init__(self, ball, weight, n_blocks):
        super().__init__(ball, weight)
        self.n_blocks = int(n_blocks)

    def value_and_grad(self, x):
        x = np.asarray(x, dtype=float)
        x1 = x.reshape(self.n_blocks, -1)[0]  # also rejects a length not N * d
        d = x1 - project_ball(self.ball, x1)
        grad = np.zeros(x.size)
        grad[: d.size] = self.weight * d
        return float(0.5 * self.weight * (d @ d)), grad


class ProductBallPenalty(BallPenalty):
    """(weight/2) sum_i d(x_i, B)^2 over all blocks of a product space."""

    def __init__(self, ball, weight, n_blocks):
        super().__init__(ball, weight)
        self.n_blocks = int(n_blocks)

    def value_and_grad(self, x):
        blocks = np.asarray(x, dtype=float).reshape(self.n_blocks, -1)
        d = blocks - np.stack([project_ball(self.ball, row) for row in blocks])
        return float(0.5 * self.weight * (d * d).sum()), (self.weight * d).ravel()


# ---------------------------------------------------------------------------
# instances and builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxDispersionInstance:
    """Place a point of V far from all anchors while staying near the ball.

    anchors: (N, n) rows u_i; constraint_matrix: R with V = ker R (None
    means V is the whole space); radius: ball radius r around the origin;
    lam: penalty weight for leaving the ball (must exceed 2).
    """

    anchors: np.ndarray
    radius: float
    lam: float
    constraint_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(
            self, "anchors", np.atleast_2d(np.asarray(self.anchors, dtype=float))
        )


def _kernel_subspace(constraint_matrix):
    """P_V for V = ker R, the whole space when R is None."""
    if constraint_matrix is None:
        return IdentityProjector()
    return KernelProjector(constraint_matrix)


def dispersion_objective(anchors, radius, lam, x):
    """Penalized dispersion objective
    (lam/2) max(|x| - r, 0)^2 + max_i -|x - u_i|^2."""
    x = np.asarray(x, dtype=float)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    excess = max(float(np.linalg.norm(x)) - radius, 0.0)
    d = anchors - x
    return float(0.5 * lam * excess * excess - (d * d).sum(axis=1).min())


def build_dro_affine(a_rows, offsets, lam, radius, ambiguity_projector, support_max,
                     sigma=1.0, constraint_matrix=None):
    """Scenario costs <a_i, x> + b_i - sigma |x|^2 with weights in an
    ambiguity set C, ball-penalized with weight lam (which must exceed 2 sigma).

    ``ambiguity_projector`` projects onto C and ``support_max`` is its support
    function v -> max_{c in C} <c, v> (project_simplex and simplex_support_max
    for the full simplex); the weight prox is :func:`~pvsmooth.prox.prox_sup_affine`.
    """
    if not (lam > 2.0 * sigma):
        raise DomainError("penalty weight must exceed %g for a coercive objective"
                          % (2.0 * sigma))
    g = SupAffineFamily(
        a_rows, offsets, sigma=sigma,
        project_ambiguity=ambiguity_projector, support_max=support_max,
    )
    dim = g.a_rows.shape[1]
    h = BallPenalty(BallSpec(np.zeros(dim), radius), lam)
    subspace = _kernel_subspace(constraint_matrix)
    return CompositeProblem(h, g, IdentityMap(), subspace, dim=dim)


def _sup_quadratic_problem(centers, lam, radius, constraint_matrix, penalty):
    """max_i -|x_i - c_i|^2 on the product space, its copies coupled through
    the replicated-diagonal subspace, plus the ball penalty class
    ``penalty(ball, lam, n_blocks)``; the prox is closed-form."""
    if not (lam > 2.0):
        raise DomainError("penalty weight must exceed 2 for a coercive objective")
    g = SupQuadraticFamily(centers)
    n_blocks, dim = g.centers.shape
    h = penalty(BallSpec(np.zeros(dim), radius), lam, n_blocks)
    subspace = ReplicatedKernelProjector(_kernel_subspace(constraint_matrix), n_blocks)
    return CompositeProblem(h, g, IdentityMap(), subspace, dim=dim * n_blocks)


def build_dro_quadratic(centers, lam, radius, constraint_matrix=None):
    """Scenario costs -|x_i - c_i|^2 on a product space with weights on the
    full simplex, every block ball-penalized with weight lam (which must
    exceed 2)."""
    return _sup_quadratic_problem(centers, lam, radius, constraint_matrix,
                                  ProductBallPenalty)


def build_max_dispersion_direct(inst):
    """Single-space formulation: the anchor maximum is a supremum of affine
    forms minus |x|^2, so the prox solves the dual over the simplex exactly
    by its certified active set (:func:`~pvsmooth.prox.prox_sup_affine`).

    max_i -|x - u_i|^2 = sup_{p in simplex} sum_i p_i (<2 u_i, x> - |u_i|^2) - |x|^2.
    """
    anchors = inst.anchors
    return build_dro_affine(
        2.0 * anchors, -(anchors * anchors).sum(axis=1), inst.lam, inst.radius,
        project_simplex, simplex_support_max, constraint_matrix=inst.constraint_matrix,
    )


def build_max_dispersion_product(inst):
    """Product formulation: one copy of x per anchor, coupled through the
    replicated-diagonal subspace; the anchor maximum becomes a supremum of
    concave quadratics with a closed-form prox, and only the first block
    carries the ball penalty."""
    return _sup_quadratic_problem(inst.anchors, inst.lam, inst.radius,
                                  inst.constraint_matrix, FirstBlockBallPenalty)


@dataclass(frozen=True)
class LassoInstance:
    """Least squares |B x - b|^2 plus a separable penalty on a subspace.

    An optional inner matrix T replaces the identity composition; with a
    :class:`~pvsmooth.prox.TukeyPenalty` whose shifts are s this gives
    robust-regression losses of the form sum_i tukey(<t_i, x> - s_i).
    """

    design: np.ndarray
    target: np.ndarray
    regularizer: ProxFunction
    constraint_matrix: Optional[np.ndarray] = None
    inner_matrix: Optional[np.ndarray] = None
    f_star: Optional[float] = None


def build_constrained_lasso(inst):
    h = QuadraticLoss(inst.design, inst.target)
    n = np.atleast_2d(np.asarray(inst.design, dtype=float)).shape[1]
    g = inst.regularizer
    if isinstance(g, L1Penalty) and g.lipschitz is None:
        # record L_g = lam sqrt(n) so the decay-bound diagnostics apply
        g = L1Penalty(g.lam, lipschitz=g.lam * np.sqrt(n))
    a_map = IdentityMap() if inst.inner_matrix is None else MatrixMap(inst.inner_matrix)
    subspace = _kernel_subspace(inst.constraint_matrix)
    return CompositeProblem(h, g, a_map, subspace, f_star=inst.f_star, dim=n)


# ---------------------------------------------------------------------------
# seeded data and starts
# ---------------------------------------------------------------------------

def subspace_start(projector, dim):
    """A deterministic nonzero point of the subspace, when one exists.

    Projects halved standard basis vectors until the image is nonzero; a
    zero start would sit at a stationary point of some model objectives.
    """
    for i in range(int(dim)):
        e = np.zeros(int(dim))
        e[i] = 0.5
        p = projector.apply(e)
        if np.linalg.norm(p) > 1e-8 * 0.5:
            return p
    return np.zeros(int(dim))


def _seeded_rng(dim, count, seed):
    """numpy's default generator for ``seed``, once the shape and seed pass:
    :class:`DomainError` unless dim >= 1, count >= 1 and seed >= 0."""
    if not (dim >= 1 and count >= 1 and seed >= 0):
        raise DomainError("seeded data needs dim >= 1, count >= 1 and seed >= 0, "
                          "got dim=%r, count=%r, seed=%r" % (dim, count, seed))
    return np.random.default_rng(seed)


def random_anchors(dim, count, seed):
    """Anchors drawn coordinatewise uniformly from [0, 2]."""
    rng = _seeded_rng(dim, count, seed)
    return 2.0 * rng.random((count, dim))


def random_affine_scenarios(dim, count, seed):
    """Scenario slopes/offsets drawn uniformly from [-1, 1]."""
    rng = _seeded_rng(dim, count, seed)
    return rng.uniform(-1.0, 1.0, (count, dim)), rng.uniform(-1.0, 1.0, count)


def random_lasso_data(dim, samples, seed):
    """Gaussian design scaled by 1/sqrt(samples) and a Gaussian target."""
    rng = _seeded_rng(dim, samples, seed)
    design = rng.standard_normal((samples, dim)) / np.sqrt(samples)
    target = rng.standard_normal(samples)
    return design, target
