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
    SmoothFunction,
    matrix_norm_bound,
)
from .errors import ConfigError, DomainError
from .penalty import BallPenalty
from .projections import (
    BallSpec,
    DiagonalProjector,
    KernelProjector,
    ReplicatedKernelProjector,
    project_ball,
    project_simplex,
)
from .prox import ScalarRegularizer, SupAffineFamily, SupQuadraticFamily, simplex_support_max

__all__ = [
    "MaxDispersionInstance",
    "DroDiscreteInstance",
    "LassoInstance",
    "QuadraticLoss",
    "FirstBlockBallPenalty",
    "ProductBallPenalty",
    "build_max_dispersion_direct",
    "build_max_dispersion_product",
    "build_dro_discrete",
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
        if self.design.shape[0] != self.target.size:
            raise DomainError("design and target disagree on the sample count")
        self.lip_grad = 2.0 * matrix_norm_bound(self.design) ** 2

    def value(self, x):
        r = self.design @ np.asarray(x, dtype=float) - self.target
        return float(r @ r)

    def grad(self, x):
        r = self.design @ np.asarray(x, dtype=float) - self.target
        return 2.0 * (self.design.T @ r)


class FirstBlockBallPenalty(SmoothFunction):
    """(weight/2) d(x_1, B)^2 on a product space; only block 1 is penalized.

    Used with the replicated-diagonal subspace, where all blocks agree and
    penalizing one of them is enough.
    """

    def __init__(self, ball, weight, n_blocks):
        if not (weight > 0):
            raise DomainError("penalty weight must be positive")
        self.ball = ball
        self.weight = float(weight)
        self.n_blocks = int(n_blocks)
        self.lip_grad = float(weight)

    def _first(self, x):
        x = np.asarray(x, dtype=float)
        return x, x.reshape(self.n_blocks, -1)[0]

    def value(self, x):
        _, x1 = self._first(x)
        d = x1 - project_ball(self.ball, x1)
        return float(0.5 * self.weight * (d @ d))

    def grad(self, x):
        x, x1 = self._first(x)
        out = np.zeros_like(x).reshape(self.n_blocks, -1)
        out[0] = self.weight * (x1 - project_ball(self.ball, x1))
        return out.ravel()


class ProductBallPenalty(SmoothFunction):
    """(weight/2) sum_i d(x_i, B)^2 over all blocks of a product space."""

    def __init__(self, ball, weight, n_blocks):
        if not (weight > 0):
            raise DomainError("penalty weight must be positive")
        self.ball = ball
        self.weight = float(weight)
        self.n_blocks = int(n_blocks)
        self.lip_grad = float(weight)

    def _residual(self, x):
        blocks = np.asarray(x, dtype=float).reshape(self.n_blocks, -1)
        proj = np.stack([project_ball(self.ball, row) for row in blocks])
        return blocks - proj

    def value(self, x):
        d = self._residual(x)
        return float(0.5 * self.weight * (d * d).sum())

    def grad(self, x):
        return (self.weight * self._residual(x)).ravel()


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
        if self.constraint_matrix is not None:
            object.__setattr__(
                self,
                "constraint_matrix",
                np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float)),
            )
        if not (self.radius > 0):
            raise DomainError("radius must be positive")

    @property
    def n_anchors(self):
        return self.anchors.shape[0]

    @property
    def dim(self):
        return self.anchors.shape[1]


def _dispersion_subspace(inst):
    if inst.constraint_matrix is None:
        return IdentityProjector()
    return KernelProjector(inst.constraint_matrix)


def dispersion_objective(anchors, radius, lam, x):
    """Penalized dispersion objective
    (lam/2) max(|x| - r, 0)^2 + max_i -|x - u_i|^2."""
    x = np.asarray(x, dtype=float)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    excess = max(float(np.linalg.norm(x)) - radius, 0.0)
    d = anchors - x
    return float(0.5 * lam * excess * excess - (d * d).sum(axis=1).min())


def build_max_dispersion_direct(inst):
    """Single-space formulation: the anchor maximum is a supremum of affine
    forms minus |x|^2, so the prox runs the fixed-point weight iteration.

    max_i -|x - u_i|^2 = sup_{p in simplex} sum_i p_i (<2 u_i, x> - |u_i|^2) - |x|^2.
    """
    if not (inst.lam > 2.0):
        raise DomainError("penalty weight must exceed 2 for a coercive objective")
    a_rows = 2.0 * inst.anchors
    offsets = -(inst.anchors * inst.anchors).sum(axis=1)
    g = SupAffineFamily(
        a_rows, offsets, sigma=1.0,
        project_ambiguity=project_simplex, support_max=simplex_support_max,
    )
    h = BallPenalty(BallSpec(np.zeros(inst.dim), inst.radius), inst.lam)
    return CompositeProblem(
        h, g, IdentityMap(), _dispersion_subspace(inst), dim=inst.dim
    )


def build_max_dispersion_product(inst):
    """Product formulation: one copy of x per anchor, coupled through the
    replicated-diagonal subspace; the anchor maximum becomes a supremum of
    concave quadratics with a closed-form prox, and only the first block
    carries the ball penalty."""
    if not (inst.lam > 2.0):
        raise DomainError("penalty weight must exceed 2 for a coercive objective")
    n_blocks = inst.n_anchors
    h = FirstBlockBallPenalty(
        BallSpec(np.zeros(inst.dim), inst.radius), inst.lam, n_blocks
    )
    g = SupQuadraticFamily(inst.anchors)
    if inst.constraint_matrix is None:
        subspace = DiagonalProjector(n_blocks)
    else:
        subspace = ReplicatedKernelProjector(
            KernelProjector(inst.constraint_matrix), n_blocks
        )
    return CompositeProblem(
        h, g, IdentityMap(), subspace, dim=inst.dim * n_blocks
    )


@dataclass(frozen=True)
class DroDiscreteInstance:
    """Distributionally robust objective over finitely many scenarios.

    kind='affine': scenario costs <a_i, x> + b_i - sigma |x|^2 with weights
    in an ambiguity set C; the projector onto C and its support function
    v -> max_{c in C} <c, v> are required (project_simplex and
    simplex_support_max for C = the full simplex).
    kind='quadratic': scenario costs -|x_i - c_i|^2 on a product space with
    weights on the full simplex.  Both arrive ball-penalized with weight lam.
    """

    kind: str
    lam: float
    radius: float
    a_rows: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    sigma: float = 1.0
    centers: Optional[np.ndarray] = None
    constraint_matrix: Optional[np.ndarray] = None
    ambiguity_projector: object = None
    support_max: object = None

    def __post_init__(self):
        if self.kind not in ("affine", "quadratic"):
            raise ConfigError("kind must be 'affine' or 'quadratic'")
        if not (self.radius > 0):
            raise DomainError("radius must be positive")


def build_dro_discrete(inst):
    """Wire a DRO instance into a composite problem.

    The affine kind keeps the ambient space and pays for its generality with
    the iterative weight prox; the quadratic kind moves to the product space
    where the prox is closed-form and couples the copies through the
    replicated-diagonal subspace.
    """
    if inst.kind == "affine":
        if inst.a_rows is None or inst.offsets is None:
            raise ConfigError("affine kind needs a_rows and offsets")
        if inst.ambiguity_projector is None:
            raise ConfigError("affine kind needs an ambiguity projector onto C")
        if inst.support_max is None:
            raise ConfigError("affine kind needs the support function of C")
        if not (inst.lam > 2.0 * inst.sigma):
            raise DomainError(
                "penalty weight must exceed 2*sigma for a coercive objective"
            )
        g = SupAffineFamily(
            inst.a_rows, inst.offsets, sigma=inst.sigma,
            project_ambiguity=inst.ambiguity_projector,
            support_max=inst.support_max,
        )
        dim = g.a_rows.shape[1]
        h = BallPenalty(BallSpec(np.zeros(dim), inst.radius), inst.lam)
        if inst.constraint_matrix is None:
            subspace = IdentityProjector()
        else:
            subspace = KernelProjector(inst.constraint_matrix)
        return CompositeProblem(h, g, IdentityMap(), subspace, dim=dim)

    if inst.centers is None:
        raise ConfigError("quadratic kind needs scenario centers")
    if not (inst.lam > 2.0):
        raise DomainError("penalty weight must exceed 2 for a coercive objective")
    centers = np.atleast_2d(np.asarray(inst.centers, dtype=float))
    n_blocks, dim = centers.shape
    h = ProductBallPenalty(BallSpec(np.zeros(dim), inst.radius), inst.lam, n_blocks)
    g = SupQuadraticFamily(centers)
    if inst.constraint_matrix is None:
        subspace = DiagonalProjector(n_blocks)
    else:
        subspace = ReplicatedKernelProjector(
            KernelProjector(inst.constraint_matrix), n_blocks
        )
    return CompositeProblem(h, g, IdentityMap(), subspace, dim=dim * n_blocks)


@dataclass(frozen=True)
class LassoInstance:
    """Least squares |B x - b|^2 plus a separable regularizer on a subspace.

    With a Tukey regularizer an optional inner matrix/offset pair replaces
    the identity composition, matching robust-regression losses of the form
    sum_i tukey(<t_i, x> - s_i).
    """

    design: np.ndarray
    target: np.ndarray
    regularizer: ScalarRegularizer
    constraint_matrix: Optional[np.ndarray] = None
    inner_matrix: Optional[np.ndarray] = None
    f_star: Optional[float] = None


def build_constrained_lasso(inst):
    h = QuadraticLoss(inst.design, inst.target)
    n = np.atleast_2d(np.asarray(inst.design, dtype=float)).shape[1]
    g = inst.regularizer
    if g.kind == "l1" and g.lipschitz is None:
        # record L_g = lam sqrt(n) so the decay-bound diagnostics apply
        g = ScalarRegularizer("l1", lam=g.lam, lipschitz=g.lam * np.sqrt(n))
    a_map = IdentityMap() if inst.inner_matrix is None else MatrixMap(inst.inner_matrix)
    if inst.constraint_matrix is None:
        subspace = IdentityProjector()
    else:
        subspace = KernelProjector(inst.constraint_matrix)
    return CompositeProblem(h, g, a_map, subspace, f_star=inst.f_star, dim=n)


# ---------------------------------------------------------------------------
# seeded data and starts
# ---------------------------------------------------------------------------

def subspace_start(projector, dim, scale=0.5):
    """A deterministic nonzero point of the subspace, when one exists.

    Projects scaled standard basis vectors until the image is nonzero; a
    zero start would sit at a stationary point of some model objectives.
    """
    for i in range(int(dim)):
        e = np.zeros(int(dim))
        e[i] = scale
        p = projector.apply(e)
        if np.linalg.norm(p) > 1e-8 * scale:
            return p
    return np.zeros(int(dim))


def random_anchors(dim, count, seed):
    """Anchors drawn coordinatewise uniformly from [0, 2]."""
    rng = np.random.default_rng(seed)
    return 2.0 * rng.random((count, dim))


def random_affine_scenarios(dim, count, seed):
    """Scenario slopes/offsets drawn uniformly from [-1, 1]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (count, dim)), rng.uniform(-1.0, 1.0, count)


def random_lasso_data(dim, samples, seed):
    """Gaussian design scaled by 1/sqrt(samples) and a Gaussian target."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((samples, dim)) / np.sqrt(samples)
    target = rng.standard_normal(samples)
    return design, target
