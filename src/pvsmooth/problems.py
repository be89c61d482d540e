"""Model problem builders: max-dispersion, discrete distributionally robust
objectives, and subspace-constrained regularized least squares.

Each builder assembles a :class:`~pvsmooth.core.CompositeProblem` whose
pieces come from the prox toolkit and the projection module, so the generic
smoothing solver applies unchanged.  The ball-constrained problems arrive in
penalized form: the hard constraint x in B is replaced by (lam/2) d(x, B)^2,
and the builders reject weights at or below the coercivity threshold
lam <= 2.
"""

from __future__ import annotations

import math
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
    _require,
    _require_array,
    matrix_norm_bound,
)
from .errors import DomainError
from .penalty import BallPenalty
from .projections import (
    BallSpec,
    KernelProjector,
    ReplicatedKernelProjector,
    project_ball,
)
from .prox import L1Penalty, SupAffineFamily, SupQuadraticFamily

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

_PANEL_BYTES = 1 << 20  # one row panel of the design stays in a core's L2


class QuadraticLoss(SmoothFunction):
    """h(x) = |B x - b|^2 with grad 2 B^T (B x - b) and L = 2 |B|^2.

    The design is kept C-ordered (converted once, copied only if given in
    another order) and walked once per evaluation, in row panels B_i of at
    most 1 MiB: each panel adds |B_i x - b_i|^2 to the value and
    B_i^T (B_i x - b_i) to the gradient while it is still in cache, so the
    design streams from memory once rather than twice.  A design that fits
    one panel makes exactly the two matvecs of the formula, bit for bit; a
    larger one sums its panels in another order, which moves the value and
    gradient at roundoff only.
    """

    def __init__(self, design, target):
        self.design = np.ascontiguousarray(_require_array(design, "design", 2))
        self.target = _require_array(target, "target", 1)
        if self.design.shape[0] != self.target.size:
            raise DomainError("design and target disagree on the sample count")
        self.lip_grad = 2.0 * matrix_norm_bound(self.design) ** 2
        m, n = self.design.shape
        rows = max(1, _PANEL_BYTES // max(1, n * self.design.itemsize))
        # a design with no rows keeps one empty panel, so x is still checked
        self._panels = [(self.design[i:i + rows], self.target[i:i + rows])
                        for i in range(0, max(m, 1), rows)]

    def value_and_grad(self, x):
        x = np.asarray(x, dtype=float)
        value, grad = 0.0, np.zeros(self.design.shape[1])
        for panel, b in self._panels:
            r = panel @ x - b
            value += r @ r
            grad += panel.T @ r
        return float(value), 2.0 * grad


class FirstBlockBallPenalty(BallPenalty):
    """(weight/2) d(x_1, B)^2 on a product space; only block 1 is penalized.

    Used with the replicated-diagonal subspace, where all blocks agree and
    penalizing one of them is enough.
    """

    def __init__(self, ball, weight, n_blocks):
        super().__init__(ball, weight)
        self.n_blocks = _require(n_blocks, "n_blocks", 1, math.inf, integer=True, ends="[)")

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
        self.n_blocks = _require(n_blocks, "n_blocks", 1, math.inf, integer=True, ends="[)")

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
        object.__setattr__(self, "anchors", _require_array(self.anchors, "anchors", 2))


def _kernel_subspace(constraint_matrix):
    """P_V for V = ker R, the whole space when R is None."""
    if constraint_matrix is None:
        return IdentityProjector()
    return KernelProjector(constraint_matrix)


def dispersion_objective(anchors, radius, lam, x):
    """Penalized dispersion objective
    (lam/2) max(|x| - r, 0)^2 + max_i -|x - u_i|^2."""
    x = _require_array(x, "x", 1)
    anchors = _require_array(anchors, "anchors", 2)
    excess = max(float(np.linalg.norm(x)) - radius, 0.0)
    d = anchors - x
    return float(0.5 * lam * excess * excess - (d * d).sum(axis=1).min())


def build_dro_affine(a_rows, offsets, lam, radius, constraint_matrix=None):
    """Scenario costs <a_i, x> + b_i - |x|^2 with weights on the
    probability simplex, ball-penalized with weight lam (which must exceed
    2).

    The :class:`~pvsmooth.prox.SupAffineFamily` starts each prox's active
    set from the support it last certified.
    """
    g = SupAffineFamily(a_rows, offsets, 1.0)
    _require(lam, "lam", 2, math.inf)  # lam > 2: coercive
    dim = g.a_rows.shape[1]
    h = BallPenalty(BallSpec(np.zeros(dim), radius), lam)
    subspace = _kernel_subspace(constraint_matrix)
    return CompositeProblem(h, g, IdentityMap(), subspace, dim=dim)


def _sup_quadratic_problem(centers, lam, radius, constraint_matrix, penalty):
    """max_i -|x_i - c_i|^2 on the product space, its copies coupled through
    the replicated-diagonal subspace, plus the ball penalty class
    ``penalty(ball, lam, n_blocks)``; the prox is closed-form."""
    _require(lam, "lam", 2, math.inf)  # lam > 2: coercive
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
    forms minus |x|^2, so the prox (:meth:`~pvsmooth.prox.SupAffineFamily.prox_detailed`)
    solves the dual over the simplex exactly by its certified active set.

    max_i -|x - u_i|^2 = sup_{p in simplex} sum_i p_i (<2 u_i, x> - |u_i|^2) - |x|^2.
    """
    anchors = inst.anchors
    return build_dro_affine(2.0 * anchors, -(anchors * anchors).sum(axis=1), inst.lam,
                            inst.radius, constraint_matrix=inst.constraint_matrix)


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
    n = h.design.shape[1]
    a_map = IdentityMap() if inst.inner_matrix is None else MatrixMap(inst.inner_matrix)
    g = inst.regularizer
    if isinstance(g, L1Penalty) and g.lipschitz is None:
        # record L_g = lam sqrt(m), m = dim of the space g acts on (the rows
        # of the inner matrix, else n), so the decay-bound diagnostics apply
        m = n if inst.inner_matrix is None else a_map.mat.shape[0]
        g = L1Penalty(g.lam, lipschitz=g.lam * np.sqrt(m))
    subspace = _kernel_subspace(inst.constraint_matrix)
    return CompositeProblem(h, g, a_map, subspace, f_star=inst.f_star, dim=n)


# ---------------------------------------------------------------------------
# seeded data and starts
# ---------------------------------------------------------------------------

def subspace_start(projector, dim):
    """A deterministic nonzero point of the subspace of R^dim (dim an
    integer >= 1), when one exists.

    Projects halved standard basis vectors until the image is nonzero; a
    zero start would sit at a stationary point of some model objectives.
    """
    _require(dim, "dim", 1, math.inf, integer=True, ends="[)")
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 0.5
        p = projector.apply(e)
        if np.linalg.norm(p) > 1e-8 * 0.5:
            return p
    return np.zeros(dim)


def _seeded_rng(dim, count, seed):
    """numpy's default generator for ``seed``, once the shape and seed pass:
    :class:`DomainError` unless dim >= 1, count >= 1 and seed >= 0 are
    integers and a (count, dim) array fits numpy's index range."""
    _require(dim, "dim", 1, math.inf, integer=True, ends="[)")
    _require(count, "count", 1, math.inf, integer=True, ends="[)")
    _require(seed, "seed", 0, math.inf, integer=True, ends="[)")
    if dim * count > np.iinfo(np.intp).max:
        raise DomainError("dim * count must lie in numpy's index range, got dim=%r, count=%r"
                          % (dim, count))
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
