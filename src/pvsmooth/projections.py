"""Projections onto the sets used by the solver and the model problems:
Euclidean balls, the probability simplex, kernels of constraint matrices,
the replicated-block diagonal, products of blocks, and intersections via
Dykstra's alternating scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SubspaceProjector, _require, _require_array
from .errors import ConvergenceError, DomainError

__all__ = [
    "BallSpec",
    "project_ball",
    "project_simplex",
    "KernelProjector",
    "project_diagonal",
    "dykstra_project",
    "ProductKernelProjector",
    "ReplicatedKernelProjector",
]

_SVD_CUTOFF = 1e-12


@dataclass(frozen=True)
class BallSpec:
    """Closed Euclidean ball |x - center| <= radius; the center must be
    finite, the radius may be inf (the whole space)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _require_array(self.center, "center", 1))
        _require(self.radius, "radius", 0, math.inf, ends="(]")


def project_ball(spec, x):
    """Project the vector x onto the ball; interior points are returned
    unchanged.  The distance is sqrt(d @ d), what ``np.linalg.norm``
    computes for a 1-d array."""
    x = np.asarray(x, dtype=float)
    d = x - spec.center
    nd = math.sqrt(d @ d)
    if nd <= spec.radius:
        return x.copy()
    return spec.center + d * (spec.radius / nd)


def project_simplex(x):
    """Project onto the probability simplex {p >= 0, sum p = 1}.

    Sort-and-threshold: with u the coordinates sorted in decreasing order,
    find the largest j with u_j - (cumsum(u)_j - 1)/j > 0 and shift by that
    threshold.  The projection is invariant under adding a constant to every
    coordinate, so x is first shifted to max(x) = 0; then j = 1 always
    qualifies, even for entries too large for ``u_1 - 1`` to differ from u_1.
    A maximum that is not finite (a NaN or +inf entry, or every entry -inf)
    raises :class:`DomainError`; a -inf entry otherwise gets weight 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("expected a nonempty 1-d array")
    top = float(x.max())
    if not math.isfinite(top):
        raise DomainError("simplex projection needs a finite maximum, got %r" % top)
    return _project_simplex(x)


def _project_simplex(x):
    """:func:`project_simplex` without the argument checks: ``x`` must be a
    nonempty 1-d float array with a finite maximum."""
    x = x - x.max()
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    j = np.arange(1, x.size + 1)
    rho = np.nonzero(u * j > css)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(x - tau, 0.0)


class KernelProjector(SubspaceProjector):
    """Orthogonal projector onto ker(R), applied as P x = x - Q^T (Q x).

    The rows of ``basis`` (Q) are an orthonormal basis of the row space of
    R: the right singular vectors of R whose singular values exceed
    1e-12 * sigma_max, the cutoff ``np.linalg.pinv`` uses, so rank-deficient
    R is handled.  For R of rank r in R^n, Q is r x n, and both its storage
    and each apply cost O(n r).  A NaN or infinite entry of R raises
    :class:`DomainError`.
    """

    def __init__(self, R):
        R = _require_array(R, "R", 2)
        if not np.any(R):
            raise DomainError("constraint matrix R must be nonzero")
        _, s, vt = np.linalg.svd(R, full_matrices=False)
        self.basis = vt[s > _SVD_CUTOFF * s[0]]

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return x - self.basis.T @ (self.basis @ x)


def project_diagonal(x, n_blocks):
    """Project a stacked vector onto the diagonal {(v, v, ..., v)}.

    ``x`` is flat of length n_blocks * d; each block is replaced by the
    blockwise mean.
    """
    x = np.asarray(x, dtype=float)
    _require(n_blocks, "n_blocks", 1, math.inf, integer=True, ends="[)")
    if x.size % n_blocks:
        raise DomainError("length %d not divisible by %d blocks" % (x.size, n_blocks))
    blocks = x.reshape(n_blocks, -1)
    return np.tile(blocks.mean(axis=0), n_blocks)


class ProductKernelProjector(SubspaceProjector):
    """Projector onto V^N (same kernel projector applied blockwise) for flat
    vectors of length N * d."""

    def __init__(self, kernel_projector, n_blocks):
        self.kernel = kernel_projector
        self.n_blocks = _require(n_blocks, "n_blocks", 1, math.inf, integer=True, ends="[)")

    def apply(self, x):
        blocks = np.asarray(x, dtype=float).reshape(self.n_blocks, -1)
        return self.kernel.apply(blocks.T).T.ravel()


class ReplicatedKernelProjector(SubspaceProjector):
    """Closed-form projector onto V^N intersected with the diagonal.

    The intersection is {(v, ..., v) : v in V}, so the projection replicates
    P_V applied to the blockwise mean.  Dykstra applied to (V^N, diagonal)
    converges to the same point and is kept around as a cross-check only.
    The mean is the blockwise sum divided by N, the floats ``mean`` gives.
    """

    def __init__(self, kernel_projector, n_blocks):
        self.kernel = kernel_projector
        self.n_blocks = _require(n_blocks, "n_blocks", 1, math.inf, integer=True, ends="[)")

    def apply(self, x):
        blocks = np.asarray(x, dtype=float).reshape(self.n_blocks, -1)
        out = np.empty_like(blocks)
        out[:] = self.kernel.apply(np.add.reduce(blocks, axis=0) / self.n_blocks)
        return out.ravel()


def dykstra_project(proj_a, proj_b, x, tol=1e-12, max_iter=10000):
    """Project onto the intersection of two closed convex sets.

    Dykstra's scheme with correction terms; plain alternating projections
    would converge to a point of the intersection but not to the projection
    of ``x``.  Stops when, within one sweep, the two half-projections agree
    to within ``tol`` -- equivalently, when the increments of both correction
    terms are below ``tol``.  (Testing only successive iterates can stall at
    a vertex of a polyhedral set while the corrections are still moving.)
    The gap also bounds the distance of the result to each set.  Raises
    :class:`ConvergenceError` carrying the last gap otherwise, and
    :class:`DomainError` unless ``tol >= 0`` (inf stops after one sweep)
    and ``max_iter`` is a positive integer.
    """
    _require(tol, "tol", 0, math.inf, ends="[]")
    _require(max_iter, "max_iter", 1, math.inf, integer=True, ends="[)")
    x = np.asarray(x, dtype=float)
    z = x.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for it in range(max_iter):
        y = proj_a(z + p)
        gap_a = float(np.linalg.norm(z - y))
        p = z + p - y
        z_next = proj_b(y + q)
        q = y + q - z_next
        delta = max(gap_a, float(np.linalg.norm(y - z_next)))
        z = z_next
        if delta <= tol:
            return z
    raise ConvergenceError(
        "Dykstra did not reach tol=%g in %d iterations" % (tol, max_iter),
        residual=delta,
        iterations=int(max_iter),
        best=z,
    )
