"""Slow, independent reference computations used to cross-check the fast
paths: grid/refinement prox search, finite-difference gradients, simplex
scanning, an enumeration of supports for the sup-affine prox, a long-run
solver for the convex constrained-lasso case, and random search for the
dispersion problems.

These deliberately avoid the package's closed forms and iterations; where a
projector or threshold is needed it is recomputed here from first
principles (SVD null spaces, plain soft-thresholds) so that agreement is
evidence, not circularity.  They ship in the library (not the test tree)
because the command line exposes them through ``verify``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import _require, _require_array, spectral_norm
from .errors import CapabilityError, DomainError

__all__ = [
    "GridSpec",
    "brute_force_prox",
    "fd_gradient",
    "least_squares_roundoff",
    "simplex_scan_max",
    "reference_constrained_lasso",
    "random_search_dispersion",
    "affine_scan_prox",
    "enumerated_simplex_prox",
]


@dataclass(frozen=True)
class GridSpec:
    """Search box [lower, upper]^d, initial step, and refinement passes.

    Each refinement pass halves the local-mesh spacing, so the default 12
    passes end at step/4096 <= step * 1e-3.  The ends are finite with
    lower < upper, the step is positive and fits the box, and
    ``refine_passes`` is an integer >= 0.
    """

    lower: float
    upper: float
    step: float
    refine_passes: int = 12

    def __post_init__(self):
        _require(self.lower, "lower", -math.inf, math.inf)
        _require(self.upper, "upper", -math.inf, math.inf)
        _require(self.step, "step", 0, math.inf)
        if not (self.upper > self.lower):
            raise DomainError("upper must exceed lower")
        if not (self.step <= self.upper - self.lower):
            raise DomainError("step must fit the box")
        _require(self.refine_passes, "refine_passes", 0, math.inf, integer=True, ends="[)")


def _evaluate(value_fn, batch_value, points):
    if batch_value is not None:
        return np.asarray(batch_value(points), dtype=float)
    return np.array([value_fn(p) for p in points], dtype=float)


def brute_force_prox(value_fn, mu, x, grid, batch_value=None):
    """Grid-plus-refinement argmin of g(y) + |y - x|^2 / (2 mu).

    Dimensions above 3 are refused.  ``batch_value`` may evaluate g on an
    (M, d) stack of points at once; otherwise ``value_fn`` is called
    pointwise.  The coarse grid localizes the minimizer, then each
    refinement pass re-grids a small box around the incumbent at half the
    spacing (a full local mesh, so kinks and ridges of max-type objectives
    cannot stall it the way single-coordinate moves can), ending at a
    resolution of ``grid.step / 2**grid.refine_passes``.
    """
    x = _require_array(x, "x", 1)
    d = x.size
    if d > 3:
        raise CapabilityError("brute-force prox supports at most 3 dimensions")

    def total(points):
        diff = points - x
        return _evaluate(value_fn, batch_value, points) + (
            (diff * diff).sum(axis=1) / (2.0 * mu)
        )

    axis = np.arange(grid.lower, grid.upper + 0.5 * grid.step, grid.step)
    y = None
    y_val = np.inf
    # evaluate the coarse grid in slabs along the first axis so large
    # 3-d grids stay within a few MB of working memory
    slab = max(1, int(2e6 // max(1, axis.size ** (d - 1))))
    tail = np.stack(
        np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1
    ).reshape(-1, d - 1) if d > 1 else np.zeros((1, 0))
    for start in range(0, axis.size, slab):
        head = axis[start:start + slab]
        mesh = np.concatenate(
            [
                np.repeat(head, tail.shape[0])[:, None],
                np.tile(tail, (head.size, 1)),
            ],
            axis=1,
        )
        vals = total(mesh)
        best = int(np.argmin(vals))
        if vals[best] < y_val:
            y = mesh[best].copy()
            y_val = float(vals[best])

    local = np.arange(-3, 4, dtype=float)  # +-1.5 steps at half-spacing
    step = grid.step
    for _ in range(grid.refine_passes):
        step /= 2.0
        offs = np.stack(
            np.meshgrid(*([local * step] * d), indexing="ij"), axis=-1
        ).reshape(-1, d)
        cands = np.clip(y[None, :] + offs, grid.lower, grid.upper)
        cvals = total(cands)
        q = int(np.argmin(cvals))
        if cvals[q] < y_val:
            y = cands[q].copy()
            y_val = float(cvals[q])
    return y


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function at a point
    ``x`` of real numbers with step ``h > 0``; a bad ``x`` or ``h`` raises
    :class:`DomainError`."""
    x = _require_array(x, "x", 1)
    _require(h, "h", 0, math.inf)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def least_squares_roundoff(design, target, x):
    """How far two float evaluations of h(x) = |B x - b|^2 and its gradient
    2 B^T (B x - b) may lie apart when each sums its products in its own
    order (row panels, BLAS blocking, fused multiply-adds).

    Returns ``(value_bound, grad_bound)``, the second componentwise: twice
    Higham's forward bounds gamma_k s.s and 2 gamma_k |B|^T s, with
    s = |B| |x| + |b| and gamma_k = k u / (1 - k u), u the unit roundoff.
    k = m + 2 n + 2 covers the n products and the subtraction of each
    residual entry, the m-term sums of the value and of the gradient
    (however they are split), and the squares (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sections 3.1 and 3.5).
    """
    size = np.abs(_require_array(design, "design", 2))
    m, n = size.shape
    ku = (m + 2 * n + 2) * np.finfo(float).eps / 2.0
    gamma = ku / (1.0 - ku)
    s = size @ np.abs(_require_array(x, "x", 1)) + np.abs(_require_array(target, "target", 1))
    return 2.0 * gamma * float(s @ s), 4.0 * gamma * (size.T @ s)


def _barycentric_grid(n, subdivisions):
    """The points of the probability simplex in R^n whose weights are
    multiples of 1/subdivisions, ordered by their first n - 1 weights as
    ``np.meshgrid(..., indexing="ij")`` orders them; the last weight is
    what the others leave."""
    m = int(subdivisions)
    head = np.indices((m + 1,) * (n - 1)).reshape(n - 1, (m + 1) ** (n - 1)).T
    head = head[head.sum(axis=1) <= m]
    return np.column_stack([head, m - head.sum(axis=1)]) / float(m)


def simplex_scan_max(objective, n, resolution):
    """Argmax of a batch-evaluable objective over the probability simplex.

    Scans the barycentric grid with spacing ``resolution`` (1 <= n <= 4), then
    polishes by pattern search along the edge directions e_i - e_j with a
    step shrinking from the grid spacing down to 1e-9.  Returns (p, value).
    """
    _require(n, "n", 1, math.inf, integer=True, ends="[)")
    if n > 4:
        raise CapabilityError("simplex scan supports at most 4 weights")
    if not (0 < resolution <= 1):
        raise DomainError("resolution must lie in (0, 1]")
    grid = _barycentric_grid(n, max(1, round(1.0 / resolution)))
    vals = np.asarray(objective(grid), dtype=float)
    best = int(np.argmax(vals))
    p = grid[best].copy()
    p_val = float(vals[best])

    dirs = []
    for i in range(n):
        for j in range(n):
            if i != j:
                d = np.zeros(n)
                d[i], d[j] = 1.0, -1.0
                dirs.append(d)
    dirs = np.array(dirs) if dirs else np.zeros((0, n))
    step = float(resolution)
    while step > 1e-9 and dirs.size:
        cands = p[None, :] + step * dirs
        feasible = np.all(cands >= 0.0, axis=1)
        if np.any(feasible):
            cands = cands[feasible]
            cvals = np.asarray(objective(cands), dtype=float)
            q = int(np.argmax(cvals))
            if cvals[q] > p_val:
                p = cands[q].copy()
                p_val = float(cvals[q])
                continue
        step /= 2.0
    return p, p_val


def affine_scan_prox(a_rows, offsets, sigma, mu, x, t_step=1e-4):
    """Two-scenario prox reference by scanning weights c = (t, 1-t).

    Evaluates the smoothed value of each weighted scenario objective,
    f_c(y) = <c, A y + b> - sigma |y|^2, at its own prox point
    y_c = (x - mu A^T c) / (1 - 2 sigma mu), and returns the y_c of the
    maximizing t together with (t, value).  The scalar map t -> value is
    concave, so the coarse scan is polished by bisection on shrinking
    brackets down to width 1e-12.  Only N = 2 is supported.
    """
    a_rows = _require_array(a_rows, "a_rows", 2)
    offsets = _require_array(offsets, "offsets", 1)
    if a_rows.shape[0] != 2:
        raise CapabilityError("weight scan needs exactly two scenarios")
    x = _require_array(x, "x", 1)
    s = 1.0 - 2.0 * sigma * mu

    def batch(ts):
        cs = np.stack([ts, 1.0 - ts], axis=1)  # (M, 2)
        ys = (x[None, :] - mu * (cs @ a_rows)) / s  # (M, d)
        lin = (cs * (ys @ a_rows.T + offsets[None, :])).sum(axis=1)
        f_c = lin - sigma * (ys * ys).sum(axis=1)
        return ys, f_c + ((ys - x[None, :]) ** 2).sum(axis=1) / (2.0 * mu)

    ts = np.arange(0.0, 1.0 + 0.5 * t_step, t_step)
    _, envel = batch(ts)
    best = int(np.argmax(envel))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, ts.size - 1)]
    while hi - lo > 1e-12:
        probes = np.linspace(lo, hi, 7)
        _, vals = batch(probes)
        j = int(np.argmax(vals))
        lo = probes[max(j - 1, 0)]
        hi = probes[min(j + 1, probes.size - 1)]
    t = 0.5 * (lo + hi)
    ys, vals = batch(np.array([t]))
    return ys[0], float(t), float(vals[0])


def enumerated_simplex_prox(a_rows, offsets, sigma, mu, x):
    """The sup-affine prox point on the simplex by enumeration, with no
    iteration to converge.

    With s = 1 - 2 sigma mu, L = mu |A|^2 / s (|A|^2 read as
    ``spectral_norm(a_rows)`` squared, the value
    :class:`~pvsmooth.prox.SupAffineFamily` keeps as ``gram_norm``) and
    gamma = 1/L, the weights c maximize the dual <c, w> - (coef / 2)
    |A^T c|^2 over the simplex, w = gamma (A x / s + b) shifted to
    max(w) = 0 and coef = gamma mu / s.  Its maximizers share A^T c, and
    among them a basic solution of the linear program that fixes A^T c has
    a support S of at most d + 1 scenarios whose columns (a_i, 1) are
    independent, so its bordered system [M_SS 1; 1^T 0] [u; t] = [w_S; 1],
    M_SS = coef A_S A_S^T, is nonsingular and gives u = c_S.  Every such S
    gets one solve; the u with the smallest KKT violation (a negative
    weight, or a dual gradient v = w - coef A A_S^T u above its value on S)
    gives y = (x - mu A^T c) / s.  The cost grows as N^(d+1), so this is
    for a few scenarios in a few dimensions.

    Returns ``(y, violation)``; a violation of 0 (up to rounding) certifies
    y.  An L that overflows leaves no step size and raises
    :class:`DomainError`, as the family's prox does.
    """
    a_rows = _require_array(a_rows, "a_rows", 2)
    offsets = _require_array(offsets, "offsets", 1)
    x = _require_array(x, "x", 1)
    n_scen, dim = a_rows.shape
    mu = float(mu)  # as the family's prox takes it
    s = 1.0 - 2.0 * sigma * mu
    norm = spectral_norm(a_rows)
    lip = mu * (norm * norm) / s
    if lip == math.inf:
        raise DomainError("the dual Lipschitz constant L = mu |A|^2 / s must be finite")
    gamma = 1.0 / lip if lip >= np.finfo(float).tiny else 1.0
    w = gamma * (a_rows @ x / s + offsets)
    w = w - w.max()
    coef = gamma * mu / s
    best_u, best_idx, best = None, None, np.inf
    for k in range(1, min(n_scen, dim + 1) + 1):
        for idx in map(list, itertools.combinations(range(n_scen), k)):
            border = np.ones((k + 1, k + 1))
            border[:k, :k] = coef * (a_rows[idx] @ a_rows[idx].T)
            border[k, k] = 0.0
            try:
                u = np.linalg.solve(border, np.append(w[idx], 1.0))[:k]
            except np.linalg.LinAlgError:
                continue
            with np.errstate(all="ignore"):  # a nearly singular system
                v = w - coef * (a_rows @ (a_rows[idx].T @ u))
                violation = max(-u.min(), v.max() - v[idx].max())
            if violation < best:
                best_u, best_idx, best = u, idx, violation
    return (x - mu * (a_rows[best_idx].T @ best_u)) / s, best


def _null_space_basis(matrix, dim):
    if matrix is None:
        return np.eye(dim)
    matrix = _require_array(matrix, "constraint_matrix", 2)
    _, sv, vt = np.linalg.svd(matrix)
    rank = int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
    return vt[rank:].T  # columns span ker(matrix)


def reference_constrained_lasso(design, target, lam_reg, constraint_matrix=None,
                                total_iters=1_000_000):
    """High-accuracy reference for  min_{x in ker R} |Bx - b|^2 + lam |x|_1.

    Forward-backward iteration with the *exact* prox of the nonsmooth sum
    lam |.|_1 + indicator(ker R), evaluated by an inner alternating scheme
    with correction terms (soft-threshold vs. null-space projection).  The
    problem is convex, the smooth part has Lipschitz gradient 2 |B|^2
    (computed here by exact SVD), and the composite step converges; inner
    iterations count toward the ``total_iters`` budget.

    Returns (x, objective_value).
    """
    design = _require_array(design, "design", 2)
    target = _require_array(target, "target", 1)
    n = design.shape[1]
    basis = _null_space_basis(constraint_matrix, n)
    proj = basis @ basis.T  # orthogonal projector onto ker R

    lip = 2.0 * float(np.linalg.norm(design, 2)) ** 2
    gamma = 0.9 / lip
    thresh = gamma * lam_reg

    def prox_sum(v):
        # Dykstra-style alternation between the soft-threshold prox and the
        # subspace projection; exact for this convex pair.
        z = v.copy()
        p = np.zeros_like(v)
        q = np.zeros_like(v)
        used = 0
        for _ in range(2000):
            w = z + p
            y = np.sign(w) * np.maximum(np.abs(w) - thresh, 0.0)
            p = w - y
            z_next = proj @ (y + q)
            q = y + q - z_next
            used += 1
            if np.linalg.norm(z_next - z) <= 1e-15:
                z = z_next
                break
            z = z_next
        return z, used

    x = np.zeros(n)
    spent = 0
    while spent < total_iters:
        grad = 2.0 * (design.T @ (design @ x - target))
        x, inner = prox_sum(x - gamma * grad)
        spent += 1 + inner
    val = float(np.sum((design @ x - target) ** 2) + lam_reg * np.abs(x).sum())
    return x, val


def random_search_dispersion(anchors, radius, lam, constraint_matrix, samples, seed):
    """Random-search reference for the penalized dispersion problem.

    Draws ``samples`` points uniformly from the ball of the constraint
    subspace (radius ``radius``) and returns the best point and value of

        (lam/2) max(|x| - r, 0)^2 + max_i -|x - u_i|^2,

    which reduces to -min_i |x - u_i|^2 on the feasible ball.
    """
    anchors = _require_array(anchors, "anchors", 2)
    dim = anchors.shape[1]
    basis = _null_space_basis(constraint_matrix, dim)
    sub_dim = basis.shape[1]
    if sub_dim == 0:
        x = np.zeros(dim)
        d = anchors - x
        return x, float(-(d * d).sum(axis=1).min())
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(samples), sub_dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radii = radius * rng.random(int(samples)) ** (1.0 / sub_dim)
    pts = (z * radii[:, None]) @ basis.T  # inside the ball, inside ker R
    d2 = ((pts[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    vals = -d2.min(axis=1)
    best = int(np.argmin(vals))
    return pts[best], float(vals[best])
