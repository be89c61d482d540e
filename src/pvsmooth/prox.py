"""Proximity operators for the nonsmooth families used in the model problems.

Three groups live here:

* pointwise suprema of concave quadratics  f(x) = max_i -|x_i - c_i|^2 on a
  product space, whose prox reduces to a weight vector on the simplex with a
  closed-form solution;
* suprema of affine forms minus a quadratic,
  f(x) = sup_{c in C} <c, A x + b> - sigma |x|^2, whose prox maximizes a
  concave dual over the weights c: exactly by an active set when C is the
  probability simplex, else by restarted FISTA;
* separable scalar penalties (l1, MCP, SCAD, Tukey biweight), one class
  each.

All of these are rho-weakly convex; their prox is single-valued whenever the
smoothing parameter satisfies mu < 1/rho.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .core import ProxFunction, spectral_norm
# matrix_norm_bound is unused here but stays a module attribute:
# benchmarks/tracing.py wraps it in every module that imported it.
from .core import matrix_norm_bound  # noqa: F401
from .errors import ContractError, ConvergenceError, DomainError, NumericalError
from .projections import _project_simplex, project_simplex

__all__ = [
    "envelope_by_weights",
    "solve_simplex_weights",
    "simplex_weights_kkt",
    "SupQuadraticFamily",
    "SupAffineFamily",
    "prox_sup_affine",
    "simplex_support_max",
    "L1Penalty",
    "MCPPenalty",
    "SCADPenalty",
    "TukeyPenalty",
    "ScalarRegularizer",
]

_DENOM_GUARD = 1e-12
_TINY = np.finfo(float).tiny


# ---------------------------------------------------------------------------
# supremum of concave quadratics: weights on the simplex
# ---------------------------------------------------------------------------

def envelope_by_weights(alpha, mu, p):
    """Auxiliary objective  sum_i p_i alpha_i / (2 mu p_i - 1).

    For the sup-of-concave-quadratics family with squared block distances
    ``alpha``, the Moreau envelope equals the maximum of this expression over
    the simplex.  ``p`` may be a single weight vector or a batch of rows.
    """
    alpha = np.asarray(alpha, dtype=float)
    p = np.asarray(p, dtype=float)
    val = (p * alpha / (2.0 * mu * p - 1.0)).sum(axis=-1)
    return float(val) if val.ndim == 0 else val


def solve_simplex_weights(alpha, mu):
    """Maximizing simplex weights for the sup-quadratic prox, in closed form.

    Parameters
    ----------
    alpha : array of finite positive reals
        Squared distances |x_i - c_i|^2 per block.
    mu : float in (0, 1/2)

    Sort ``alpha`` in decreasing order (ties keep their original order) and
    let T_i be the sum of sqrt(alpha) over the indices *not* among the i
    largest.  The split index is

        k = min { i in {0..N-1} : (N - i - 2 mu) sqrt(alpha_(i+1)) < T_i },

    which always exists because the condition holds at i = N-1.  Weights on
    the k largest blocks vanish; the rest get

        p_i = (1 - (N - k - 2 mu) sqrt(alpha_i) / T_k) / (2 mu).

    The arguments are validated here, and a bad one raises
    :class:`DomainError`; :class:`SupQuadraticFamily` checks its own input
    and calls the unchecked solver directly.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0:
        raise DomainError("alpha must be a nonempty 1-d array")
    if not np.all((alpha > 0) & (alpha < np.inf)):
        raise DomainError("alpha entries must be finite and strictly positive")
    if not (0.0 < mu < 0.5):
        raise DomainError("mu must lie in (0, 1/2)")
    return _simplex_weights(alpha, mu)


def _simplex_weights(alpha, mu):
    """:func:`solve_simplex_weights` without the argument checks."""
    n = alpha.size
    order = np.argsort(-alpha, kind="stable")
    s = np.sqrt(alpha[order])
    # tails[i] = sum of s[i:], i.e. sqrt(alpha) over blocks outside the i largest
    tails = np.cumsum(s[::-1])[::-1]
    cond = (n - np.arange(n) - 2.0 * mu) * s < tails
    cond[-1] = True  # (1 - 2 mu) s < s, which rounding loses for mu below ~6e-17
    k = int(np.argmax(cond))
    p = np.zeros(n)
    if k == n - 1:
        p[order[k]] = 1.0  # the formula gives 1 only up to rounding
    else:
        p[order[k:]] = (1.0 - (n - k - 2.0 * mu) * s[k:] / tails[k]) / (2.0 * mu)
    return p


def simplex_weights_kkt(alpha, mu, p):
    """KKT diagnostics for a candidate weight vector.

    Returns a dict with the largest stationarity residual over the support
    (|alpha_i (2 mu p_i - 1)^-2 + tau|), the smallest complementarity
    multiplier eta_i = tau + alpha_i over the zero weights, and the deviation
    of sum(p) from 1.  The multiplier is tau = -T^2 / (m - 2 mu)^2 with T the
    sqrt-alpha mass and m the count of the support.
    """
    alpha = np.asarray(alpha, dtype=float)
    p = np.asarray(p, dtype=float)
    live = p > 0
    m = int(np.count_nonzero(live))
    tail = float(np.sqrt(alpha[live]).sum())
    tau = -(tail * tail) / (m - 2.0 * mu) ** 2
    stat = np.abs(alpha[live] / (2.0 * mu * p[live] - 1.0) ** 2 + tau)
    eta = tau + alpha[~live]
    return {
        "stationarity": float(stat.max(initial=0.0)),
        "min_eta": float(eta.min(initial=0.0)),
        "sum_dev": float(abs(p.sum() - 1.0)),
        "tau": tau,
    }


class SupQuadraticFamily(ProxFunction):
    """f(x) = max_i -|x_i - c_i|^2 on the product of N blocks.

    ``centers`` has shape (N, d); arguments are flat vectors of length N*d.
    The function is 2-weakly convex, so the prox is single valued for
    mu < 1/2.  With alpha_i = |x_i - c_i|^2 and maximizing weights p, the
    prox has blocks (x_i - 2 mu p_i c_i) / (1 - 2 mu p_i).

    ``prox_and_value`` forms the block differences once and reads f at the
    prox point from the prox blocks it has just built, the same floats
    ``value`` computes; ``prox`` is its first half.  A non-finite squared
    distance raises :class:`DomainError`.
    """

    rho = 2.0
    lipschitz = None

    def __init__(self, centers):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.centers = centers
        self.n_blocks, self.block_dim = centers.shape

    def _blocks(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.centers.size:
            raise ContractError(
                "expected a flat vector of length %d, got %d"
                % (self.centers.size, x.size)
            )
        return x.reshape(self.n_blocks, self.block_dim)

    def alphas(self, x):
        d = self._blocks(x) - self.centers
        return (d * d).sum(axis=1)

    def value(self, x):
        return float(-self.alphas(x).min())

    def _weights(self, mu, alpha):
        """Maximizing simplex weights for squared distances ``alpha``, with
        mu already checked.  The max is NaN or inf exactly when some entry
        is, so one reduction rejects a non-finite input."""
        if not math.isfinite(alpha.max()):
            raise DomainError("squared block distances |x_i - c_i|^2 must be finite")
        zero = np.nonzero(alpha == 0.0)[0]
        if zero.size:
            p = np.zeros(self.n_blocks)
            p[zero[0]] = 1.0  # a vanishing distance pins the weight there
            return p
        return _simplex_weights(alpha, mu)

    def weights(self, mu, x):
        """Maximizing simplex weights at x (closed form; no iteration)."""
        self.check_mu(mu)
        return self._weights(mu, self.alphas(x))

    def prox(self, mu, x):
        return self.prox_and_value(mu, x)[0]

    def prox_and_value(self, mu, x):
        self.check_mu(mu)
        blocks = self._blocks(x)
        diff = blocks - self.centers
        p = self._weights(mu, (diff * diff).sum(axis=1))
        denom = 1.0 - 2.0 * mu * p
        if denom.min() < _DENOM_GUARD:
            raise NumericalError(
                "prox denominators collapsed (min %g)" % float(denom.min())
            )
        out = (blocks - (2.0 * mu) * p[:, None] * self.centers) / denom[:, None]
        d = out - self.centers
        return out.ravel(), float(-(d * d).sum(axis=1).min())


# ---------------------------------------------------------------------------
# supremum of affine forms minus a quadratic: accelerated dual iteration
# ---------------------------------------------------------------------------

def simplex_support_max(v):
    """max_{c in simplex} <c, v> = max(v)."""
    return float(v.max())


class SupAffineFamily(ProxFunction):
    """f(x) = sup_{c in C} <c, A x + b> - sigma |x|^2.

    Parameters
    ----------
    a_rows : (N, d) array
        Row i is the slope a_i of scenario i.
    offsets : (N,) array
    sigma : float > 0
        Concavity weight; the family is 2*sigma-weakly convex.
    project_ambiguity : callable
        Projector onto the compact convex set C (subset of R^N).
        :func:`~pvsmooth.projections.project_simplex` itself turns on the
        exact active set of :func:`prox_sup_affine`.
    support_max : callable
        v -> max_{c in C} <c, v>, the support function of C, which gives the
        value (:func:`simplex_support_max` for the simplex).
    tol, max_iter : float, int
        Stop tolerance (finite, positive) and iteration budget (a positive
        integer) of :func:`prox_sup_affine`.

    The family keeps its inputs and ``gram_norm = |A|^2`` from
    :func:`~pvsmooth.core.spectral_norm`, which fixes the dual step size:
    O(N d) memory, and nothing of size N^2.  Non-finite rows or offsets, a
    non-finite |A|^2 and out-of-range values raise :class:`DomainError`.
    """

    lipschitz = None

    def __init__(self, a_rows, offsets, sigma, project_ambiguity, support_max,
                 tol=1e-10, max_iter=200000):
        a_rows = np.atleast_2d(np.asarray(a_rows, dtype=float))
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        if a_rows.shape[0] != offsets.size:
            raise DomainError("a_rows and offsets disagree on the scenario count")
        if not np.isfinite(offsets).all():
            raise DomainError("offsets must be finite")
        if not (sigma > 0):
            raise DomainError("sigma must be positive")
        if not (0.0 < tol < np.inf):
            raise DomainError("tol must be finite and positive")
        if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
            raise DomainError("max_iter must be a positive integer")
        norm = spectral_norm(a_rows)  # rejects NaN and inf
        if not norm * norm < np.inf:
            raise DomainError("|A|^2 must be finite")
        self.a_rows = a_rows
        self.offsets = offsets
        self.sigma = float(sigma)
        self.project_ambiguity = project_ambiguity
        self.support_max = support_max
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.rho = 2.0 * self.sigma
        self.gram_norm = norm * norm

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = self.support_max(self.a_rows @ x + self.offsets)
        return float(s - self.sigma * (x @ x))

    def prox(self, mu, x):
        y, _, _ = self.prox_detailed(mu, x)
        return y

    def prox_detailed(self, mu, x):
        return prox_sup_affine(self, mu, x)


def prox_sup_affine(family, mu, x):
    """Prox of a :class:`SupAffineFamily` through the dual weights.

    With s = 1 - 2 sigma mu, the prox point for weights c is
    y(c) = (x - mu A^T c) / s, and c maximizes the concave dual
    phi(c) = <c, w> - (mu / 2s) |A^T c|^2 over C, w = A x / s + b, whose
    gradient A y(c) + b is Lipschitz with L = mu |A|^2 / s.  Scaled by
    gamma = 1/L, the dual is <c, w> - (coef / 2) |A^T c|^2 with
    coef = gamma mu / s, and every product with its Hessian coef A A^T is
    taken through the rows of A, never through the N x N matrix: memory is
    O(N d).

    When ``family.project_ambiguity`` is
    :func:`~pvsmooth.projections.project_simplex` itself, a primal active
    set (:func:`_simplex_active_set`) solves this QP exactly and returns the
    first weights the KKT conditions certify.  Otherwise, or when it does
    not certify within min(``family.max_iter``, 2N) steps, restarted FISTA
    (Beck-Teboulle, with O'Donoghue-Candes gradient restart) runs from the
    projected uniform weights with step 1/L until both the increment
    |c_{k+1} - c_k| and the gradient-mapping residual |c_{k+1} - z_k| are at
    most ``family.tol``; each iteration costs O(N d) plus one projection.
    The projected-gradient map is nonexpansive, so the returned c then
    moves by at most tol under it, and on the simplex the dual gap
    max(v) - <c, v>, v = A y + b, is at most 2 sqrt(2) L tol.
    ``family.max_iter`` caps active-set steps and FISTA iterations
    together.  The result depends only on (family, mu, x).

    Returns ``(y, c, iterations)``.  A non-finite ``x``, or a finite one
    whose w or y overflows, raises :class:`DomainError`.  Raises
    :class:`ConvergenceError` when the budget runs out, carrying the last
    (y, c) and FISTA's last stop residual, or, when FISTA got no iteration,
    the fixed-point residual |P(c + v) - c| of its projected uniform start.
    """
    family.check_mu(mu)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("the prox argument x must be finite")
    tol, max_iter = family.tol, family.max_iter
    s = 1.0 - 2.0 * family.sigma * mu
    lip = mu * family.gram_norm / s
    # lip below the smallest normal float: A is numerically zero, and any
    # step works since the weight map is (nearly) constant
    gamma = 1.0 / lip if lip >= _TINY else 1.0

    a_rows, project = family.a_rows, family.project_ambiguity
    n = a_rows.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # A x may overflow
        w = gamma * (a_rows @ x / s + family.offsets)
    scale = float(np.abs(w).max())
    if not scale < np.inf:  # NaN or inf
        raise DomainError("the dual gradient w = A x / s + b must be finite")
    coef = gamma * mu / s
    steps = 0
    if project is project_simplex:
        c, steps = _simplex_active_set(a_rows, coef, w, 1e-12 * max(1.0, scale),
                                       tol, min(max_iter, 2 * n))
        if c is not None:
            return _prox_point(x, mu, a_rows, c, s), c, steps
    c = project(np.full(n, 1.0 / n))
    z, t = c, 1.0
    delta = np.inf
    for it in range(steps + 1, max_iter + 1):
        c_next = project(z + w - coef * (a_rows @ (a_rows.T @ z)))
        diff = c_next - c
        delta = float(max(np.linalg.norm(diff), np.linalg.norm(c_next - z)))
        if delta <= tol:
            return _prox_point(x, mu, a_rows, c_next, s), c_next, it
        if (z - c_next) @ diff > 0.0:
            z, t = c_next, 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = c_next + ((t - 1.0) / t_next) * diff
            t = t_next
        c = c_next
    if steps == max_iter:  # the active set used the whole budget
        r = project(c + w - coef * (a_rows @ (a_rows.T @ c))) - c
        delta = float(np.linalg.norm(r))
    raise ConvergenceError(
        "weight iteration did not reach tol=%g in %d iterations" % (tol, max_iter),
        residual=delta,
        iterations=max_iter,
        best=(_prox_point(x, mu, a_rows, c, s), c),
    )


def _prox_point(x, mu, a_rows, c, s):
    """y(c) = (x - mu A^T c) / s; an overflow raises :class:`DomainError`."""
    with np.errstate(over="ignore"):
        y = (x - mu * (a_rows.T @ c)) / s
    if not np.isfinite(y).all():
        raise DomainError("the prox point y = (x - mu A^T c) / s must be finite")
    return y


def _simplex_active_set(a_rows, coef, w, eps, tol, max_steps):
    """Maximize <c, w> - (coef / 2) |A^T c|^2 over the simplex by a primal
    active set (Wolfe, Math. Prog. 1976; Nocedal-Wright section 16.5).

    A is ``a_rows`` (N x d).  The support S starts at the top scenario of w.
    Each step takes the maximizer u on the affine hull of S, which on one
    scenario j is the vertex c = e_j, taken without a solve, and otherwise
    solves the bordered system [M_SS 1; 1^T 0] [u; t] = [w_S - max w_S; 1],
    M_SS = coef A_S A_S^T with A_S the rows in S.  Then:

    * if u >= 0, c = u.  The scenario with the largest dual gradient
      v = w - coef A (A_S^T u) joins S when it exceeds max v_S by more than
      eps, the KKT tolerance 1e-12 max(1, max |w|) that
      :func:`prox_sup_affine` passes.  With no such violator, c is
      returned if :func:`_simplex_kkt_certified` certifies it, and
      otherwise the active set gives up;
    * else c moves along u - c_S until its first weight reaches 0, and
      only that scenario leaves S; when the system is singular
      (``LinAlgError``, or u - c_S does not ascend), c moves instead along
      a direction d with sum d = 0 and M_SS d = 0, signed to ascend.

    A step costs O(N d) plus the k x k bordered solve, k = |S|.  Returns
    ``(c, steps)`` with c None when no step in ``max_steps`` certified.
    """
    idx = np.argmax(w)[None]
    steps = 0
    for steps in range(1, max_steps + 1):
        k = idx.size
        if k == 1:
            # the vertex: the bordered system's exact answer is u = 1, so
            # v = w - coef A a_j with a_j the row of scenario j
            c = np.zeros(w.size)
            c[idx] = 1.0
            v = w - coef * (a_rows @ a_rows[idx[0]])
        else:
            a_s = a_rows[idx]
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = coef * (a_s @ a_s.T)
            kkt[k, k] = 0.0
            rhs = np.ones(k + 1)
            rhs[:k] = w[idx]
            rhs[:k] -= rhs[:k].max()  # moves only t, since sum u = 1
            try:
                u = np.linalg.solve(kkt, rhs)[:k]
            except np.linalg.LinAlgError:
                u = None
            if u is None or u.min() < 0.0:
                c_s = c[idx]
                # the dual gradient on S, less max w_S
                g = rhs[:k] - kkt[:k, :k] @ c_s
                if u is None or (u - c_s) @ (g - g.mean()) < 0.0:
                    # d = (y, -sum y) spans {sum d = 0}; the least singular
                    # vector y of M_SS [I; -1^T] makes M_SS d vanish
                    mz = kkt[:k, :k - 1] - kkt[:k, k - 1:k]
                    y = np.linalg.svd(mz)[2][-1]
                    direction = np.append(y, -y.sum())
                    if direction @ g < 0.0:
                        direction = -direction
                else:
                    direction = u - c_s
                down = np.flatnonzero(direction < 0.0)
                ratio = c_s[down] / -direction[down]
                r = int(np.argmin(ratio))
                keep = np.arange(k) != down[r]
                c = np.zeros(w.size)
                c[idx[keep]] = np.maximum(c_s + ratio[r] * direction, 0.0)[keep]
                idx = idx[keep]
                continue
            c = np.zeros(w.size)
            c[idx] = u
            v = w - coef * (a_rows @ (a_s.T @ u))
        j = int(np.argmax(v))
        if v[j] - v[idx].max() > eps:
            idx = np.sort(np.append(idx, j))
        elif _simplex_kkt_certified(c, v, idx, eps, tol):
            return c, steps
        else:
            break  # no violator left, yet c is not certified
    return None, steps


def _simplex_kkt_certified(c, v, idx, eps, tol):
    """Whether ``c`` with support ``idx`` and dual gradient
    v = w - coef A A^T c is the maximizer: c >= 0, |sum c - 1| <= 1e-12, v
    spreads at most eps over the support and exceeds its maximum nowhere by
    more than eps, and c passes the stop test of the dual iteration as a
    fixed point, |P(c + v) - c| <= tol.  The last test matters only where
    floats absorb c into a much larger w: it then keeps the weights the
    iteration itself can reach, which rounding cannot tell apart from the
    exact ones.
    """
    on = v[idx]
    top = on.max()
    if not (c.min() >= 0.0 and abs(c.sum() - 1.0) <= 1e-12
            and top - on.min() <= eps and v.max() - top <= eps):
        return False
    r = _project_simplex(c + v) - c
    return bool(math.sqrt(r @ r) <= tol)


# ---------------------------------------------------------------------------
# scalar separable penalties
# ---------------------------------------------------------------------------

class L1Penalty(ProxFunction):
    """lam * sum_i |t_i|: convex (rho = 0); the prox soft-thresholds at mu lam.

    ``lipschitz`` may be supplied when a global Lipschitz constant of the sum
    is known for the dimension at hand (lam * sqrt(n) on R^n).
    """

    def __init__(self, lam, lipschitz=None):
        if not (lam > 0):
            raise DomainError("lam must be positive")
        self.lam = float(lam)
        self.lipschitz = lipschitz

    def value(self, y):
        return float(self.lam * np.abs(np.asarray(y, dtype=float)).sum())

    def prox(self, mu, y):
        self.check_mu(mu)
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.maximum(np.abs(y) - mu * self.lam, 0.0)


class MCPPenalty(ProxFunction):
    """Minimax concave penalty (Zhang 2010) with weight lam and shape theta.

    It is 1/theta-weakly convex.  The prox is the firm threshold: zero
    inside |y| <= mu lam, the identity beyond theta lam, linear in between.
    """

    def __init__(self, lam, theta):
        if not (lam > 0 and theta > 0):
            raise DomainError("MCP requires lam > 0 and theta > 0")
        self.lam = float(lam)
        self.theta = float(theta)
        self.rho = 1.0 / self.theta

    @property
    def mu_max(self):
        return self.theta  # 1 / rho may round above theta

    def value(self, y):
        lam, theta = self.lam, self.theta
        t = np.abs(np.asarray(y, dtype=float))
        inner = lam * t - t * t / (2.0 * theta)
        return float(np.where(t <= theta * lam, inner, 0.5 * theta * lam * lam).sum())

    def prox(self, mu, y):
        self.check_mu(mu)
        lam, theta = self.lam, self.theta
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        mid = np.sign(y) * (ay - mu * lam) / (1.0 - mu / theta)
        out = np.where(ay <= mu * lam, 0.0, np.where(ay <= theta * lam, mid, y))
        return out if out.ndim else float(out)


class SCADPenalty(ProxFunction):
    """Smoothly clipped absolute deviation (Fan-Li 2001) with weight lam and
    shape theta > 2.

    It is 1/(theta - 1)-weakly convex.  The penalty has three analytic
    pieces; each contributes one candidate minimizer of the prox subproblem
    (clamped into its piece), and the best full objective wins.
    """

    def __init__(self, lam, theta):
        if not (lam > 0 and theta > 2.0):
            raise DomainError("SCAD requires lam > 0 and theta > 2")
        self.lam = float(lam)
        self.theta = float(theta)
        self.rho = 1.0 / (self.theta - 1.0)

    @property
    def mu_max(self):
        return self.theta - 1.0  # 1 / rho may round above theta - 1

    def _pieces(self, t):
        lam, theta = self.lam, self.theta
        mid = (2.0 * theta * lam * t - t * t - lam * lam) / (2.0 * (theta - 1.0))
        return np.where(
            t <= lam, lam * t, np.where(t <= theta * lam, mid, 0.5 * lam * lam * (theta + 1.0))
        )

    def value(self, y):
        return float(self._pieces(np.abs(np.asarray(y, dtype=float))).sum())

    def prox(self, mu, y):
        self.check_mu(mu)
        lam, theta = self.lam, self.theta
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        c1 = np.clip(ay - mu * lam, 0.0, lam)
        c2 = np.clip(((theta - 1.0) * ay - mu * theta * lam) / (theta - 1.0 - mu),
                     lam, theta * lam)
        c3 = np.maximum(ay, theta * lam)
        cands = np.stack([c1, c2, c3])
        objs = self._pieces(cands) + (cands - ay) ** 2 / (2.0 * mu)
        best = cands[objs.argmin(axis=0), np.arange(cands.shape[1])] if y.ndim else \
            cands[objs.argmin(axis=0)]
        out = np.sign(y) * best
        return out if out.ndim else float(out)


class TukeyPenalty(ProxFunction):
    """Tukey biweight sum_i (t_i - b_i)^2 / (1 + (t_i - b_i)^2) with shifts b.

    It carries no weight and is treated as 6-weakly convex, so mu lies in
    (0, 1/6); the prox subproblem is then strongly convex and its
    stationarity equation

        (t - y)/mu + 2 (t-b) / (1 + (t-b)^2)^2 = 0

    has a single root, bracketed in [min(y,b)-1, max(y,b)+1] because the
    penalty slope never exceeds 1 in absolute value while the quadratic term
    exceeds 6 at the bracket ends.  Solved by Newton steps safeguarded with
    bisection.  Convergence is measured on the mu-scaled form
    t - y + 2 mu (t-b)/(1+(t-b)^2)^2, which stays O(1); the raw equation
    scales like 1/mu and cannot be driven to a fixed tolerance in double
    precision when mu is tiny; it stops at 1e-12.
    """

    rho = 6.0

    def __init__(self, shifts=0.0):
        self.shifts = np.asarray(shifts, dtype=float)

    def value(self, y):
        s = np.asarray(y, dtype=float) - self.shifts
        q = s * s
        return float((q / (1.0 + q)).sum())

    def prox(self, mu, y):
        self.check_mu(mu)
        y = np.asarray(y, dtype=float)
        b = np.broadcast_to(self.shifts, y.shape).astype(float)

        def psi(t):
            s = t - b
            return (t - y) / mu + 2.0 * s / (1.0 + s * s) ** 2

        lo = np.minimum(y, b) - 1.0
        hi = np.maximum(y, b) + 1.0
        t = y.astype(float).copy()
        for _ in range(200):
            f = psi(t)
            if np.max(mu * np.abs(f)) <= 1e-12:
                break
            lo = np.where(f < 0.0, t, lo)
            hi = np.where(f > 0.0, t, hi)
            s = t - b
            q = s * s
            fp = 1.0 / mu + (2.0 - 6.0 * q) / (1.0 + q) ** 3
            step = t - f / fp
            bad = (step <= lo) | (step >= hi) | ~np.isfinite(step)
            t = np.where(bad, 0.5 * (lo + hi), step)
        else:
            raise ConvergenceError(
                "Tukey prox root-finding stalled",
                residual=float(np.max(mu * np.abs(psi(t)))),
            )
        return t if t.ndim else float(t)


_PENALTIES = {"l1": L1Penalty, "mcp": MCPPenalty, "scad": SCADPenalty, "tukey": TukeyPenalty}


def ScalarRegularizer(kind, **params):
    """The penalty a config names: ``kind`` is 'l1', 'mcp', 'scad' or 'tukey',
    and ``params`` are that class's arguments."""
    if kind not in _PENALTIES:
        raise DomainError("unknown regularizer kind %r" % (kind,))
    return _PENALTIES[kind](**params)
