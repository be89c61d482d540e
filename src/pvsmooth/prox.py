"""Proximity operators for the nonsmooth families used in the model problems.

Three groups live here:

* pointwise suprema of concave quadratics  f(x) = max_i -|x_i - c_i|^2 on a
  product space, whose prox reduces to a weight vector on the simplex with a
  closed-form solution;
* suprema of affine forms minus a quadratic,
  f(x) = sup_{c in C} <c, A x + b> - sigma |x|^2, whose prox is computed by
  restarted FISTA on the concave dual over the weights c, with step 1/L from
  the exact Gram norm |A A^T|;
* separable scalar regularizers (MCP, SCAD, Tukey biweight, l1).

All of these are rho-weakly convex; their prox is single-valued whenever the
smoothing parameter satisfies mu < 1/rho.
"""

from __future__ import annotations

import numpy as np

from .core import ProxFunction, moreau_envelope, spectral_norm
# matrix_norm_bound is unused here but stays a module attribute:
# benchmarks/tracing.py wraps it in every module that imported it.
from .core import matrix_norm_bound  # noqa: F401
from .errors import ContractError, ConvergenceError, DomainError, NumericalError

__all__ = [
    "envelope_by_weights",
    "solve_simplex_weights",
    "simplex_weights_kkt",
    "SupQuadraticFamily",
    "SupAffineFamily",
    "prox_sup_affine",
    "simplex_support_max",
    "ScalarRegularizer",
    "prox_l1",
    "prox_mcp",
    "prox_scad",
    "prox_tukey",
    "l1_value",
    "mcp_value",
    "scad_value",
    "tukey_value",
    "envelope_sup_identity_check",
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
    alpha : array of positive reals
        Squared distances |x_i - c_i|^2 per block.
    mu : float in (0, 1/2)

    Sort ``alpha`` in decreasing order (ties keep their original order) and
    let T_i be the sum of sqrt(alpha) over the indices *not* among the i
    largest.  The split index is

        k = min { i in {0..N-1} : (N - i - 2 mu) sqrt(alpha_(i+1)) < T_i },

    which always exists because the condition holds at i = N-1.  Weights on
    the k largest blocks vanish; the rest get

        p_i = (1 - (N - k - 2 mu) sqrt(alpha_i) / T_k) / (2 mu).
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0:
        raise DomainError("alpha must be a nonempty 1-d array")
    if not np.all(alpha > 0):
        raise DomainError("alpha entries must be strictly positive")
    if not (0.0 < mu < 0.5):
        raise DomainError("mu must lie in (0, 1/2)")
    n = alpha.size
    order = np.argsort(-alpha, kind="stable")
    s = np.sqrt(alpha[order])
    # T[i] = sum of s[i:], i.e. sqrt(alpha) over blocks outside the i largest
    tails = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])
    idx = np.arange(n)
    cond = (n - idx - 2.0 * mu) * s < tails[idx]
    k = int(np.nonzero(cond)[0][0])
    p = np.zeros(n)
    live = order[k:]
    if live.size == 1:
        p[live] = 1.0  # the formula gives 1 only up to rounding
    else:
        p[live] = (1.0 - (n - k - 2.0 * mu) * np.sqrt(alpha[live]) / tails[k]) / (2.0 * mu)
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

    def weights(self, mu, x):
        """Maximizing simplex weights at x (closed form; no iteration)."""
        self.check_mu(mu)
        alpha = self.alphas(x)
        zero = np.nonzero(alpha == 0.0)[0]
        if zero.size:
            p = np.zeros(self.n_blocks)
            p[zero[0]] = 1.0  # a vanishing distance pins the weight there
            return p
        return solve_simplex_weights(alpha, mu)

    def prox(self, mu, x):
        self.check_mu(mu)
        blocks = self._blocks(x)
        p = self.weights(mu, x)
        denom = 1.0 - 2.0 * mu * p
        if np.any(denom < _DENOM_GUARD):
            raise NumericalError(
                "prox denominators collapsed (min %g)" % float(denom.min())
            )
        out = (blocks - (2.0 * mu) * p[:, None] * self.centers) / denom[:, None]
        return out.ravel()


def envelope_sup_identity_check(family, mu, x):
    """Return (lhs, rhs): the Moreau envelope computed through the prox and
    the same quantity computed as the weight-space maximum.

    The two agree because the envelope of a supremum of concave quadratics
    is the supremum of the weighted envelopes; the caller compares them.
    """
    lhs = moreau_envelope(family, mu, x)
    weights = family.weights(mu, x)
    rhs = envelope_by_weights(family.alphas(x), mu, weights)
    return lhs, float(rhs)


# ---------------------------------------------------------------------------
# supremum of affine forms minus a quadratic: accelerated dual iteration
# ---------------------------------------------------------------------------

def simplex_support_max(v):
    """max_{c in simplex} <c, v> = max(v)."""
    return float(np.max(v))


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
    support_max : callable
        v -> max_{c in C} <c, v>, the support function of C, which gives the
        value (:func:`simplex_support_max` for the simplex).
    km_tol, km_max_iter : float, int
        Stop tolerance on the weight increment and iteration budget of the
        dual iteration in :func:`prox_sup_affine`.  The names date from an
        earlier Krasnoselskii-Mann scheme and are kept for compatibility.

    The family caches the Gram matrix ``gram = A A^T`` used by every dual
    step, and ``gram_norm = |A A^T| = |A|^2`` from
    :func:`~pvsmooth.core.spectral_norm`, which fixes the dual step size.
    """

    lipschitz = None

    def __init__(self, a_rows, offsets, sigma, project_ambiguity, support_max,
                 km_tol=1e-10, km_max_iter=200000):
        a_rows = np.atleast_2d(np.asarray(a_rows, dtype=float))
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        if a_rows.shape[0] != offsets.size:
            raise DomainError("a_rows and offsets disagree on the scenario count")
        if not (sigma > 0):
            raise DomainError("sigma must be positive")
        self.a_rows = a_rows
        self.offsets = offsets
        self.sigma = float(sigma)
        self.project_ambiguity = project_ambiguity
        self.support_max = support_max
        self.km_tol = float(km_tol)
        self.km_max_iter = int(km_max_iter)
        self.rho = 2.0 * self.sigma
        self.gram = a_rows @ a_rows.T
        self.gram_norm = spectral_norm(a_rows) ** 2

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
    """Prox of a :class:`SupAffineFamily` by restarted FISTA on the dual weights.

    With s = 1 - 2 sigma mu, the prox point for weights c is
    y(c) = (x - mu A^T c) / s, and c maximizes the concave dual

        phi(c) = <c, w> - (mu / 2s) c^T G c + const,   w = A x / s + b,

    over C, with G = A A^T (cached on the family).  Its gradient
    w - (mu/s) G c = A y(c) + b is Lipschitz with L = mu |A A^T| / s, so
    each iteration takes one projected gradient step of length gamma = 1/L
    from an extrapolated point z (Beck-Teboulle):

        c_{k+1} = P_C(z_k + gamma (w - (mu/s) G z_k))
        z_{k+1} = c_{k+1} + (t_k - 1)/t_{k+1} (c_{k+1} - c_k),

    restarting the momentum (t = 1, z = c_{k+1}) whenever
    (z_k - c_{k+1}) . (c_{k+1} - c_k) > 0 (O'Donoghue-Candes gradient
    restart).  The iteration starts from the projected uniform weights on
    every call and stops when both the increment |c_{k+1} - c_k| and the
    gradient-mapping residual |c_{k+1} - z_k| are at most tol =
    ``family.km_tol``; ``family.km_max_iter`` caps the iterations.  The second
    test rules out false stops where an extrapolated step projects back onto
    c_k, and it certifies the result: the projected-gradient map is
    nonexpansive, so |P_C(c + gamma grad phi(c)) - c| <= tol at the returned
    c, and on the simplex the dual gap max(v) - <c, v> with v = A y + b is at
    most 2 sqrt(2) L tol.

    Returns ``(y, c, iterations)`` where y is the prox point and c the
    worst-case weights.  Raises :class:`ConvergenceError` (carrying the last
    increment and iterate) if the budget runs out.
    """
    family.check_mu(mu)
    x = np.asarray(x, dtype=float)
    tol, max_iter = family.km_tol, family.km_max_iter
    s = 1.0 - 2.0 * family.sigma * mu
    lip = mu * family.gram_norm / s
    # lip below the smallest normal float: A is numerically zero, and any
    # step works since the weight map is (nearly) constant
    gamma = 1.0 / lip if lip >= _TINY else 1.0

    a_rows, project = family.a_rows, family.project_ambiguity
    n = a_rows.shape[0]
    w = gamma * (a_rows @ x / s + family.offsets)
    m = (gamma * mu / s) * family.gram
    c = project(np.full(n, 1.0 / n))
    z, t = c, 1.0
    delta = np.inf
    for it in range(1, max_iter + 1):
        c_next = project(z + w - m @ z)
        diff = c_next - c
        delta = float(max(np.linalg.norm(diff), np.linalg.norm(c_next - z)))
        if delta <= tol:
            return (x - mu * (a_rows.T @ c_next)) / s, c_next, it
        if (z - c_next) @ diff > 0.0:
            z, t = c_next, 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = c_next + ((t - 1.0) / t_next) * diff
            t = t_next
        c = c_next
    y = (x - mu * (a_rows.T @ c)) / s
    raise ConvergenceError(
        "weight iteration did not reach tol=%g in %d iterations" % (tol, max_iter),
        residual=delta,
        iterations=max_iter,
        best=(y, c),
    )


# ---------------------------------------------------------------------------
# scalar separable regularizers
# ---------------------------------------------------------------------------

def l1_value(lam, x):
    return float(lam * np.abs(np.asarray(x, dtype=float)).sum())


def prox_l1(lam, gamma, x):
    """Soft threshold at level gamma*lam (componentwise)."""
    if not (lam > 0 and gamma > 0):
        raise DomainError("lam and gamma must be positive")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - gamma * lam, 0.0)


def mcp_value(lam, theta, x):
    x = np.abs(np.asarray(x, dtype=float))
    inner = lam * x - x * x / (2.0 * theta)
    return float(np.where(x <= theta * lam, inner, 0.5 * theta * lam * lam).sum())


def prox_mcp(lam, theta, gamma, x):
    """Firm-threshold prox of the minimax concave penalty.

    Valid for gamma < theta (= 1/rho); zero inside |x| < gamma*lam, identity
    beyond theta*lam, linear interpolation in between.
    """
    if not (lam > 0 and theta > 0):
        raise DomainError("lam and theta must be positive")
    if not (0.0 < gamma < theta):
        raise DomainError("prox step gamma must lie in (0, theta)")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    mid = np.sign(x) * (ax - gamma * lam) / (1.0 - gamma / theta)
    out = np.where(ax <= gamma * lam, 0.0, np.where(ax <= theta * lam, mid, x))
    return out if out.ndim else float(out)


def scad_value(lam, theta, x):
    x = np.abs(np.asarray(x, dtype=float))
    mid = (2.0 * theta * lam * x - x * x - lam * lam) / (2.0 * (theta - 1.0))
    out = np.where(
        x <= lam, lam * x, np.where(x <= theta * lam, mid, 0.5 * lam * lam * (theta + 1.0))
    )
    return float(out.sum())


def _scad_piece_values(lam, theta, t):
    mid = (2.0 * theta * lam * t - t * t - lam * lam) / (2.0 * (theta - 1.0))
    return np.where(
        t <= lam, lam * t, np.where(t <= theta * lam, mid, 0.5 * lam * lam * (theta + 1.0))
    )


def prox_scad(lam, theta, gamma, x):
    """Prox of the smoothly clipped absolute deviation penalty.

    The penalty has three analytic pieces; each contributes one candidate
    minimizer (clamped into its piece), and the best full objective wins.
    Requires theta > 2 and gamma < theta - 1 (= 1/rho) for a strongly convex
    prox subproblem.
    """
    if not (lam > 0):
        raise DomainError("lam must be positive")
    if not (theta > 2.0):
        raise DomainError("SCAD requires theta > 2")
    if not (0.0 < gamma < theta - 1.0):
        raise DomainError("prox step gamma must lie in (0, theta - 1)")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    c1 = np.clip(ax - gamma * lam, 0.0, lam)
    c2 = np.clip(((theta - 1.0) * ax - gamma * theta * lam) / (theta - 1.0 - gamma),
                 lam, theta * lam)
    c3 = np.maximum(ax, theta * lam)
    cands = np.stack([c1, c2, c3])
    objs = _scad_piece_values(lam, theta, cands) + (cands - ax) ** 2 / (2.0 * gamma)
    best = cands[objs.argmin(axis=0), np.arange(cands.shape[1])] if x.ndim else \
        cands[objs.argmin(axis=0)]
    out = np.sign(x) * best
    return out if out.ndim else float(out)


def tukey_value(shift, x):
    s = np.asarray(x, dtype=float) - shift
    q = s * s
    return float((q / (1.0 + q)).sum())


def prox_tukey(shift, mu, x, residual_tol=1e-12):
    """Prox of the Tukey biweight penalty t -> (t-b)^2 / (1 + (t-b)^2).

    The penalty is treated as 6-weakly convex, so mu must lie in (0, 1/6);
    the prox subproblem is then strongly convex and its stationarity equation

        (t - x)/mu + 2 (t-b) / (1 + (t-b)^2)^2 = 0

    has a single root, bracketed in [min(x,b)-1, max(x,b)+1] because the
    penalty slope never exceeds 1 in absolute value while the quadratic term
    exceeds 6 at the bracket ends.  Solved by Newton steps safeguarded with
    bisection.  Convergence is measured on the mu-scaled form
    t - x + 2 mu (t-b)/(1+(t-b)^2)^2, which stays O(1); the raw equation
    scales like 1/mu and cannot be driven to a fixed tolerance in double
    precision when mu is tiny.
    """
    if not (0.0 < mu < 1.0 / 6.0):
        raise DomainError("mu must lie in (0, 1/6)")
    x = np.asarray(x, dtype=float)
    b = np.broadcast_to(np.asarray(shift, dtype=float), x.shape).astype(float)

    def psi(t):
        s = t - b
        return (t - x) / mu + 2.0 * s / (1.0 + s * s) ** 2

    lo = np.minimum(x, b) - 1.0
    hi = np.maximum(x, b) + 1.0
    t = x.astype(float).copy()
    for _ in range(200):
        f = psi(t)
        if np.max(mu * np.abs(f)) <= residual_tol:
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


class ScalarRegularizer(ProxFunction):
    """Separable scalar regularizer: one of 'l1', 'mcp', 'scad', 'tukey'.

    * l1: lam * |t|, convex (rho = 0).
    * mcp: minimax concave penalty with shape theta > 0, rho = 1/theta.
    * scad: smoothly clipped absolute deviation, theta > 2, rho = 1/(theta-1).
    * tukey: biweight (t-b)^2/(1+(t-b)^2) with optional per-coordinate shifts
      b; carries no weight, and is treated as 6-weakly convex.

    ``lipschitz`` may be supplied when a global Lipschitz constant of the sum
    is known for the dimension at hand (e.g. lam * sqrt(n) for l1 on R^n).
    """

    def __init__(self, kind, lam=1.0, theta=None, shifts=0.0, lipschitz=None):
        if kind not in ("l1", "mcp", "scad", "tukey"):
            raise DomainError("unknown regularizer kind %r" % (kind,))
        if kind != "tukey" and not (lam > 0):
            raise DomainError("lam must be positive")
        if kind == "mcp":
            if theta is None or not (theta > 0):
                raise DomainError("MCP requires theta > 0")
            self.rho = 1.0 / theta
        elif kind == "scad":
            if theta is None or not (theta > 2.0):
                raise DomainError("SCAD requires theta > 2")
            self.rho = 1.0 / (theta - 1.0)
        elif kind == "tukey":
            self.rho = 6.0
        else:
            self.rho = 0.0
        self.kind = kind
        self.lam = float(lam)
        self.theta = None if theta is None else float(theta)
        self.shifts = np.asarray(shifts, dtype=float)
        self.lipschitz = lipschitz

    def value(self, y):
        if self.kind == "l1":
            return l1_value(self.lam, y)
        if self.kind == "mcp":
            return mcp_value(self.lam, self.theta, y)
        if self.kind == "scad":
            return scad_value(self.lam, self.theta, y)
        return tukey_value(self.shifts, y)

    def prox(self, mu, y):
        self.check_mu(mu)
        y = np.asarray(y, dtype=float)
        if self.kind == "l1":
            return prox_l1(self.lam, mu, y)
        if self.kind == "mcp":
            return prox_mcp(self.lam, self.theta, mu, y)
        if self.kind == "scad":
            return prox_scad(self.lam, self.theta, mu, y)
        return prox_tukey(self.shifts, mu, y)
