"""Proximity operators for the nonsmooth families used in the model problems.

Three groups live here:

* pointwise suprema of concave quadratics  f(x) = max_i -|x_i - c_i|^2 on a
  product space, whose prox reduces to a weight vector on the simplex with a
  closed-form solution;
* suprema of affine forms minus a quadratic,
  f(x) = max_i <a_i, x> + b_i - sigma |x|^2, whose prox maximizes a
  concave dual over simplex weights c, exactly, by an active set;
* separable scalar penalties (l1, MCP, SCAD, Tukey biweight), one class
  each.

All of these are rho-weakly convex; their prox is single-valued whenever the
smoothing parameter satisfies mu < 1/rho.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ProxFunction, _all_finite, _require, _require_array, spectral_norm
# matrix_norm_bound is unused here but stays a module attribute:
# benchmarks/tracing.py wraps it in every module that imported it.
from .core import matrix_norm_bound  # noqa: F401
from .errors import ContractError, ConvergenceError, DomainError, NumericalError
from .projections import _project_simplex

__all__ = [
    "envelope_by_weights",
    "solve_simplex_weights",
    "simplex_weights_kkt",
    "SupQuadraticFamily",
    "SupAffineFamily",
    "L1Penalty",
    "MCPPenalty",
    "SCADPenalty",
    "TukeyPenalty",
    "ScalarRegularizer",
]

_DENOM_GUARD = 1e-12
_TINY = np.finfo(float).tiny
# step budget of the sup-affine active set, far above the one or two steps
# a warm-started prox takes; a test or a mutation survey may lower it
_ACTIVE_SET_STEPS = 200_000


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
    _require(mu, "mu", 0, 0.5)
    return _simplex_weights(alpha, mu, _block_counts(alpha.size))


def _block_counts(n):
    """The float counts N - i, i = 0..N-1, of blocks outside the i largest."""
    return np.arange(n, 0, -1.0)


def _simplex_weights(alpha, mu, counts):
    """:func:`solve_simplex_weights` without the argument checks; ``counts``
    is :func:`_block_counts` of ``alpha.size``."""
    n = alpha.size
    order = (-alpha).argsort(kind="stable")
    s = np.sqrt(alpha[order])
    # tails[i] = sum of s[i:], i.e. sqrt(alpha) over blocks outside the i largest
    tails = s[::-1].cumsum()[::-1]
    cond = (counts - 2.0 * mu) * s < tails
    cond[-1] = True  # (1 - 2 mu) s < s, which rounding loses for mu below ~6e-17
    k = int(cond.argmax())
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

    ``centers`` has shape (N, d), N >= 1; arguments are flat vectors of
    length N*d.  The function is 2-weakly convex, so the prox is single
    valued for mu < 1/2.  With alpha_i = |x_i - c_i|^2 and maximizing
    weights p, the prox has blocks (x_i - 2 mu p_i c_i) / (1 - 2 mu p_i).

    ``prox`` forms the block differences once, and ``prox_and_value`` reads
    f at the prox point from the prox blocks ``prox`` returns, the same
    floats ``value`` computes.  A non-finite squared distance raises
    :class:`DomainError`.  The family keeps the block counts N - i its
    weight solve needs.
    """

    rho = 2.0
    lipschitz = None

    def __init__(self, centers):
        self.centers = _require_array(centers, "centers", 2)
        self.n_blocks, self.block_dim = self.centers.shape
        _require(self.n_blocks, "the number of centers", 1, math.inf, integer=True, ends="[)")
        self._counts = _block_counts(self.n_blocks)

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
        mu already checked.  The largest entry (``argmax`` takes the first
        NaN) is NaN or inf exactly when some entry is, so it rejects a
        non-finite input; the distances are then finite and nonnegative,
        so ``argmin`` finds the first zero if there is one."""
        if not math.isfinite(alpha[alpha.argmax()]):
            raise DomainError("squared block distances |x_i - c_i|^2 must be finite")
        near = alpha.argmin()
        if alpha[near] == 0.0:
            p = np.zeros(self.n_blocks)
            p[near] = 1.0  # a vanishing distance pins the weight there
            return p
        return _simplex_weights(alpha, mu, self._counts)

    def prox(self, mu, x):
        self.check_mu(mu)
        blocks = self._blocks(x)
        diff = blocks - self.centers
        p = self._weights(mu, np.add.reduce(diff * diff, axis=1))
        denom = 1.0 - 2.0 * mu * p
        low = denom[denom.argmin()]
        if low < _DENOM_GUARD:
            raise NumericalError("prox denominators collapsed (min %g)" % float(low))
        out = (blocks - (2.0 * mu) * p[:, None] * self.centers) / denom[:, None]
        return out.ravel()

    def prox_and_value(self, mu, x):
        out = self.prox(mu, x)
        d = out.reshape(self.centers.shape) - self.centers
        alpha = np.add.reduce(d * d, axis=1)
        return out, -float(alpha[alpha.argmin()])


# ---------------------------------------------------------------------------
# supremum of affine forms minus a quadratic: exact dual solve
# ---------------------------------------------------------------------------

class SupAffineFamily(ProxFunction):
    """f(x) = max_i <a_i, x> + b_i - sigma |x|^2, the supremum over
    probability weights c of <c, A x + b> - sigma |x|^2.

    Parameters
    ----------
    a_rows : (N, d) array
        Row i is the slope a_i of scenario i.
    offsets : (N,) array
    sigma : float > 0
        Concavity weight; the family is 2*sigma-weakly convex.

    The family keeps its inputs and ``gram_norm = |A|^2`` from
    :func:`~pvsmooth.core.spectral_norm`, which fixes the dual step size:
    O(N d) memory, and nothing of size N^2.  No scenario, a non-finite
    |A|^2, and out-of-range values raise :class:`DomainError`.  Arguments
    are flat vectors of length d, as for :class:`SupQuadraticFamily`;
    another shape raises :class:`ContractError`.

    It keeps one piece of state, ``_support``: the sorted support its
    active set last certified (None before the first), O(N) indices from
    which the next active set starts.
    """

    lipschitz = None

    def __init__(self, a_rows, offsets, sigma):
        a_rows = _require_array(a_rows, "a_rows", 2)
        offsets = _require_array(offsets, "offsets", 1)
        if a_rows.shape[0] != offsets.size:
            raise DomainError("a_rows and offsets disagree on the scenario count")
        _require(offsets.size, "the scenario count", 1, math.inf, integer=True, ends="[)")
        self.sigma = float(_require(sigma, "sigma", 0, math.inf))
        norm = spectral_norm(a_rows)
        self.gram_norm = _require(norm * norm, "|A|^2", 0, math.inf, ends="[)")
        self.a_rows = a_rows
        self.offsets = offsets
        self.rho = 2.0 * self.sigma
        self._support = None

    def _point(self, x):
        """``x`` as a float array, which must be a flat vector of the slopes'
        length d: another shape raises :class:`ContractError`."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.a_rows.shape[1:]:
            raise ContractError("expected a flat vector of length %d, got shape %r"
                                % (self.a_rows.shape[1], x.shape))
        return x

    def value(self, x):
        x = self._point(x)
        v = self.a_rows @ x + self.offsets
        return float(v[v.argmax()] - self.sigma * (x @ x))

    def prox(self, mu, x):
        return self.prox_detailed(mu, x)[0]

    def prox_detailed(self, mu, x):
        """The prox through the dual weights.

        With s = 1 - 2 sigma mu, the prox point for weights c is
        y(c) = (x - mu A^T c) / s, and c maximizes the concave dual
        phi(c) = <c, w> - (mu / 2s) |A^T c|^2 over the simplex,
        w = A x / s + b, whose gradient A y(c) + b is Lipschitz with
        L = mu |A|^2 / s.  Scaled by gamma = 1/L, the dual is
        <c, w> - (coef / 2) |A^T c|^2 with coef = gamma mu / s, and every
        product with its Hessian coef A A^T is taken through the rows of A,
        never through the N x N matrix: memory is O(N d).

        Since sum c = 1 leaves the dual unchanged by any shift of w, a
        primal active set (:func:`_simplex_active_set`) solves this QP
        exactly on w - max(w) and returns the first weights the KKT
        conditions certify.  It starts from the support the family last
        certified, or at the top scenario of w before the first certified
        prox, and falls back to the top scenario at the cost of one step
        when the maximizer on that support's affine hull has a negative
        weight or is singular.  Certified weights are that maximizer on
        their final support (a vertex, an edge's closed form, or a bordered
        solve), so y and c are those of a fresh family
        whenever the optimal support is unique; the step count, and so
        whether it stays within the module's budget ``_ACTIVE_SET_STEPS``,
        depends on the last certified support.

        Returns ``(y, c, iterations)``.  An ``x`` that is not a flat vector
        of length d raises :class:`ContractError`; a non-finite one, or a
        finite one whose w or y overflows, :class:`DomainError`, and so does
        an L that overflows, which leaves no step size.  Raises
        :class:`ConvergenceError`, carrying the last (y, c) and the steps
        taken, when the active set stops uncertified, with the fixed-point
        residual |P(c + v) - c| of that c as its residual.
        """
        self.check_mu(mu)
        mu = float(mu)  # a numpy mu would take L in its own precision and warn on overflow
        x = self._point(x)
        if not _all_finite(x):
            raise DomainError("the prox argument x must be finite")
        s = 1.0 - 2.0 * self.sigma * mu
        lip = mu * self.gram_norm / s
        if lip == math.inf:  # gamma = 0 would make every weight optimal
            raise DomainError("the dual Lipschitz constant L = mu |A|^2 / s must be finite")
        # lip below the smallest normal float: A is numerically zero, and any
        # step works since the weight map is (nearly) constant
        gamma = 1.0 / lip if lip >= _TINY else 1.0

        a_rows = self.a_rows
        w = _scaled_dual_gradient(a_rows, x, s, self.offsets, gamma)
        # the extremes of w (argmax and argmin take the first NaN) are finite
        # exactly when every entry is
        top, low = w[w.argmax()], w[w.argmin()]
        if not (math.isfinite(top) and math.isfinite(low)):
            raise DomainError("the dual gradient w = A x / s + b must be finite")
        coef = gamma * mu / s
        w = w - top
        c, support, steps, certified = _simplex_active_set(
            a_rows, coef, w, _ACTIVE_SET_STEPS, self._support)
        if certified:
            self._support = support
            return _prox_point(x, mu, a_rows, c, s), c, steps
        r = _project_simplex(c + w - coef * (a_rows @ (a_rows.T @ c))) - c
        raise ConvergenceError(
            "weight iteration stopped uncertified after %d of %d iterations"
            " (the budget _ACTIVE_SET_STEPS)" % (steps, _ACTIVE_SET_STEPS),
            residual=float(np.linalg.norm(r)),
            iterations=steps,
            best=(_prox_point(x, mu, a_rows, c, s), c),
        )


@np.errstate(over="ignore", invalid="ignore")  # A x may overflow
def _scaled_dual_gradient(a_rows, x, s, offsets, gamma):
    """w = gamma (A x / s + b), left for the caller to test for finiteness."""
    return gamma * (a_rows @ x / s + offsets)


@np.errstate(over="ignore")
def _unchecked_prox_point(x, mu, a_rows, c, s):
    return (x - mu * (a_rows.T @ c)) / s


def _prox_point(x, mu, a_rows, c, s):
    """y(c) = (x - mu A^T c) / s; an overflow raises :class:`DomainError`."""
    y = _unchecked_prox_point(x, mu, a_rows, c, s)
    if not _all_finite(y):
        raise DomainError("the prox point y = (x - mu A^T c) / s must be finite")
    return y


def _simplex_active_set(a_rows, coef, w, max_steps, start=None):
    """Maximize <c, w> - (coef / 2) |A^T c|^2 over the simplex by a primal
    active set (Wolfe, Math. Prog. 1976; Nocedal-Wright section 16.5).

    A is ``a_rows`` (N x d), and w is shifted to max(w) = 0.  The support S
    starts at ``start``, a sorted index array, when one is given (a support
    certified before), and else at the top scenario of w.  Each step takes
    the maximizer u on the affine hull of S, the solution of the bordered
    system [M_SS 1; 1^T 0] [u; t] = [w_S - max w_S; 1], M_SS = coef A_S A_S^T
    with A_S the rows in S: on one scenario j the vertex c = e_j, on an
    edge the closed form of :func:`_edge_weights`, and on three or more
    scenarios, or an edge whose closed form overflows, a solve of that
    system.  Then:

    * if u >= 0, c = u.  The scenario with the largest dual gradient
      v = w - coef A (A_S^T u) joins S when it exceeds max v_S by more than
      eps = 1e-12, the KKT tolerance.  With no such violator, c is
      returned if :func:`_simplex_kkt_certified` certifies it, and
      otherwise the active set gives up;
    * else c moves along u - c_S until its first weight reaches 0, and
      only that scenario leaves S; when the system is singular
      (``LinAlgError`` or a singular edge, or u - c_S does not ascend and
      M_SS has a null direction within eps on {sum d = 0}), c moves instead
      along a direction d with sum d = 0 and M_SS d = 0, signed to ascend.
      A start support has no c to move from, so there S restarts at the top
      scenario of w instead, one step later than a cold start.

    A step costs O(N d), plus the k x k bordered solve when k = |S| >= 3 or
    when c leaves a support.  Returns ``(c, support, steps, certified)``:
    the last weights and support, the steps taken, and whether a step
    within ``max_steps`` certified c.
    """
    # gamma = 1/L makes coef |A|^2 = 1 (or less), so scenarios that can carry
    # weight have w_i in [-2, 0] and v on S lies in [-1, 1]: eps is absolute
    eps = 1e-12
    idx = w.argmax()[None] if start is None else start
    for steps in range(1, max_steps + 1):
        k = idx.size
        if k == 1:
            # the vertex: the bordered system's exact answer is u = 1, so
            # v = w - coef A a_j with a_j the row of scenario j
            c = np.zeros(w.size)
            c[idx] = 1.0
            v = w - coef * (a_rows @ a_rows[idx[0]])
        else:
            kkt = None
            edge = _edge_weights(a_rows, coef, w, idx) if k == 2 else None
            if edge is None:  # three or more scenarios, or an edge with no closed form
                a_s = a_rows[idx]
                kkt, rhs = _bordered_system(a_s, coef, w[idx])
                try:
                    u = np.linalg.solve(kkt, rhs)[:k]
                except np.linalg.LinAlgError:
                    u = None
                a_u = None if u is None or u[u.argmin()] < 0.0 else a_s.T @ u
            else:
                u, a_u = edge
            if a_u is None:  # a negative weight, or a singular system
                if steps == 1:  # only a start support solves at step 1:
                    # restart cold, with the top vertex as the last weights
                    idx = w.argmax()[None]
                    c = np.zeros(w.size)
                    c[idx] = 1.0
                    continue
                if kkt is None:  # an edge's closed form: no system built yet
                    kkt, rhs = _bordered_system(a_rows[idx], coef, w[idx])
                c_s = c[idx]
                # the dual gradient on S, less max w_S
                g = rhs[:k] - kkt[:k, :k] @ c_s
                # an edge's u is a pair of Python floats
                direction = None if u is None else np.subtract(u, c_s)
                if u is None or direction @ (g - np.add.reduce(g) / k) < 0.0:
                    # d = (y, -sum y) spans {sum d = 0}; the least singular
                    # vector y of M_SS [I; -1^T] makes M_SS d vanish.  With
                    # no such d (least singular value above eps) the system
                    # is regular, u ~ c_S, and u - c_S misses ascent only by
                    # rounding: it stays, and drops a zero weight
                    mz = kkt[:k, :k - 1] - kkt[:k, k - 1:k]
                    _, sing, vt = np.linalg.svd(mz)
                    if u is None or sing[-1] <= eps:
                        direction = np.append(vt[-1], -vt[-1].sum())
                        if direction @ g < 0.0:
                            direction = -direction
                down = (direction < 0.0).nonzero()[0]
                ratio = c_s[down] / -direction[down]
                r = int(ratio.argmin())
                keep = np.arange(k) != down[r]
                c = np.zeros(w.size)
                c[idx[keep]] = np.maximum(c_s + ratio[r] * direction, 0.0)[keep]
                idx = idx[keep]
                continue
            c = np.zeros(w.size)
            c[idx] = u
            v = w - coef * (a_rows @ a_u)
        j = v.argmax()
        on = v[idx]
        peak, top = v[j], on[on.argmax()]
        if peak - top > eps:
            idx = np.concatenate((idx, (j,)))
            idx.sort()
        else:  # no violator left: c is the answer, or the active set gives up
            return c, idx, steps, _simplex_kkt_certified(c, on, top, peak, eps)
    return c, idx, steps, False


@np.errstate(over="ignore")  # |a_i - a_j|^2 may overflow, as rows near 1e154 do
def _edge_weights(a_rows, coef, w, idx):
    """The maximizer ``(u, A_S^T u)`` on the affine hull of an edge
    S = {i, j}, with no bordered solve.

    The difference of the bordered system's two KKT rows,
    coef <a_i - a_j, u_i a_i + u_j a_j> = w_i - w_j, with u_j = 1 - u_i,
    gives

        u_i = (w_i - w_j - coef <a_j, a_i - a_j>) / (coef |a_i - a_j|^2),

    computed on Python floats from the two rows; ``u`` is the pair
    (u_i, u_j).  ``A_S^T u``, the sum u_i a_i + u_j a_j, is formed only
    when u >= 0, and is None otherwise.  A zero or non-finite denominator,
    or a u_i that overflows, makes the edge singular: ``(None, None)``.
    Returns None when |a_i - a_j|^2 or <a_j, a_i - a_j> overflows before
    coef scales it (rows near 1e154): the edge is then solved by the
    bordered system, whose entries coef <a_i, a_j> stay within coef |A|^2.
    """
    i, j = idx.tolist()
    a_i, a_j = a_rows[i], a_rows[j]
    dif = a_i - a_j
    sq, cross = float(dif.dot(dif)), float(a_j.dot(dif))
    if not (math.isfinite(sq) and math.isfinite(cross)):
        return None
    den = coef * sq
    if not 0.0 < den < math.inf:
        return None, None
    u_i = (w.item(i) - w.item(j) - coef * cross) / den
    if not math.isfinite(u_i):
        return None, None
    u_j = 1.0 - u_i
    if not 0.0 <= u_i <= 1.0:  # u_j < 0 exactly when u_i > 1
        return (u_i, u_j), None
    return (u_i, u_j), u_i * a_i + u_j * a_j


def _bordered_system(a_s, coef, w_s):
    """The bordered KKT system [M_SS 1; 1^T 0], [w_S - max w_S; 1] of the
    rows ``a_s`` and dual gradients ``w_s`` of a support S."""
    k = w_s.size
    kkt = np.empty((k + 1, k + 1))
    kkt[:k, :k] = coef * (a_s @ a_s.T)
    kkt[k] = 1.0
    kkt[:k, k] = 1.0
    kkt[k, k] = 0.0
    rhs = np.empty(k + 1)
    rhs[:k] = w_s - w_s[w_s.argmax()]  # moves only t, since sum u = 1
    rhs[k] = 1.0
    return kkt, rhs


def _simplex_kkt_certified(c, on, top, peak, eps):
    """Whether ``c`` is the maximizer, by the KKT conditions of the simplex
    QP: c >= 0, |sum c - 1| <= 1e-12, and the dual gradient
    v = w - coef A A^T c spreads at most eps over the support and exceeds
    its maximum nowhere by more than eps.  The active set hands in what it
    has already computed: ``on``, v on the support, its maximum ``top``,
    and ``peak``, the maximum of v.
    """
    return bool(c[c.argmin()] >= 0.0 and abs(np.add.reduce(c) - 1.0) <= 1e-12
                and top - on[on.argmin()] <= eps and peak - top <= eps)


# ---------------------------------------------------------------------------
# scalar separable penalties
# ---------------------------------------------------------------------------

class L1Penalty(ProxFunction):
    """lam * sum_i |t_i|: convex (rho = 0); the prox soft-thresholds at mu lam.

    ``lipschitz`` may be supplied when a global Lipschitz constant of the sum
    is known for the dimension at hand (lam * sqrt(n) on R^n).  No constant
    is below lam, the slope along a coordinate axis, so a smaller one (or a
    NaN or infinite one) raises :class:`DomainError`.
    """

    def __init__(self, lam, lipschitz=None):
        self.lam = float(_require(lam, "lam", 0, math.inf))
        self.lipschitz = _require(lipschitz, "lipschitz", lam, math.inf, allow_none=True,
                                  ends="[)")

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
        self.lam = float(_require(lam, "lam", 0, math.inf))
        # theta = inf is the l1 penalty
        self.theta = float(_require(theta, "theta", 0, math.inf, ends="(]"))
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

    It is 1/(theta - 1)-weakly convex, so mu < theta - 1 makes the prox
    subproblem strongly convex and its minimizer a three-piece threshold, as
    MCP's: sign(y) times (|y| - mu lam)_+ up to |y| = (1 + mu) lam, then
    ((theta - 1)|y| - mu theta lam) / (theta - 1 - mu) up to theta lam, then
    |y|.
    """

    def __init__(self, lam, theta):
        self.lam = float(_require(lam, "lam", 0, math.inf))
        self.theta = float(_require(theta, "theta", 2, math.inf))
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
        mid = ((theta - 1.0) * ay - mu * theta * lam) / (theta - 1.0 - mu)
        t = np.where(ay <= (1.0 + mu) * lam, np.maximum(ay - mu * lam, 0.0),
                     np.where(ay <= theta * lam, mid, ay))
        out = np.sign(y) * t
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
        # a scalar shift stays 0-d, so the prox of a scalar is a float
        self.shifts = _require_array(shifts, "shifts", 1).reshape(np.shape(shifts))

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
