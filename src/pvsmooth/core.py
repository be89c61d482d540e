"""Core abstractions: prox-capable functions, smooth terms, linear maps,
subspace projectors, and the composite problem bundle.

The problem solved throughout the package is

    minimize_{x in V}  h(x) + g(A x)

with h smooth (Lipschitz gradient), g rho-weakly convex and prox-friendly,
A a bounded linear map and V a closed subspace.  Smoothing replaces g by its
Moreau envelope g_mu, which is differentiable for mu < 1/rho with

    g_mu(x)      = min_y g(y) + |x - y|^2 / (2 mu)
    grad g_mu(x) = (x - prox_{mu g}(x)) / mu.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "ProxFunction",
    "SmoothFunction",
    "LinearMap",
    "SubspaceProjector",
    "CompositeProblem",
    "ZeroFunction",
    "CallableProx",
    "ZeroSmooth",
    "CallableSmooth",
    "IdentityMap",
    "MatrixMap",
    "IdentityProjector",
    "matrix_norm_bound",
    "spectral_norm",
    "moreau_envelope",
    "moreau_gradient",
]

_POWER_ITERS = 100
_POWER_TOL = 1e-10
_POWER_INFLATE = 1.01
_POWER_SEED = 0x5EED
_CERT_MARGIN = 1e-10
_SAFE_EXPONENT = 200


def _require(value, name, low, high, allow_none=False, integer=False, ends="()"):
    """Return ``value`` if it lies between ``low`` and ``high``, each end
    open or closed as its bracket in ``ends`` says, else raise
    :class:`DomainError` naming the parameter ``name``: the one check of a
    scalar parameter, made when an object is built.  The comparisons fail
    on NaN; inf passes only a closed infinite end (``ends="(]"``, a
    parameter that names an infinite limit); None passes with
    ``allow_none``; anything else that is not a :class:`numbers.Real`
    (:class:`numbers.Integral` for an ``integer``), or is a bool, fails,
    and so does an integer past the float range where a real number is
    asked for, which no float conversion survives; its message gives the
    integer's size, not its digits.  Plain comparisons, no numpy call."""
    if value is None and allow_none:
        return value
    numeric = numbers.Integral if integer else numbers.Real
    past_floats = (not integer and isinstance(value, numbers.Integral)
                   and abs(value) > sys.float_info.max)
    if not isinstance(value, numeric) or isinstance(value, bool) or past_floats or not (
            (low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        kind = ("an integer" if integer else
                "a number" if high == math.inf and ends[1] == "]" else "a finite number")
        got = ("an integer of about %s10^%d, past the float range"
               % ("-" if value < 0 else "", round(math.log10(abs(value))))
               if past_floats else repr(value))
        raise DomainError("%s must be %s%s in %s%s, %s%s, got %s" % (
            name, "None or " if allow_none else "", kind, ends[0], low, high, ends[1], got))
    return value


def _require_array(value, name, ndim):
    """``value`` as a float array lifted to ``ndim`` dimensions, as
    ``np.atleast_1d``/``2d`` lift it: the one check of an array parameter."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        got = "a ragged list" if arr is None else "%s entries" % arr.dtype
        raise DomainError("%s must be an array of real numbers, got %s" % (name, got))
    if arr.ndim > ndim:
        raise DomainError("%s must be at most %d-d, got shape %r" % (name, ndim, arr.shape))
    if not _all_finite(arr):
        raise DomainError("%s must be finite, got a NaN or infinite entry" % name)
    arr = arr.astype(float, copy=False)
    return arr if arr.ndim == ndim else arr.reshape((1,) * (ndim - arr.ndim) + arr.shape)


def _all_finite(a):
    """``np.isfinite(a).all()``, read off ``argmin`` (the first False, if
    any) in place of a reduction, which costs more on the small arrays of a
    step."""
    finite = np.isfinite(a).ravel()
    return finite.size == 0 or bool(finite[finite.argmin()])


def _scaled_to_safe_range(mat):
    """Return ``(mat * 2^-e, e, peak)`` for a 2-d float array, where peak is
    its largest absolute entry (0 for an all-zero or empty matrix).

    e is 0 unless peak lies outside 2^(+-200); then the scaled largest entry
    lies in [1/2, 1), so that squares and products of entries neither
    overflow nor underflow.  A NaN or infinite entry makes the peak
    non-finite (NaN carries through ``max`` and ``min``) and raises
    :class:`DomainError`.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ContractError("expected a 2-d array, got shape %r" % (mat.shape,))
    peak = max(float(mat.max()), -float(mat.min())) if mat.size else 0.0
    if not math.isfinite(peak):
        raise DomainError("matrix entries must be finite")
    exp = int(np.frexp(peak)[1])
    if abs(exp) <= _SAFE_EXPONENT:
        return mat, 0, peak
    return np.ldexp(mat, -exp), exp, peak


def _small_gram(mat):
    """``(gram, wide)``: the smaller Gram matrix of ``mat``, ``mat @ mat.T``
    when it is wide (m <= n) and ``mat.T @ mat`` otherwise.  It has
    min(m, n)^2 entries and top eigenvalue |mat|^2."""
    wide = mat.shape[0] <= mat.shape[1]
    return (mat @ mat.T if wide else mat.T @ mat), wide


def _top_root(gram):
    """Square root of the top ``eigvalsh`` eigenvalue of a Gram matrix."""
    return np.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def spectral_norm(mat):
    """Spectral norm |mat|_2: the square root of the top ``eigvalsh``
    eigenvalue of the smaller Gram matrix, ``mat @ mat.T`` or
    ``mat.T @ mat``, which has at most min(m, n)^2 entries."""
    mat, exp, peak = _scaled_to_safe_range(mat)
    if peak == 0.0:
        return 0.0
    return float(np.ldexp(_top_root(_small_gram(mat)[0]), exp))


def matrix_norm_bound(mat):
    """Upper bound on the spectral norm of ``mat``, at most 1% above it.

    Read off the smaller Gram matrix G (``mat @ mat.T`` for m <= n, else
    ``mat.T @ mat``; k = min(m, n)).  The estimate is power iteration on
    ``mat.T @ mat`` from a fixed seeded unit start v in R^n (100
    iterations, tolerance 1e-10 on the Rayleigh quotient |mat v|^2),
    inflated by 1%.  It runs on G: on u = v when G is ``mat.T @ mat``, and
    on u = mat v otherwise, where |mat^T mat v|^2 = u.Gu and |mat v|^2 =
    u.u (Golub-Van Loan, section 8.2).  It approaches the norm from below,
    and settles on a smaller singular value when the start is orthogonal
    to the top singular vector; a start in the null space ends it at 0.

    The certificate is a Cholesky factorization of
    (1 - 1e-10) estimate^2 I - G, formed in place of G (Golub-Van Loan,
    section 4.2): it succeeds only when the top eigenvalue of G lies below
    estimate^2, and then the estimate is returned.  Otherwise G is formed
    again, and the larger of the estimate and the exact norm (the root of
    the top ``eigvalsh`` eigenvalue of G, as :func:`spectral_norm`
    computes it) is returned.  The margin dwarfs the backward error of
    both factorizations (about k unit roundoffs), so either path returns
    that larger value, bit for bit.  The cost is one Gram product
    (k^2 max(m, n) flops), up to 100 k x k matvecs and one k x k Cholesky
    factorization (k^3 / 3 flops); the fallback adds a Gram product and a
    k x k symmetric eigensolve.

    The estimate is kept, although the exact norm alone times 1.01 would
    also be a bound, because step sizes derive from this value: on random
    500 x 2000 lasso designs, 100 iterations stop up to 0.97% below the
    norm, and 1.01 times the exact norm moves a 400-step lasso objective by
    up to 1.6e-5 relative.
    """
    mat, exp, peak = _scaled_to_safe_range(mat)
    if peak == 0.0:
        return 0.0
    gram, wide = _small_gram(mat)
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    u = mat @ v if wide else v
    gu = gram @ u
    lam = 0.0
    for _ in range(_POWER_ITERS):
        sq = float(u @ gu) if wide else float(gu @ gu)  # |mat^T mat v|^2
        if sq <= 0.0:
            break
        u = gu / np.sqrt(sq)
        gu = gram @ u
        lam_next = float(u @ u) if wide else float(u @ gu)  # |mat v|^2
        converged = abs(lam_next - lam) <= _POWER_TOL * max(1.0, abs(lam_next))
        lam = lam_next
        if converged:
            break
    estimate = np.sqrt(max(lam, 0.0)) * _POWER_INFLATE
    np.negative(gram, out=gram)  # G becomes (1 - margin) estimate^2 I - G
    gram.flat[:: gram.shape[0] + 1] += (1.0 - _CERT_MARGIN) * (estimate * estimate)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        estimate = max(estimate, _top_root(_small_gram(mat)[0]))
    return float(np.ldexp(estimate, exp))


class ProxFunction:
    """A function g with an implementable proximity operator.

    Subclasses implement ``value`` and ``prox``.  The solver asks for both
    at once through ``prox_and_value``, which derives them from the two; a
    family whose prox already holds what ``g(prox)`` needs overrides it to
    evaluate in one pass, and must return the same floats.

    Attributes
    ----------
    rho : float
        Weak-convexity modulus (g + rho/2 |.|^2 is convex); 0 means convex.
    lipschitz : float or None
        Global Lipschitz constant L_g of g when available, else None.
    mu_max : float
        Supremum of admissible smoothing parameters (1/rho, inf if rho == 0).
    """

    rho = 0.0
    lipschitz = None

    @property
    def mu_max(self):
        return np.inf if self.rho == 0.0 else 1.0 / self.rho

    def value(self, y):
        raise NotImplementedError

    def prox(self, mu, y):
        raise NotImplementedError

    def prox_and_value(self, mu, y):
        """Return ``(p, g(p))`` with ``p = prox_{mu g}(y)``."""
        p = self.prox(mu, y)
        return p, self.value(p)

    def check_mu(self, mu):
        """Raise DomainError unless 0 < mu < mu_max; every prox calls it first."""
        if not (0.0 < mu < self.mu_max):
            raise DomainError(
                "smoothing parameter mu=%r outside (0, %r)" % (mu, self.mu_max)
            )


class ZeroFunction(ProxFunction):
    """g == 0; prox is the identity."""

    rho = 0.0
    lipschitz = 0.0

    def value(self, y):
        return 0.0

    def prox(self, mu, y):
        self.check_mu(mu)
        return np.asarray(y, dtype=float)


class CallableProx(ProxFunction):
    """Wrap plain callables (value, prox) as a ProxFunction."""

    def __init__(self, value_fn, prox_fn, rho=0.0, lipschitz=None):
        self._value = value_fn
        self._prox = prox_fn
        self.rho = float(_require(rho, "rho", 0, math.inf, ends="[)"))
        self.lipschitz = _require(lipschitz, "lipschitz", 0, math.inf, allow_none=True,
                                  ends="[)")

    def value(self, y):
        return float(self._value(y))

    def prox(self, mu, y):
        self.check_mu(mu)
        return np.asarray(self._prox(mu, y), dtype=float)


class SmoothFunction:
    """A differentiable term h with Lipschitz-continuous gradient.

    Subclasses implement ``value_and_grad``, which computes what the value
    and the gradient share once; ``value`` and ``grad`` derive from it.
    """

    lip_grad = 0.0

    def value_and_grad(self, x):
        """Return ``(h(x), grad h(x))``."""
        raise NotImplementedError

    def value(self, x):
        return self.value_and_grad(x)[0]

    def grad(self, x):
        return self.value_and_grad(x)[1]


class ZeroSmooth(SmoothFunction):
    lip_grad = 0.0

    def value_and_grad(self, x):
        return 0.0, np.zeros_like(np.asarray(x, dtype=float))


class CallableSmooth(SmoothFunction):
    def __init__(self, value_fn, grad_fn, lip_grad):
        self._value = value_fn
        self._grad = grad_fn
        self.lip_grad = float(_require(lip_grad, "lip_grad", 0, math.inf, ends="[)"))

    def value_and_grad(self, x):
        return float(self._value(x)), np.asarray(self._grad(x), dtype=float)


class LinearMap:
    """Bounded linear map with adjoint and a known norm upper bound."""

    norm_bound = 1.0

    def apply(self, x):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError


class IdentityMap(LinearMap):
    norm_bound = 1.0

    def apply(self, x):
        return np.asarray(x, dtype=float)

    def adjoint(self, y):
        return np.asarray(y, dtype=float)


class MatrixMap(LinearMap):
    """Linear map given by a dense matrix; ``norm_bound`` is
    :func:`matrix_norm_bound` of it."""

    def __init__(self, mat):
        self.mat = _require_array(mat, "mat", 2)
        self.norm_bound = matrix_norm_bound(mat)  # mat as given: a 1-d one is a ContractError
        if self.norm_bound == 0.0:
            raise DomainError("matrix map must be nonzero")

    def apply(self, x):
        return self.mat @ np.asarray(x, dtype=float)

    def adjoint(self, y):
        return self.mat.T @ np.asarray(y, dtype=float)


class SubspaceProjector:
    """Orthogonal projector onto a closed subspace."""

    def apply(self, x):
        raise NotImplementedError


class IdentityProjector(SubspaceProjector):
    """Projector for V = whole space."""

    def apply(self, x):
        return np.asarray(x, dtype=float)


def moreau_envelope(g, mu, x):
    """Moreau envelope g_mu(x) = g(p) + |x - p|^2 / (2 mu), p = prox_{mu g}(x).

    Requires 0 < mu < g.mu_max so the inner problem is strongly convex and
    the prox point is unique; the prox raises :class:`DomainError` otherwise.
    """
    x = np.asarray(x, dtype=float)
    p, gp = g.prox_and_value(mu, x)
    d = x - p
    return float(gp + (d @ d) / (2.0 * mu))


def moreau_gradient(g, mu, x):
    """Gradient of the Moreau envelope: (x - prox_{mu g}(x)) / mu."""
    x = np.asarray(x, dtype=float)
    return (x - g.prox(mu, x)) / mu


class CompositeProblem:
    """Bundle (h, g, A, V) for  min_{x in V} h(x) + g(A x).

    Parameters
    ----------
    h : SmoothFunction
    g : ProxFunction
    a_map : LinearMap
    subspace : SubspaceProjector
    f_star : float, optional
        Known finite lower bound on the smoothed objective values, used by
        the stationarity bound diagnostics.  When absent those diagnostics
        fall back to the observed minimum and are flagged as heuristic.
    dim : int
        Ambient dimension >= 1, keyword-only and required.  The shape check
        evaluates h, A, V and g once at the zero vector of R^dim, and the
        solver rejects a start that is not of length dim.
    """

    def __init__(self, h, g, a_map, subspace, f_star=None, *, dim):
        self.h = h
        self.g = g
        self.a_map = a_map
        self.subspace = subspace
        self.f_star = _require(f_star, "f_star", -math.inf, math.inf, allow_none=True)
        self.dim = _require(dim, "dim", 1, math.inf, integer=True, ends="[)")
        probe = np.zeros(dim)
        try:
            out = self.a_map.apply(probe)
            self.subspace.apply(probe)
            self.h.value_and_grad(probe)
            self.g.value(np.asarray(out, dtype=float))
        except (ValueError, IndexError) as exc:  # re-raise with context
            raise ContractError(
                "problem components disagree on dimension %d: %s" % (dim, exc)
            ) from exc

    def objective(self, x):
        """The original (unsmoothed) objective h(x) + g(A x)."""
        x = np.asarray(x, dtype=float)
        return float(self.h.value(x) + self.g.value(self.a_map.apply(x)))

    def smoothed_parts(self, mu, x):
        """Return (F_mu(x), grad F_mu(x), |Ax - prox_{mu g}(Ax)|).

        One ``g.prox_and_value`` call serves the value, the gradient and the
        prox residual, and one ``h.value_and_grad`` call the smooth part.
        """
        x = np.asarray(x, dtype=float)
        ax = self.a_map.apply(x)
        p, gp = self.g.prox_and_value(mu, ax)
        d = ax - p
        dd = float(d @ d)
        h_val, h_grad = self.h.value_and_grad(x)
        val = float(h_val + (gp + dd / (2.0 * mu)))
        grad = h_grad + self.a_map.adjoint(d / mu)
        # sqrt(d @ d) is what np.linalg.norm computes for a 1-d array
        return val, grad, math.sqrt(dd)
