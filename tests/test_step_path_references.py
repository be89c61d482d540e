"""The step path's small-array kernels against plain reference versions.

Each reference below computes with numpy's plain functions and reductions
(``np.argsort``, ``np.cumsum``, ``.max()``, ``.sum()``, ``np.ones``) what
the package computes with ndarray methods, ``argmax``/``argmin`` reads and
``ufunc.reduce``.  The arithmetic is the same, so the results must be equal
bit for bit (``np.array_equal`` / ``==``), and the same inputs must be
rejected with the same error, on seeded batteries: random and tied
distances, a zero distance, scalings by 2^+-400, NaN and inf, and
degenerate simplex families (zero, duplicate and collinear rows).
"""

import math

import numpy as np
import pytest

from pvsmooth import prox
from pvsmooth.errors import ConvergenceError, DomainError, NumericalError
from pvsmooth.prox import (
    SupAffineFamily,
    SupQuadraticFamily,
    _block_counts,
    _simplex_kkt_certified,
    _simplex_weights,
    solve_simplex_weights,
)

SCALES = (2.0 ** -400, 2.0 ** -200, 1.0, 2.0 ** 200, 2.0 ** 400)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _ref_simplex_weights(alpha, mu):
    n = alpha.size
    order = np.argsort(-alpha, kind="stable")
    s = np.sqrt(alpha[order])
    tails = np.cumsum(s[::-1])[::-1]
    cond = (n - np.arange(n) - 2.0 * mu) * s < tails
    cond[-1] = True
    k = int(np.argmax(cond))
    p = np.zeros(n)
    if k == n - 1:
        p[order[k]] = 1.0
    else:
        p[order[k:]] = (1.0 - (n - k - 2.0 * mu) * s[k:] / tails[k]) / (2.0 * mu)
    return p


def _ref_sup_quadratic_prox_and_value(fam, mu, x):
    fam.check_mu(mu)
    blocks = np.asarray(x, dtype=float).reshape(fam.centers.shape)
    diff = blocks - fam.centers
    alpha = (diff * diff).sum(axis=1)
    if not math.isfinite(alpha.max()):
        raise DomainError("squared block distances |x_i - c_i|^2 must be finite")
    zero = np.nonzero(alpha == 0.0)[0]
    if zero.size:
        p = np.zeros(fam.n_blocks)
        p[zero[0]] = 1.0
    else:
        p = _ref_simplex_weights(alpha, mu)
    denom = 1.0 - 2.0 * mu * p
    if denom.min() < 1e-12:
        raise NumericalError("prox denominators collapsed (min %g)" % float(denom.min()))
    out = ((blocks - (2.0 * mu) * p[:, None] * fam.centers) / denom[:, None]).ravel()
    d = out.reshape(fam.centers.shape) - fam.centers
    return out, float(-(d * d).sum(axis=1).min())


def _ref_simplex_kkt_certified(c, v, idx, eps):
    on = v[idx]
    top = on.max()
    return bool(c.min() >= 0.0 and abs(c.sum() - 1.0) <= 1e-12
                and top - on.min() <= eps and v.max() - top <= eps)


_SOLVE = object()  # an edge with no closed form: solve its bordered system


def _ref_edge_weights(a_s, coef, w_s):
    """u on the affine hull of an edge, from u_i coef |a_i - a_j|^2 =
    w_i - w_j - coef <a_j, a_i - a_j> and u_j = 1 - u_i; ``_SOLVE`` when
    |a_i - a_j|^2 or <a_j, a_i - a_j> overflows, and None when the
    denominator is not positive and finite, or u_i is not finite."""
    dif = a_s[0] - a_s[1]
    with np.errstate(over="ignore"):
        sq, cross = np.dot(dif, dif), np.dot(a_s[1], dif)
        if not (np.isfinite(sq) and np.isfinite(cross)):
            return _SOLVE
        den = coef * sq
        if not (den > 0.0 and np.isfinite(den)):
            return None
        u_i = (w_s[0] - w_s[1] - coef * cross) / den
    return np.array([u_i, 1.0 - u_i]) if np.isfinite(u_i) else None


def _ref_simplex_active_set(a_rows, coef, w, max_steps, start):
    eps = 1e-12
    top = np.argmax(w)[None]
    idx = top if start is None else start
    for steps in range(1, max_steps + 1):
        k = idx.size
        if k == 1:
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
            rhs[:k] -= rhs[:k].max()
            # an edge: the difference of the two KKT rows
            u = _ref_edge_weights(a_s, coef, w[idx]) if k == 2 else _SOLVE
            closed = u is not _SOLVE
            if not closed:
                try:
                    u = np.linalg.solve(kkt, rhs)[:k]
                except np.linalg.LinAlgError:
                    u = None
            if u is None or u.min() < 0.0:
                if steps == 1:
                    c = np.zeros(w.size)
                    c[top] = 1.0
                    idx = top
                    continue
                c_s = c[idx]
                g = rhs[:k] - kkt[:k, :k] @ c_s
                direction = None if u is None else u - c_s
                if u is None or direction @ (g - g.mean()) < 0.0:
                    mz = kkt[:k, :k - 1] - kkt[:k, k - 1:k]
                    _, sing, vt = np.linalg.svd(mz)
                    if u is None or sing[-1] <= eps:
                        direction = np.append(vt[-1], -vt[-1].sum())
                        if direction @ g < 0.0:
                            direction = -direction
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
            a_u = u[0] * a_s[0] + u[1] * a_s[1] if closed else a_s.T @ u
            v = w - coef * (a_rows @ a_u)
        j = int(np.argmax(v))
        if v[j] - v[idx].max() > eps:
            idx = np.sort(np.append(idx, j))
        else:
            return c, idx, steps, _ref_simplex_kkt_certified(c, v, idx, eps)
    return c, idx, steps, False


def _ref_simplex_prox(fam, mu, x, start=None):
    """``(y, c, steps, support, certified)`` of the simplex prox."""
    fam.check_mu(mu)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("the prox argument x must be finite")
    s = 1.0 - 2.0 * fam.sigma * mu
    lip = mu * fam.gram_norm / s
    if lip == np.inf:
        raise DomainError("the dual Lipschitz constant L = mu |A|^2 / s must be finite")
    gamma = 1.0 / lip if lip >= np.finfo(float).tiny else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        w = gamma * (fam.a_rows @ x / s + fam.offsets)
    if not float(np.abs(w).max()) < np.inf:
        raise DomainError("the dual gradient w = A x / s + b must be finite")
    coef = gamma * mu / s
    c, support, steps, certified = _ref_simplex_active_set(
        fam.a_rows, coef, w - w.max(), prox._ACTIVE_SET_STEPS, start)
    with np.errstate(over="ignore"):
        y = (x - mu * (fam.a_rows.T @ c)) / s
    if not np.isfinite(y).all():
        raise DomainError("the prox point y = (x - mu A^T c) / s must be finite")
    return y, c, steps, support, certified


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and text of its error."""
    try:
        return fn(*args)
    except (DomainError, NumericalError, ConvergenceError) as exc:
        return type(exc), str(exc)


def _same(a, b):
    if isinstance(a, tuple) and isinstance(a[0], type):
        return a == b
    return isinstance(b, tuple) and len(a) == len(b) and all(
        np.array_equal(p, q) for p, q in zip(a, b))


# ---------------------------------------------------------------------------
# sup-quadratic weights and prox
# ---------------------------------------------------------------------------

def _alpha_battery():
    rng = np.random.default_rng(2301)
    for i in range(3000):
        n = int(rng.integers(1, 31))
        if i % 3 == 0:
            alpha = rng.uniform(0.01, 4.0, n)
        elif i % 3 == 1:  # ties: a few distinct values, repeated
            alpha = rng.choice(rng.uniform(0.01, 4.0, 3), n)
        else:  # many orders of magnitude
            alpha = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-8, 9, n)
        alpha = alpha * SCALES[i % len(SCALES)]
        mu = (1e-17, 1e-9, 0.499999)[i % 7] if i % 7 < 3 else rng.uniform(0.0, 0.5)
        if mu > 0.0:
            yield alpha, mu


def test_simplex_weights_equal_the_reference_bit_for_bit():
    for alpha, mu in _alpha_battery():
        want = _ref_simplex_weights(alpha, mu)
        assert np.array_equal(_simplex_weights(alpha, mu, _block_counts(alpha.size)), want)
        assert np.array_equal(solve_simplex_weights(alpha, mu), want)


def test_block_counts_are_the_counts_outside_the_largest():
    for n in (1, 2, 10, 1000):
        counts = _block_counts(n)
        assert counts.dtype == float
        assert np.array_equal(counts, n - np.arange(n))


def _quadratic_battery():
    rng = np.random.default_rng(2302)
    for i in range(1500):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        scale = SCALES[i % len(SCALES)] ** 0.5  # squared distances scale by 2^+-400
        centers = rng.uniform(-1.0, 1.0, (n, d))
        if i % 4 == 1:  # tied distances: centres on a half-integer grid
            centers = rng.integers(-2, 3, (n, d)) / 2.0
        x = rng.uniform(-1.5, 1.5, n * d)
        if i % 4 == 1:
            x = np.tile(rng.integers(-2, 3, d) / 2.0, n)
        if i % 4 == 2:  # one zero distance, and a second one after it
            j = int(rng.integers(n))
            x.reshape(n, d)[j] = centers[j]
            x.reshape(n, d)[n - 1] = centers[n - 1]
        mu = rng.uniform(1e-6, 0.4999)
        yield SupQuadraticFamily(scale * centers), mu, scale * x


def test_sup_quadratic_prox_and_value_equals_the_reference_bit_for_bit():
    for fam, mu, x in _quadratic_battery():
        want = _outcome(_ref_sup_quadratic_prox_and_value, fam, mu, x)
        got = _outcome(fam.prox_and_value, mu, x)
        assert _same(want, got), (want, got)
        if not isinstance(want[0], type):
            assert np.array_equal(fam.prox(mu, x), want[0])
            assert fam.value(want[0]) == want[1]


def test_sup_quadratic_prox_rejects_non_finite_input_as_the_reference():
    centers = np.random.default_rng(2303).uniform(-1.0, 1.0, (5, 3))
    fam = SupQuadraticFamily(centers)
    for bad in (np.nan, np.inf, -np.inf):
        for pos in (0, 7, 14):
            x = np.zeros(15)
            x[pos] = bad
            want = _outcome(_ref_sup_quadratic_prox_and_value, fam, 0.2, x)
            assert want[0] is DomainError
            assert _outcome(fam.prox_and_value, 0.2, x) == want


# ---------------------------------------------------------------------------
# simplex KKT certificate and the sup-affine prox on the simplex
# ---------------------------------------------------------------------------

def test_simplex_kkt_certificate_equals_the_reference():
    rng = np.random.default_rng(2304)
    eps = 1e-12
    for i in range(20000):
        n = int(rng.integers(1, 9))
        idx = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
        c = np.zeros(n)
        c[idx] = rng.dirichlet(np.ones(idx.size))
        if i % 5 == 1:  # off the simplex, or a negative weight
            c[idx[0]] += rng.choice([-1.0, 1.0]) * 10.0 ** -rng.integers(10, 16)
        v = rng.uniform(-1.0, 0.0, n)
        if i % 5 == 2:  # ties on the support, then a near-violator off it
            v[idx] = v[idx[0]] + rng.uniform(-1.0, 1.0, idx.size) * 10.0 ** -rng.integers(11, 14)
            v[rng.integers(n)] = v[idx].max() + rng.uniform(-2e-12, 2e-12)
        if i % 5 == 3:
            v[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        on = v[idx]
        with np.errstate(invalid="ignore"):  # inf - inf on both sides
            got = _simplex_kkt_certified(c, on, on[on.argmax()], v[v.argmax()], eps)
            assert got == _ref_simplex_kkt_certified(c, v, idx, eps)


def _affine_battery():
    rng = np.random.default_rng(2305)
    for i in range(1200):
        n, d = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        rows = rng.uniform(-1.0, 1.0, (n, d))
        offsets = rng.uniform(-1.0, 1.0, n)
        for r in range(1, n):  # degenerate families: duplicate and zero rows
            kind = rng.integers(4)
            if kind == 2:
                j = int(rng.integers(r))
                rows[r], offsets[r] = rows[j], offsets[j]
            elif kind == 3:
                rows[r] = 0.0
        if i % 6 == 5:  # collinear scenarios on a half-integer grid
            rows = np.outer(rng.integers(-4, 5, n) / 2.0, np.eye(d)[0])
            offsets = rng.integers(-4, 5, n) / 4.0
        sigma = rng.uniform(0.25, 2.0)
        mu = rng.uniform(0.05, 0.9) / (2.0 * sigma)
        x = rng.uniform(-1.0, 1.0, d)
        yield SupAffineFamily(rows * SCALES[i % len(SCALES)], offsets, sigma), mu, x, rng


def _check_against_reference(fam, mu, x, start=None):
    want = _outcome(_ref_simplex_prox, fam, mu, x, start)
    got = _outcome(fam.prox_detailed, mu, x)
    if isinstance(want[0], type):
        assert got == want
        return start
    y, c, steps, support, certified = want
    if certified:
        assert _same(got, (y, c, steps)), (got, want)
        return support
    assert isinstance(got[0], type) and got[0] is ConvergenceError
    return start


def test_simplex_prox_equals_the_reference_bit_for_bit():
    for fam, mu, x, _ in _affine_battery():
        _check_against_reference(fam, mu, x)


def test_warm_simplex_prox_equals_the_reference_bit_for_bit():
    # along a slowly moving (mu, x), each warm prox starts from the support
    # the previous one certified, in the package and in the reference alike
    for fam, mu, x, rng in _affine_battery():
        warm = SupAffineFamily(fam.a_rows, fam.offsets, fam.sigma)
        start = None
        for _ in range(8):
            mu, x = mu * rng.uniform(0.95, 1.0), x + rng.uniform(-0.05, 0.05, x.size)
            start = _check_against_reference(warm, mu, x, start)


def test_simplex_prox_near_the_float_range_equals_the_reference_bit_for_bit():
    # |A| = 1e154 puts |A|^2 just inside the float range and |a_i - a_j|^2
    # past it for rows that point apart: those edges have no closed form,
    # and both the package and the reference solve their bordered systems
    rng = np.random.default_rng(2306)
    overflowed = 0
    for _ in range(300):
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        rows = rng.uniform(-1.0, 1.0, (n, d))
        fam = SupAffineFamily(rows * (1e154 / np.linalg.norm(rows, 2)),
                              rng.uniform(-1.0, 1.0, n), 1.0)
        x = rng.uniform(-1.0, 1.0, d) * 10.0 ** rng.integers(-160, -150)
        support = _check_against_reference(fam, rng.uniform(0.05, 0.3), x)
        if support is not None and support.size == 2:
            i, j = support
            with np.errstate(over="ignore"):
                overflowed += not np.isfinite(np.sum((fam.a_rows[i] - fam.a_rows[j]) ** 2))
    assert overflowed >= 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simplex_prox_rejects_non_finite_input_as_the_reference(bad):
    fam = SupAffineFamily(np.eye(3), np.zeros(3), 1.0)
    x = np.array([0.0, bad, 1.0])
    assert _outcome(fam.prox_detailed, 0.2, x) == _outcome(_ref_simplex_prox, fam, 0.2, x)
    # finite x whose w overflows, and a prox point that overflows
    big = SupAffineFamily(np.array([[2.0 ** 400], [0.0]]), np.zeros(2), 1.0)
    assert _outcome(big.prox_detailed, 0.2, np.array([2.0 ** 700])) == _outcome(
        _ref_simplex_prox, big, 0.2, np.array([2.0 ** 700]))
    flat = SupAffineFamily(np.zeros((2, 1)), np.zeros(2), 1.0)
    want = _outcome(_ref_simplex_prox, flat, 0.25, np.array([1e308]))
    assert want[0] is DomainError
    assert _outcome(flat.prox_detailed, 0.25, np.array([1e308])) == want
    # a finite |A|^2 whose L = mu |A|^2 / s overflows
    wide = SupAffineFamily(np.array([[9e153, 0.0], [-9e153, 0.0]]), np.zeros(2), 1.0)
    want = _outcome(_ref_simplex_prox, wide, 0.45, np.zeros(2))
    assert want[0] is DomainError
    assert _outcome(wide.prox_detailed, 0.45, np.zeros(2)) == want
