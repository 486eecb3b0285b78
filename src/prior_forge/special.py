"""Log-gamma, log-beta and the incomplete beta, in numpy alone.

Positive arguments only. Log-gamma and log-beta come from the standard
library's `math.lgamma`, element by element for arrays, so scalars and
arrays share one path. The private kernels at the end of the module serve
the package's own modules: the regularized incomplete beta I_x(a, b)
(DiDonato & Morris 1992, "Algorithm 708", ACM TOMS), evaluated by its
continued fraction with modified Lentz steps (Thompson & Barnett 1986) or,
for a small second shape above the swap point, by a power series, and the
inverse of the Kolmogorov distribution's upper tail.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError

# log_beta switches from the plain lgamma sum to the Stirling-series
# difference once max(a, b) reaches this; from there on the first omitted
# term of the series below is under 1.1e-16
_STIRLING_MIN = 16.0
# Stirling correction coefficients: lgamma(z) = (z - 1/2) ln z - z
# + ln(2 pi)/2 + sum_k c_k / z^(2k - 1)
_C1, _C2, _C3, _C4, _C5 = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                           1.0 / 1188.0)


# Python and numpy real scalars: float() converts each of them as
# np.asarray(x, dtype=float) does, booleans included
_REAL_SCALARS = (int, float, np.integer, np.floating, np.bool_)


def _check_positive(x, name: str):
    """x as a float when it is a scalar, else as a float array; InputError
    unless it is nonempty and every element finite and strictly positive."""
    if isinstance(x, _REAL_SCALARS):
        v = float(x)
        if not (math.isfinite(v) and v > 0.0):
            raise InputError(f"{name} must be finite and strictly positive")
        return v
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise InputError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InputError(f"{name} must be finite and strictly positive")
    return float(arr) if arr.ndim == 0 else arr


def _elementwise(fn, *arrays):
    """fn over the broadcast elements of float arrays, as a float array."""
    arrays = np.broadcast_arrays(*arrays)
    flat = (arr.ravel().tolist() for arr in arrays)
    return np.fromiter(map(fn, *flat), float, arrays[0].size).reshape(arrays[0].shape)


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Accuracy: within max(1e-12 absolute, a few ulp relative) across
    [1e-6, 1e6]. For large x the absolute scale of ln Gamma makes a pure
    absolute bound meaningless in double precision.
    """
    v = _check_positive(x, "x")
    return math.lgamma(v) if isinstance(v, float) else _gammaln(v)


def _stirling_correction(z: float) -> float:
    """lgamma(z) minus its Stirling approximation, for z >= _STIRLING_MIN."""
    inv2 = 1.0 / (z * z)
    return (_C1 + inv2 * (_C2 + inv2 * (_C3 + inv2 * (_C4 + inv2 * _C5)))) / z


def _scalar_log_beta(a: float, b: float) -> float:
    small, large = (a, b) if a < b else (b, a)
    if large < _STIRLING_MIN:
        return math.lgamma(small) + math.lgamma(large) - math.lgamma(small + large)
    # lgamma(large) - lgamma(small + large) from the Stirling series, with
    # ln(small + large) = ln(large) + log1p(small / large), so the two
    # large log-gammas never meet in a subtraction (cephes lbeta does the
    # same when one argument dwarfs the other)
    diff = (small - small * math.log(large)
            - (small + large - 0.5) * math.log1p(small / large)
            + _stirling_correction(large) - _stirling_correction(small + large))
    return math.lgamma(small) + diff


def log_beta(a, b):
    """Natural log of the beta function B(a, b) for a, b > 0.

    Symmetric in its arguments. It stays accurate, for arrays too, when one
    argument dwarfs the other: within 5e-15 relative of mpmath on a log
    grid over [1e-6, 1e6]^2, where the plain lgamma sum loses up to 1e-9.
    """
    aa = _check_positive(a, "a")
    bb = _check_positive(b, "b")
    if isinstance(aa, float) and isinstance(bb, float):
        return _scalar_log_beta(aa, bb)
    return _elementwise(_scalar_log_beta, aa, bb)


# Unvalidated array kernels for the package's own modules, which check
# their arguments themselves.

def _gammaln(x):
    return _elementwise(math.lgamma, np.asarray(x, dtype=float))


# Lentz's guard against a vanishing denominator
_LENTZ_TINY = 1e-300
# a continued fraction or series stops once a step changes it by less than this
_CONVERGED = 2.0 ** -51
# steps after which a continued fraction or series that has not converged
# raises; none of the package's arguments comes near it
_MAX_STEPS = 4000
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _betainc(a, b, x, log_b=None):
    """I_x(a, b) over the broadcast arguments, for a, b > 0 and x in [0, 1].

    log_b, when given, is log B(a, b) broadcastable with a and b, so that a
    caller evaluating one set of shapes at many x forms it once. Below its
    swap point x <= (a+1)/(a+b+2) the continued fraction gives I_x(a, b);
    above it, 1 - I_{1-x}(b, a) does, by the series of `_upper_series` when
    b <= 1, where that difference would cancel.
    """
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    shape = np.broadcast_shapes(a.shape, b.shape, x.shape)
    scalar = a.ndim == 0 and b.ndim == 0
    if log_b is None:
        log_b = _scalar_log_beta(float(a), float(b)) if scalar else log_beta(a, b)
    x = np.broadcast_to(x, shape).ravel()
    out = (x >= 1.0).astype(float)
    inner = np.nonzero((x > 0.0) & (x < 1.0))[0]
    if scalar:
        a, b, log_b = float(a), float(b), float(log_b)
    else:
        a, b, log_b = (np.broadcast_to(v, shape).ravel()[inner] for v in (a, b, log_b))
    x = x[inner]
    log_x, log_y = np.log(x), np.log1p(-x)
    with np.errstate(under="ignore"):
        pre = np.exp(_log_prefactor(a, b, x, log_x, log_y, log_b))
    swap = x > (a + 1.0) / (a + b + 2.0)
    series = swap & (b <= 1.0)
    res = np.empty(x.size)

    def pick(v, k):
        return v if scalar else v[k]

    k = np.nonzero(~swap)[0]
    if k.size:
        res[k] = pre[k] * _beta_cf(pick(a, k), pick(b, k), x[k]) / pick(a, k)
    k = np.nonzero(swap & ~series)[0]
    if k.size:
        res[k] = 1.0 - pre[k] * _beta_cf(pick(b, k), pick(a, k), 1.0 - x[k]) / pick(b, k)
    k = np.nonzero(series)[0]
    if k.size:
        res[k] = _upper_series(pick(a, k), pick(b, k), 1.0 - x[k], log_y[k])
    out[inner] = res
    return out.reshape(shape)


def _log_prefactor(a, b, x, log_x, log_y, log_b):
    """log(x^a (1-x)^b / B(a, b)) for x in (0, 1).

    When a and b are both large the three terms of the plain sum nearly
    cancel, so there the prefactor is formed around the mode x0 = a/(a+b)
    as in Algorithm 708's brcomp, from lambda = a - (a+b) x and Stirling
    corrections alone.
    """
    out = a * log_x + b * log_y - log_b
    k = np.nonzero(np.broadcast_to(np.minimum(a, b) >= _STIRLING_MIN, x.shape))[0]
    if k.size == 0:
        return out
    a, b = (np.broadcast_to(v, x.shape)[k] for v in (a, b))
    x, log_x, log_y = x[k], log_x[k], log_y[k]
    s = a + b
    lam = a - s * x
    x0, y0 = a / s, b / s
    u = _rlog1(-lam / a, log_x - np.log(x0))
    v = _rlog1(lam / b, log_y - np.log(y0))
    out[k] = (-(a * u + b * v) + 0.5 * np.log(a * y0) - _LOG_SQRT_2PI
              - (_stirling_correction(a) + _stirling_correction(b)
                 - _stirling_correction(s)))
    return out


def _rlog1(e, log1p_e):
    """e - log(1 + e), given log(1 + e) formed without e; that is used where
    |e| >= 1/2, which keeps the rounding of e out when 1 + e is small."""
    out = e - log1p_e
    small = np.abs(e) < 0.5
    out[small] = e[small] - np.log1p(e[small])
    return out


def _beta_cf(p, q, x):
    """The continued fraction of I_x(p, q) x^-p (1-x)^-q p B(p, q).

    Modified Lentz steps, with the classic even and odd coefficients (see
    Numerical Recipes' betacf), run in place on the elements that have not
    converged. Lentz's D and 1/C obey the same map s -> 1/(1 + a s), so one
    (2, n) array steps both. The coefficients are formed four steps at a
    time, and convergence is checked after each four. p and q are floats or
    arrays shaped like x.
    """
    per_element = np.ndim(p) > 0
    p, q = np.asarray(p, dtype=float)[..., None], np.asarray(q, dtype=float)[..., None]
    idx = np.arange(x.size)
    out = np.empty(x.size)
    # rows D and 1/C, with C = 1 to start
    dc = np.ones((2, x.size))
    dc[0] -= (p + q)[..., 0] * x / (p[..., 0] + 1.0)
    _lentz_guard(dc)
    np.reciprocal(dc, out=dc)
    h = dc[0].copy()
    coef = np.empty(x.size)
    for first in range(1, _MAX_STEPS + 1, 4):
        m = np.arange(first, first + 4.0)
        p_2m = p + 2.0 * m
        even = m * (q - m) / ((p_2m - 1.0) * p_2m)
        odd = -(p + m) * (p + q + m) / (p_2m * (p_2m + 1.0))
        for k in range(4):
            for num in (even[..., k], odd[..., k]):
                np.multiply(num, x, out=coef)
                dc *= coef
                dc += 1.0
                _lentz_guard(dc)
                np.reciprocal(dc, out=dc)
                h *= dc[0]
                h /= dc[1]
        done = np.abs(dc[0] / dc[1] - 1.0) <= _CONVERGED
        if done.any():
            out[idx[done]] = h[done]
            live = ~done
            if not live.any():
                return out
            idx, x, dc, h, coef = idx[live], x[live], dc[:, live], h[live], coef[live]
            if per_element:
                p, q = p[live], q[live]
    raise NumericalError("incomplete beta continued fraction did not converge")


def _lentz_guard(v):
    """Lentz's guard: a denominator within _LENTZ_TINY of zero becomes
    _LENTZ_TINY (tested by a reduction first, as it almost never fires)."""
    if np.abs(v).min() < _LENTZ_TINY:
        v[np.abs(v) < _LENTZ_TINY] = _LENTZ_TINY


def _upper_series(a, b, y, log_y):
    """1 - I_y(b, a) for b <= 1 and y below the swap point of I_y(b, a).

    I_y(b, a) = P (1 + S), with P = y^b / (b B(a, b)) and
    S = b sum_{j>=1} (1-a)_j / j! y^j / (b + j), both 1 - O(b); so the
    difference is -expm1(log P) - P S, with log(b B(a, b)) formed from
    log-gamma differences that keep their accuracy as b tends to 0.
    """
    per_element = np.ndim(a) > 0
    log_p = b * log_y + _log_gamma_ratio(a, b) - _log_gamma_ratio(1.0, b)
    idx = np.arange(y.size)
    s = np.empty(y.size)
    term, total = np.ones(y.size), np.zeros(y.size)
    for j in range(1, _MAX_STEPS + 1):
        term *= (j - a) / j * y
        step = term * (b / (b + j))
        total += step
        if j % 4:
            continue
        done = np.abs(step) <= _CONVERGED * np.abs(total)
        if done.any():
            s[idx[done]] = total[done]
            live = ~done
            if not live.any():
                return -np.expm1(log_p) - np.exp(log_p) * s
            idx, term, total, y = idx[live], term[live], total[live], y[live]
            if per_element:
                a, b = a[live], b[live]
    raise NumericalError("incomplete beta series did not converge")


def _log_gamma_ratio(a, b):
    """lgamma(a + b) - lgamma(a) for b <= 1, accurate relative to its size.

    a is raised to _STIRLING_MIN by the recurrence Gamma(a+1) = a Gamma(a),
    each step a log1p; there the Stirling series' leading terms cancel in
    closed form.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b))
    acc = np.zeros(a.shape)
    for _ in range(int(_STIRLING_MIN)):
        low = a < _STIRLING_MIN
        if not low.any():
            break
        acc -= np.where(low, np.log1p(b / a), 0.0)
        a += low
    return (acc + (a - 0.5) * np.log1p(b / a) + b * (np.log(a + b) - 1.0)
            + _stirling_correction(a + b) - _stirling_correction(a))


def _kolmogi(p: float) -> float:
    """x with Q(x) = p, where Q(x) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2)
    is the Kolmogorov distribution's upper tail; for p <= 0.1 the first
    five terms hold Q to double precision. Newton steps from the first
    term's inverse, until a step no longer moves x."""
    x = math.sqrt(-0.5 * math.log(0.5 * p))
    for _ in range(20):
        terms = [(-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 6)]
        q = 2.0 * sum(terms)
        dq = -8.0 * x * sum(k * k * t for k, t in zip(range(1, 6), terms))
        step = (q - p) / dq
        if x - step == x:
            break
        x -= step
    return x
