"""Closed-form references the benchmark checks prior_forge against.

Nothing here calls prior_forge. Log-gamma and log-beta come from the
standard library; the only scipy use is the regularized incomplete beta
function, to check interval endpoints that the package computes with its
inverse.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import betainc

SQRT2PI = math.sqrt(2.0 * math.pi)


def lbeta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def rel_err(got, want) -> float:
    if got is None or not math.isfinite(got):
        return math.inf
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# interpolation inequality (criterion 01 families)
#
# Each returns (lhs, mu_mass, nu_mass): the mass of the geometric blend
# mu^alpha nu^(1-alpha) times the likelihood, and the two posterior masses.
# The pooled posterior of pooled_propriety is the same blend, and its bound
# is mu_mass^alpha nu_mass^(1-alpha).


def gauss_masses(b1, b2, alpha, x):
    """exp(b*theta) priors on the real line, one unit-variance normal datum."""
    def mass(b):
        return SQRT2PI * math.exp(b * x + b * b / 2.0)
    return mass(alpha * b1 + (1.0 - alpha) * b2), mass(b1), mass(b2)


def beta_binomial_masses(a1, b1, a2, b2, alpha, k, n):
    """Normalized Beta priors, binomial kernel theta^k (1-theta)^(n-k)."""
    a_s = alpha * a1 + (1.0 - alpha) * a2
    b_s = alpha * b1 + (1.0 - alpha) * b2
    norm = alpha * lbeta(a1, b1) + (1.0 - alpha) * lbeta(a2, b2)
    lhs = math.exp(lbeta(a_s + k, b_s + n - k) - norm)
    mu = math.exp(lbeta(a1 + k, b1 + n - k) - lbeta(a1, b1))
    nu = math.exp(lbeta(a2 + k, b2 + n - k) - lbeta(a2, b2))
    return lhs, mu, nu


def gamma_poisson_masses(s1, r1, s2, r2, alpha, total, n_obs):
    """Gamma kernels v^(s-1) e^(-r v), Poisson kernel v^T e^(-N v):
    mass Gamma(s+T) / (r+N)^(s+T)."""
    def mass(s, r):
        return math.exp(math.lgamma(s + total) - (s + total) * math.log(r + n_obs))
    return (mass(alpha * s1 + (1.0 - alpha) * s2, alpha * r1 + (1.0 - alpha) * r2),
            mass(s1, r1), mass(s2, r2))


# ---------------------------------------------------------------------------
# pooling


def pooled_beta(alphas, params):
    """The geometric pool of Beta(a_i, b_i) with weights alphas is
    Beta(1 + sum alpha_i (a_i - 1), 1 + sum alpha_i (b_i - 1))."""
    a = 1.0 + sum(w * (p[0] - 1.0) for w, p in zip(alphas, params))
    b = 1.0 + sum(w * (p[1] - 1.0) for w, p in zip(alphas, params))
    return a, b


def beta_logpdf(x, a, b):
    x = np.asarray(x, dtype=float)
    return (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - lbeta(a, b)


def logpdf_sup_error(nodes, log_values, a, b) -> float:
    want = beta_logpdf(nodes, a, b)
    got = np.asarray(log_values, dtype=float)
    finite = np.isfinite(want)
    if not np.array_equal(finite, np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got[finite] - want[finite])))


# ---------------------------------------------------------------------------
# sparse multinomial

# endpoint exponents of the hyperprior density in v: (at 0, at infinity)
HYPER_EXPONENTS = {"pareto-v": (0.0, -2.0), "flat-in-log-a": (-1.0, -1.0),
                   "flat-in-a": (0.0, 0.0)}


def v_posterior_proper(kind: str, r0: int) -> bool:
    """Endpoint-exponent rule for the v-posterior.

    The Dirichlet-multinomial marginal behaves like v^(r0-1) as v -> 0 and
    tends to m^(-n) > 0 as v -> infinity, so the posterior is proper
    exactly when the hyperprior's exponent at infinity is below -1 and its
    exponent at 0 plus r0 - 1 is above -1.
    """
    at0, at_inf = HYPER_EXPONENTS[kind]
    return at_inf < -1.0 and at0 + r0 - 1 > -1.0


def v_posterior_mean_finite(kind: str) -> bool:
    """E[v] needs the posterior tail, the hyperprior's exponent, plus 1 to
    stay below -1."""
    return HYPER_EXPONENTS[kind][1] + 1.0 < -1.0


def beta_interval_ok(a, b, lo, hi, level=0.95, tol=1e-12) -> bool:
    """lo and hi are the central `level` quantiles of Beta(a, b).

    Each endpoint must put the CDF within tol of its tail probability. A
    lower quantile that underflows (the CDF at the smallest subnormal
    already exceeds the tail) may come back as any value up to the
    smallest normal double, which is within 1e-12 of it.
    """
    tail = (1.0 - level) / 2.0
    if lo <= sys.float_info.min:
        lo_ok = betainc(a, b, 5e-324) >= tail
    else:
        lo_ok = abs(betainc(a, b, lo) - tail) <= tol
    return bool(lo_ok and abs(betainc(a, b, hi) - (1.0 - tail)) <= tol and lo < hi)


def cell_beta_params(count: int, n: int, m: int) -> dict:
    """Beta marginals of one cell holding `count` of n observations on m
    cells: under the reference prior a = 1/2 and under a = 1/m."""
    return {"jeffreys": (count + 0.5, n + m / 2.0 - count - 0.5),
            "conditional": (count + 1.0 / m, n + 1.0 - count - 1.0 / m)}


def interval_consistent(lo, mean, hi, level=0.95) -> bool:
    """What a central `level` interval of a law on [0, 1] must satisfy with
    its mean.

    lo < mean < hi is not a theorem: a posterior with most of its mass
    piled at 0 can have its mean above the upper quantile. What does hold
    is 0 <= lo <= hi <= 1 and, since the mass beyond each endpoint is
    nonnegative, mean >= (1 - tail) * lo and mean >= tail * hi.
    """
    tail = (1.0 - level) / 2.0
    return (0.0 <= lo <= hi <= 1.0 and 0.0 < mean < 1.0
            and mean >= (1.0 - tail) * lo and mean >= tail * hi)


# ---------------------------------------------------------------------------
# sampling constructions


def dirichlet_coordinate(a: float, m: int):
    """Mean and variance of one coordinate of a symmetric Dirichlet(a) on m
    cells, the Beta(a, (m-1)a) law."""
    b = (m - 1) * a
    s = a + b
    return a / s, a * b / (s * s * (s + 1.0))


def stick_breaking_moments(m: int):
    """Means and variances of the cells of the ordered prior built from
    Beta(1/2, 1/2) sticks: E[xi] = 1/2 and E[xi^2] = 3/8, so cell k < m
    has mean 2^-k and second moment (3/8)^k; the last cell, the leftover
    stick, has mean 2^-(m-1) and second moment (3/8)^(m-1)."""
    means, variances = [], []
    for k in range(1, m + 1):
        j = min(k, m - 1)
        mean, second = 0.5 ** j, 0.375 ** j
        means.append(mean)
        variances.append(second - mean * mean)
    return means, variances
