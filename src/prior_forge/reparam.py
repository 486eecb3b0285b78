"""Constructions of random probability vectors and their equivalences.

Two routes to a symmetric Dirichlet: direct gamma normalization (whose
law is free of the gamma scale) and, for ordered cells, stick-breaking
with Beta(1/2, 1/2) sticks, whose cell means halve at each step. The
report types here quantify both claims from samples so the checks carry
explicit statistical error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .special import _betainc, _kolmogi
from .streams import RandomStream
from .util import median


def _stick_break_rows(xi: np.ndarray) -> np.ndarray:
    """Probability vectors from rows of stick fractions in (0, 1).

    theta_1 = xi_1, theta_k = xi_k * prod_{j<k} (1 - xi_j), and the last
    component is the remaining stick, computed by subtraction (clamped at
    zero against rounding).
    """
    count, mm1 = xi.shape
    remaining = np.subtract(1.0, xi)
    np.cumprod(remaining, axis=1, out=remaining)
    theta = np.empty((count, mm1 + 1))
    theta[:, 0] = xi[:, 0]
    np.multiply(xi[:, 1:], remaining[:, :-1], out=theta[:, 1:mm1])
    theta[:, mm1] = np.maximum(0.0, 1.0 - theta[:, :mm1].sum(axis=1))
    return theta


def _gamma_rows(rng: np.random.Generator, shape, size, scale: float):
    """Rows of independent Gamma(shape, scale) draws, and the row sums.

    A row divided by its sum is a Dirichlet(shape) vector. The scale
    multiplies the standard draws explicitly, so it cancels up to rounding.
    """
    g = rng.standard_gamma(shape, size=size)
    g *= scale
    return g, g.sum(axis=1)


@dataclass(frozen=True)
class MarginalCheck:
    """Agreement of one sampled coordinate with its Beta(a, (m-1)a) law.

    The field order is the column order of the poisson-equiv table.
    """

    beta_scale: float
    sample_mean: float
    analytic_mean: float
    mean_tolerance: float
    mean_ok: bool
    sample_var: float
    analytic_var: float
    var_tolerance: float
    var_ok: bool
    ks_statistic: float
    ks_critical: float
    ks_ok: bool


@dataclass(frozen=True)
class EquivalenceReport:
    """Scale invariance of normalized gamma vectors, with error bars.

    checks: per-scale marginal comparisons (independent streams).
    exact_invariance_sup: sup-norm difference of vectors built from one
        shared stream across all scales; zero up to rounding.
    """

    a: float
    m: int
    count: int
    checks: tuple
    exact_invariance_sup: float
    all_ok: bool


def _beta_var(a: float, b: float) -> float:
    return a * b / ((a + b) ** 2 * (a + b + 1.0))


def _beta_central_moment4(a: float, b: float) -> float:
    """Fourth central moment of Beta(a, b) via the excess-kurtosis formula."""
    s = a + b
    var = _beta_var(a, b)
    kurt_excess = (6.0 * ((a - b) ** 2 * (s + 1.0) - a * b * (s + 2.0))
                   / (a * b * (s + 2.0) * (s + 3.0)))
    return (kurt_excess + 3.0) * var ** 2


# the KS search brackets the sorted sample in blocks of this many points
_KS_BLOCK = 64
# a block is evaluated in full when its bound comes this close to the best
# value found; it covers the CDF kernel's ulp-level departures from
# monotonicity next to its swap point
_KS_SLACK = 1e-9


def _ks_statistic(a: float, b: float, coord: np.ndarray) -> float:
    """sup |F_n - F| of the sorted sample coord against F = I_x(a, b).

    Equal to max(F(c_i) - i/n, (i+1)/n - F(c_i)) over all i, bit for bit,
    without evaluating F at every point. F is first evaluated at both ends
    of each block of _KS_BLOCK sorted points, s and e. As F is monotone,
    F(c_e) - s/n bounds the first term over the block and (e+1)/n - F(c_s)
    the second, so F is evaluated at every point of a block only when its
    bound reaches the best end value less _KS_SLACK. `_betainc` stops
    each element on its own convergence test, so a point's value does not
    depend on which other points are evaluated with it. NaN points (rows
    whose gammas all underflowed) sort last, where F(NaN) = 0 puts the
    largest possible value, 1, at the last block end.
    """
    n = coord.size

    def largest(idx, cdf):
        return max(np.max(cdf - idx / n), np.max((idx + 1) / n - cdf))

    first = np.arange(0, n, _KS_BLOCK)
    last = np.minimum(first + _KS_BLOCK, n) - 1
    ends = np.concatenate((first, last))
    f_ends = _betainc(a, b, coord[ends])
    best = largest(ends, f_ends)
    f_first, f_last = np.split(f_ends, 2)
    bound = np.maximum(f_last - first / n, (last + 1) / n - f_first)
    # empty only when NaN points already put 1 into best
    full = np.nonzero(np.repeat(bound >= best - _KS_SLACK, last - first + 1))[0]
    if full.size:
        best = max(best, largest(full, _betainc(a, b, coord[full])))
    return float(best)


def dirichlet_equivalence_report(a: float, m: int, count: int, betas,
                                 stream: RandomStream) -> EquivalenceReport:
    """Check that normalized gamma vectors follow the symmetric Dirichlet
    law regardless of the gamma scale.

    For each scale (on its own substream) the first coordinate is tested
    against Beta(a, (m-1)a): mean and variance within 4 standard errors,
    and a Kolmogorov-Smirnov distance under the 1% critical value. That
    distance comes from monotone bounds over blocks of sorted points
    (`_ks_statistic`): bit-identical to evaluating the CDF at every point,
    it evaluates it at a fraction of them. A separate pass reuses one
    substream across all scales and reports the sup-norm difference of the
    resulting vectors, which exposes the exact algebraic invariance.
    """
    scales = [float(b) for b in betas]
    if len(scales) == 0 or any(b <= 0 for b in scales):
        raise InputError("betas must be positive scale factors")
    if count < 2:
        raise InputError("count must be at least 2")
    alpha_rest = (m - 1) * a
    an_mean = a / (a + alpha_rest)
    an_var = _beta_var(a, alpha_rest)
    mu4 = _beta_central_moment4(a, alpha_rest)
    se_mean = math.sqrt(an_var / count)
    se_var = math.sqrt(
        max(mu4 - an_var ** 2 * (count - 3) / (count - 1), 0.0) / count
    )
    ks_crit = _kolmogi(0.01) / math.sqrt(count)

    checks = []
    for j, b in enumerate(scales):
        # the first coordinate of each normalized row, and nothing else
        g, totals = _gamma_rows(stream.substream(j), a, (count, m), b)
        coord = np.sort(g[:, 0] / totals)
        del g
        smean = float(coord.mean())
        svar = float(coord.var(ddof=1))
        ks = _ks_statistic(a, alpha_rest, coord)
        checks.append(MarginalCheck(
            beta_scale=b,
            sample_mean=smean,
            sample_var=svar,
            analytic_mean=an_mean,
            analytic_var=an_var,
            mean_tolerance=4.0 * se_mean,
            var_tolerance=4.0 * se_var,
            mean_ok=abs(smean - an_mean) <= 4.0 * se_mean,
            var_ok=abs(svar - an_var) <= 4.0 * se_var,
            ks_statistic=ks,
            ks_critical=ks_crit,
            ks_ok=ks < ks_crit,
        ))

    shared, totals = _gamma_rows(stream.substream(len(scales)), a, (count, m), 1.0)
    base = shared / totals[:, None]
    theta_b, row_sums = np.empty_like(shared), np.empty((count, 1))
    sup = 0.0
    for b in scales:
        np.multiply(shared, b, out=theta_b)
        np.sum(theta_b, axis=1, keepdims=True, out=row_sums)
        np.divide(theta_b, row_sums, out=theta_b)
        np.subtract(theta_b, base, out=theta_b)
        np.abs(theta_b, out=theta_b)
        sup = max(sup, float(theta_b.max()))

    all_ok = all(c.mean_ok and c.var_ok and c.ks_ok for c in checks)
    return EquivalenceReport(
        a=a, m=m, count=count,
        checks=tuple(checks),
        exact_invariance_sup=sup,
        all_ok=all_ok,
    )


@dataclass(frozen=True)
class OrderedCellRow:
    """One cell of the ordered stick-breaking diagnostics table."""

    k: int
    analytic_mean: float
    empirical_mean: float
    empirical_median: float


@dataclass(frozen=True)
class OrderedDiagnostics:
    """Sampling diagnostics for the ordered stick-breaking prior.

    rows: per-cell means and medians with the analytic overlay
        E[theta_k] = 2^-k (last cell 2^-(m-1)).
    k_star: first index whose empirical mean drops below 1/m; reported,
        not analytically resolved.
    """

    m: int
    count: int
    rows: tuple
    k_star: int
    mean_sum: float


def ordered_prior_diagnostics(m: int, count: int,
                              stream: RandomStream) -> OrderedDiagnostics:
    """Sample the ordered prior built from Beta(1/2, 1/2) stick fractions.

    Cell means halve with the index under this construction; the table
    pairs empirical means and medians with that overlay and reports where
    the means cross the uniform level 1/m.
    """
    if m < 2:
        raise InputError("need at least 2 cells")
    if count <= 0:
        raise InputError("count must be positive")
    rng = stream.generator()
    xi = rng.beta(0.5, 0.5, size=(count, m - 1))
    # beta() can return exact 0.0 or 1.0 in rare underflow corners; nudge
    # into the open interval so the stick construction stays valid
    np.clip(xi, np.finfo(float).tiny, 1.0 - 2.2e-16, out=xi)
    theta = _stick_break_rows(xi)
    del xi
    means = theta.mean(axis=0)
    medians = median(theta, axis=0)
    analytic = np.array([2.0 ** -(k + 1) for k in range(m - 1)] + [2.0 ** -(m - 1)])
    rows = tuple(
        OrderedCellRow(
            k=k + 1,
            analytic_mean=float(analytic[k]),
            empirical_mean=float(means[k]),
            empirical_median=float(medians[k]),
        )
        for k in range(m)
    )
    below = np.nonzero(means < 1.0 / m)[0]
    k_star = int(below[0]) + 1 if len(below) else m + 1
    return OrderedDiagnostics(
        m=m, count=count, rows=rows, k_star=k_star,
        mean_sum=float(means.sum()),
    )
