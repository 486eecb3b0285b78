"""Hierarchical shrinkage for multinomial tables with many empty cells.

The model: counts follow a multinomial over m cells whose probability
vector carries a symmetric Dirichlet(a) prior; the concentration is
re-expressed through the total v = m*a, which stays interpretable as m
grows. The Dirichlet-multinomial marginal gives the likelihood in a (or
v); a hyperprior over v yields a posterior whose propriety is never
assumed, only verified. Reference analysis fixes a = 1/2 (cell posterior
weights n_i + 1/2), and the comparison table puts that, a fixed small a,
and the hierarchical treatment side by side.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import density as dens
from .density import GridDensity, _interp_within, read_density
from .errors import InputError, NumericalError
from .quadrature import (DEFAULT_TOL, QuadratureResult, _normalized_by,
                         _trapezoid_masses, integrate, mode, quantile)
from .special import _betainc, _gammaln, log_beta
from .util import thread_cap

V_GRID_LO = 1e-4
V_GRID_HI = 1e4
V_GRID_NODES = 2049


# hyperprior kind -> log density in v (spec, v array), up to a constant;
# flat-in-a is flat in v as well (the Jacobian of v = m*a is constant)
_LOG_HYPER_IN_V = {
    "pareto-v": lambda spec, v: -2.0 * np.log1p(v),
    "flat-in-a": lambda spec, v: np.zeros_like(v),
    "flat-in-log-a": lambda spec, v: -np.log(v),
    "grid-file": lambda spec, v: _interp_within(
        spec._table.nodes, spec._table.log_values, v, "grid-file hyperprior"),
}
HYPER_KINDS = tuple(_LOG_HYPER_IN_V)

# each tail of the 95 % cell intervals: (1 - 0.95) / 2 in floating point is
# 0.025000000000000022, and the printed interval endpoints carry those digits
_TAIL = (1.0 - 0.95) / 2.0
# where the cell interval is bracketed: the smallest normal double, log10 x
# at -30, -3 and -0.3, and the largest double below 1
_BRACKET_X = np.array([sys.float_info.min, 1e-30, 1e-3, 0.5, np.nextafter(1.0, 0.0), 1.0])


@dataclass(frozen=True)
class CountVector:
    """Observed multinomial counts.

    counts: per-cell nonnegative integers, at least 2 cells.
    Derived: m (cells), n (total), r0 (occupied cells).
    """

    counts: tuple

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 1 or len(arr) < 2:
            raise InputError("counts must be a vector with at least 2 cells")
        if np.any(arr != np.floor(arr)) or np.any(arr < 0):
            raise InputError("counts must be nonnegative integers")
        object.__setattr__(self, "counts", tuple(int(c) for c in arr))

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def r0(self) -> int:
        return sum(1 for c in self.counts if c > 0)


def canonical_counts(m: int, n: int, r0: int) -> CountVector:
    """The canonical count vector with totals (n, r0) on m cells.

    r0 - 1 singleton cells plus one cell holding n - r0 + 1; remaining
    cells empty. Everything downstream is permutation invariant, so the
    particular arrangement is cosmetic.
    """
    if m < 2:
        raise InputError("need at least 2 cells")
    if n < 0 or r0 < 0 or r0 > min(m, n):
        raise InputError("need 0 <= r0 <= min(m, n)")
    if n > 0 and r0 == 0:
        raise InputError("positive total requires at least one occupied cell")
    counts = [0] * m
    if n > 0:
        for i in range(r0 - 1):
            counts[i] = 1
        counts[r0 - 1] = n - r0 + 1
    return CountVector(tuple(counts))


def jeffreys_posterior(data: CountVector) -> np.ndarray:
    """Dirichlet parameters of the reference posterior: n_i + 1/2."""
    return np.asarray(data.counts, dtype=float) + 0.5


def cell_posterior_marginal(params, i: int):
    """Beta marginal (params[i], sum of the rest) of a Dirichlet posterior."""
    arr = np.asarray(params, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise InputError("params must be a vector with at least 2 entries")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise InputError("Dirichlet parameters must be finite and positive")
    if not (0 <= i < len(arr)):
        raise InputError("cell index out of range")
    return float(arr[i]), float(arr.sum() - arr[i])


def dm_log_marginal(data: CountVector, a) -> np.ndarray | float:
    """Log marginal likelihood of the counts under a symmetric Dirichlet(a).

    Equals ln[Gamma(ma)/Gamma(ma+n) * prod_i Gamma(a+n_i)/Gamma(a)].
    The multinomial coefficient is omitted: it does not depend on a, so
    posterior computations over a are unaffected. Vectorized over a.
    """
    av = np.asarray(a, dtype=float)
    if np.any(av <= 0) or not np.all(np.isfinite(av)):
        raise InputError("concentration a must be finite and positive")
    m, n = data.m, data.n
    out = _gammaln(m * av) - _gammaln(m * av + n)
    # one term per distinct occupied count, in sorted order, so the result
    # is bit-for-bit invariant under cell permutation
    log_gamma_a = _gammaln(av)
    for c in sorted(set(data.counts) - {0}):
        out = out + data.counts.count(c) * (_gammaln(av + c) - log_gamma_a)
    return float(out) if np.isscalar(a) or av.ndim == 0 else out


@dataclass(frozen=True)
class HyperPriorSpec:
    """Hyperprior over the total concentration v = m*a.

    kind: one of HYPER_KINDS, the keys of _LOG_HYPER_IN_V; "grid-file" is
        a tabulated density over v that must cover the v-grid.
    a_max: optional domain truncation; the v-grid then stops at m*a_max
        and the support is declared bounded.
    path: density file for kind "grid-file", read once, on construction.
    """

    kind: str
    a_max: float = None
    path: str = None
    _table: GridDensity = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in HYPER_KINDS:
            raise InputError(
                f"unknown hyperprior kind {self.kind!r}; choose from {HYPER_KINDS}"
            )
        if self.a_max is not None and not (self.a_max > 0):
            raise InputError("a_max must be positive when given")
        if self.kind == "grid-file":
            if not self.path:
                raise InputError("grid-file hyperprior needs a path")
            object.__setattr__(self, "_table", read_density(self.path))


def _v_grid_density(data: CountVector, hyper: HyperPriorSpec) -> GridDensity:
    """Unnormalized v-posterior kernel on the standard v-grid.

    Untruncated hyperpriors live on the open half-line (0, inf) with the
    compactifying map, so tail impropriety is detected from the fitted
    tail exponent rather than hidden by the node range. An a_max
    truncation declares a bounded support instead.
    """
    m = data.m

    def lp(v):
        return _LOG_HYPER_IN_V[hyper.kind](hyper, v) + dm_log_marginal(data, v / m)

    if hyper.a_max is not None:
        v_hi = m * hyper.a_max
        nodes = np.geomspace(V_GRID_LO, v_hi * (1.0 - 1e-10), V_GRID_NODES)
        return GridDensity(0.0, v_hi, nodes, lp(nodes))
    return dens.halfline_density(lp, scale=1.0, n=V_GRID_NODES,
                                 lo_frac=V_GRID_LO, hi_frac=V_GRID_HI)


@dataclass(frozen=True)
class VPosterior:
    """Posterior of the total concentration v.

    density: normalized when proper, the raw kernel otherwise.
    mass: quadrature result for the kernel's total mass.
    proper: the verdict; summaries exist only when True.
    summary: dict with mode, median, mean, q05, q95 (None if improper).
    """

    density: GridDensity
    mass: QuadratureResult
    proper: bool
    summary: dict = None


def v_posterior(data: CountVector, hyper: HyperPriorSpec,
                tolerance: float = DEFAULT_TOL) -> VPosterior:
    """Posterior of v given the counts under the chosen hyperprior.

    An improper posterior (diverging normalizer) is a reported finding:
    the raw kernel comes back with proper=False and no summaries.
    """
    kernel = _v_grid_density(data, hyper)
    res = integrate(kernel, tolerance)
    if res.diverged or not (res.value > 0) or not res.converged:
        note = res.detail or "mass estimate did not converge"
        return VPosterior(
            density=kernel.with_log_values(kernel.log_values,
                                           note="improper or unresolved: " + note),
            mass=res,
            proper=False,
        )
    posterior = _normalized_by(kernel, res)
    summary = {
        "mode": mode(posterior),
        "median": quantile(posterior, 0.5),
        "mean": _expectation(posterior, posterior.nodes, tolerance),
        "q05": quantile(posterior, 0.05),
        "q95": quantile(posterior, 0.95),
    }
    return VPosterior(density=posterior, mass=res, proper=True, summary=summary)


SUMMARY_COLUMNS = ("m", "n", "r0", "hyperprior", "proper",
                   "mode_v", "median_v", "mean_v", "q05_v", "q95_v")
COMPARE_COLUMNS = ("cell", "count",
                   "jeffreys_mean", "jeffreys_lo", "jeffreys_hi",
                   "conditional_mean", "conditional_lo", "conditional_hi",
                   "hierarchical_mean", "hierarchical_lo", "hierarchical_hi")


def v_summary_row(data: CountVector, hyper: HyperPriorSpec,
                  tolerance: float = DEFAULT_TOL) -> dict:
    """One summary row (keys SUMMARY_COLUMNS) for the v-posterior of the
    counts; the summaries are None when the posterior is improper."""
    vp = v_posterior(data, hyper, tolerance=tolerance)
    row = {"m": data.m, "n": data.n, "r0": data.r0,
           "hyperprior": hyper.kind, "proper": vp.proper}
    for key in ("mode", "median", "mean", "q05", "q95"):
        row[f"{key}_v"] = vp.summary[key] if vp.proper else None
    return row


def v_summary_table(configs, hyper: HyperPriorSpec,
                    tolerance: float = DEFAULT_TOL) -> list:
    """Summary rows for a sweep of (m, n, r0) configurations.

    Rows keep the input order; work is parallelized across configurations
    (util.thread_cap workers) without affecting output.
    """
    data = [canonical_counts(int(m), int(n), int(r0)) for (m, n, r0) in configs]
    with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
        return list(pool.map(lambda d: v_summary_row(d, hyper, tolerance), data))


def _beta_mean_interval(a: float, b: float):
    """Mean and central 95 % interval of Beta(a, b)."""
    lo, hi = _mixture_interval(np.ones(1), np.array([a]), np.array([b]))
    return a / (a + b), lo, hi


def _expectation(posterior: GridDensity, values, tolerance: float) -> float:
    """E[f] over a normalized posterior, given positive f at its nodes."""
    return integrate(posterior.with_log_values(posterior.log_values + np.log(values)),
                     tolerance).value


def _hier_cell_interval(data: CountVector, cell_count: int,
                        posterior: GridDensity):
    """Central 95 % interval of the mixture-of-Beta cell posterior.

    Trapezoid weights w_k of the v-posterior give the mixture CDF
    F(x) = sum_k w_k BetaCDF(x; a_k, b_k), a_k = n_i + v_k/m, b_k = n + v_k - a_k.
    """
    cell = _trapezoid_masses(posterior)
    w = np.zeros(len(posterior.nodes))
    w[:-1] += 0.5 * cell
    w[1:] += 0.5 * cell
    total = w.sum()
    if not (total > 0):
        raise NumericalError("v-posterior mass vanished on the grid")
    w = w / total
    v = posterior.nodes
    a = cell_count + v / data.m
    return _mixture_interval(w, a, data.n + v - a)


def _mixture_interval(w, a, b):
    """The _TAIL and 1 - _TAIL quantiles of sum_k w_k Beta(a_k, b_k).

    One broadcast incomplete beta over _BRACKET_X brackets both tails. Each
    is refined by Newton steps in log x with Halley's correction, from the
    closed-form mixture pdf. A step that leaves the bracket, or that is not
    shorter than half the step before last, is replaced by bisection (Brent
    1973), so Newton steps creeping over a CDF that is flat far from the
    quantile cannot stall the search. A quantile that underflows is
    reported as the smallest normal double, and one above the last double
    below 1 as 1.
    """
    log_b = log_beta(a, b)
    cdf = w @ _betainc(a[:, None], b[:, None], _BRACKET_X, log_b[:, None])

    def invert(q):
        j = int(np.searchsorted(cdf, q))
        if j == 0:
            return sys.float_info.min
        lo, hi = float(_BRACKET_X[j - 1]), float(_BRACKET_X[j])
        x = hi
        # the last two steps in log x; a bisection counts as the bracket's
        # half-width
        step = step_before = math.inf
        for _ in range(100):
            if not lo < x < hi:
                # bisect in log x; two adjacent doubles leave no midpoint
                x = math.sqrt(lo) * math.sqrt(hi)
                if not lo < x < hi:
                    return hi
                step, step_before = 0.5 * math.log(hi / lo), step
            f_x = float(w @ _betainc(a, b, x, log_b))
            lo, hi = (x, hi) if f_x < q else (lo, x)
            # x times the mixture pdf, which is dF/d(log x), and its derivative
            terms = w * np.exp(a * math.log(x) + (b - 1.0) * math.log1p(-x) - log_b)
            g, dg = float(terms.sum()), float(terms @ (a - (b - 1.0) * x / (1.0 - x)))
            # the step on h = log(F/q) below the median, where a power law
            # is linear, and on h = F - q above it
            if q < 0.5 and f_x > 0.0:
                h, h1, h2 = math.log(f_x / q), g / f_x, (dg - g * g / f_x) / f_x
            else:
                h, h1, h2 = f_x - q, g, dg
            denom = 2.0 * h1 * h1 - h * h2
            du = -2.0 * h * h1 / denom if denom > 0.0 else math.nan
            x_new = x * math.exp(min(du, 700.0))
            # Halley's step leaves an error of order du^3
            if abs(du) <= 1e-6 and lo <= x_new <= hi:
                return x_new
            if lo < x_new < hi and abs(du) <= 0.5 * step_before:
                x, step, step_before = x_new, abs(du), step
            else:
                # bisect at the top of the loop: the step left the bracket,
                # or it is not shorter than half the step before last
                x = hi
        return hi

    return invert(_TAIL), invert(1.0 - _TAIL)


def compare_priors(data: CountVector, hyper: HyperPriorSpec,
                   a_point: float = None,
                   tolerance: float = DEFAULT_TOL) -> list:
    """Cell-probability summaries under three priors, as table rows
    (keys COMPARE_COLUMNS).

    One representative occupied cell and one empty cell (when present)
    are summarized under (i) the reference posterior a = 1/2, (ii) the
    conditional posterior at the fixed a_point (default 1/m), and
    (iii) the hierarchical posterior integrating a = v/m over the
    v-posterior. Hierarchical columns are None when the v-posterior is
    improper.
    """
    if a_point is None:
        a_point = 1.0 / data.m
    if not (a_point > 0):
        raise InputError("a_point must be positive")
    counts = np.asarray(data.counts)
    cells = []
    occupied = np.nonzero(counts > 0)[0]
    empty = np.nonzero(counts == 0)[0]
    if len(occupied):
        cells.append(("observed", int(occupied[0])))
    if len(empty):
        cells.append(("unobserved", int(empty[0])))

    vp = v_posterior(data, hyper, tolerance=tolerance)
    rows = []
    for kind, idx in cells:
        c = int(counts[idx])
        jeffreys = _beta_mean_interval(
            *cell_posterior_marginal(jeffreys_posterior(data), idx))
        conditional = _beta_mean_interval(
            *cell_posterior_marginal(counts.astype(float) + a_point, idx))
        hierarchical = (None, None, None)
        if vp.proper:
            # E[(n_i + a)/(n + v)] over the v-posterior, with a = v/m
            v = vp.density.nodes
            hierarchical = (
                _expectation(vp.density, (c + v / data.m) / (data.n + v), tolerance),
                *_hier_cell_interval(data, c, vp.density))
        rows.append(dict(zip(COMPARE_COLUMNS,
                             (kind, c, *jeffreys, *conditional, *hierarchical),
                             strict=True)))
    return rows


def large_m_stability(data_template, m_values, hyper: HyperPriorSpec,
                      tolerance: float = DEFAULT_TOL) -> dict:
    """Sup-norm drift of the v-posterior as the cell count m grows.

    data_template is (n, r0); each m uses the canonical counts. All
    posteriors share the standard v-grid, so densities are compared
    node-wise. Requires m >= 10*n throughout (the sparse regime where the
    v-parameterization is the stable one).
    """
    n, r0 = int(data_template[0]), int(data_template[1])
    ms = [int(m) for m in m_values]
    if len(ms) < 2:
        raise InputError("need at least two m values to compare")
    if any(m < 10 * n for m in ms):
        raise InputError("large-m comparison requires every m >= 10*n")

    densities = []
    for m in ms:
        vp = v_posterior(canonical_counts(m, n, r0), hyper, tolerance=tolerance)
        if not vp.proper:
            raise NumericalError(
                f"v-posterior improper at m={m}; cannot compare densities"
            )
        densities.append(np.exp(vp.density.log_values))
    distances = [
        float(np.max(np.abs(densities[i + 1] - densities[i])))
        for i in range(len(densities) - 1)
    ]
    return {
        "m_values": ms,
        "distances": distances,
        "decreasing": all(
            distances[i + 1] < distances[i] for i in range(len(distances) - 1)
        ),
    }
