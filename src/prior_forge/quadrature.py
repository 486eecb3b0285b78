"""Composite quadrature over grid densities, with endpoint tail handling.

The integrator works in the density's compactified variable t. Interior
cells use piecewise cubic interpolation (batched 4-point stencils). Near
each declared endpoint it switches to a local power-law treatment: the
leading exponent p of the integrand is fitted from the innermost nodes,
the cap is integrated under the substitution tau = (d/d_max)^(p+1) which
linearizes the leading behavior, and the remaining sliver between the grid
offset and the true endpoint is extrapolated. Integrable singularities
(p > -1) converge; exponents at or below -0.999, or truncated partial
integrals that keep growing as the window doubles toward an endpoint, are
reported as divergence.

Error estimates combine Richardson comparison against a half-resolution
pass (fourth-order rule: |I - I_half| / 8, region-aligned so the two
passes share cap boundaries) with explicit extension-sensitivity terms.
`converged` means the estimate is within the requested tolerance relative
to the integral's magnitude.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .density import GridDensity
from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a definite integral over a grid density.

    value: the integral; +inf when diverged.
    abs_error_estimate: absolute error bound estimate; +inf when diverged.
    converged: estimate within the requested tolerance (relative).
    diverged: the integral was classified as non-integrable. Mutually
        exclusive with converged.
    log_value: log of the value when positive (useful when the value
        overflows or underflows double precision).
    detail: human-readable annotation, set on divergence and edge cases.
    """

    value: float
    abs_error_estimate: float
    converged: bool
    diverged: bool
    log_value: float = math.nan
    detail: str = ""


def _cubic_cells(t, g):
    """Per-cell integrals of a piecewise cubic through consecutive nodes.

    Cell i integrates the cubic through nodes (i-1 .. i+2), clamped at the
    array ends; falls back to trapezoid when fewer than 4 nodes exist.
    Stencils are solved in cell-scaled coordinates for conditioning.
    """
    n = len(t)
    if n < 4:
        return 0.5 * (g[1:] + g[:-1]) * np.diff(t)
    ncell = n - 1
    s = np.clip(np.arange(ncell) - 1, 0, n - 4)
    idx = s[:, None] + np.arange(4)[None, :]
    a = t[:-1]
    h = np.diff(t)
    xl = (t[idx] - a[:, None]) / h[:, None]
    p = np.arange(4)
    vander = xl[:, None, :] ** p[None, :, None]
    rhs = np.broadcast_to((1.0 / (p + 1))[:, None], (ncell, 4, 1)).copy()
    w = np.linalg.solve(vander, rhs)[..., 0] * h[:, None]
    return np.sum(w * g[idx], axis=1)


def _decimate_idx(m):
    """Indices keeping both endpoints and roughly every second node."""
    idx = np.arange(0, m, 2)
    if idx[-1] != m - 1:
        idx = np.append(idx, m - 1)
    return idx


def _cap_extent(t, t_lo, t_hi, side, wide_ratio=0.1, frac=0.05, max_cells=None):
    """Number of cells near an endpoint that need power-law treatment.

    A cell belongs to the cap while it is wide relative to its distance
    from the endpoint (geometric refinement zone) or simply close to the
    endpoint. Caps are limited so the bulk keeps enough nodes.
    """
    n = len(t)
    if max_cells is None:
        max_cells = max((n - 1 - 8) // 2, 0)
    span = t_hi - t_lo
    m = 0
    if side == "lower":
        if t[0] - t_lo <= 0:
            return 0
        d = t - t_lo
        while m < max_cells and (d[m + 1] - d[m] > wide_ratio * d[m]
                                 or d[m + 1] < frac * span):
            m += 1
    else:
        if t_hi - t[-1] <= 0:
            return 0
        d = t_hi - t
        while m < max_cells and (d[n - 2 - m] - d[n - 1 - m] > wide_ratio * d[n - 1 - m]
                                 or d[n - 2 - m] < frac * span):
            m += 1
    return m


def _cap_integral(d, logg, tol, scale):
    """Integral over [0, d[-1]] from samples at distances d from an endpoint.

    d is increasing with d[0] > 0 (the grid offset); logg holds max-shifted
    log integrand values. Returns (value, err, diverged, detail). The
    fitted leading exponent p routes between three regimes: divergence
    (p <= -0.999 with non-negligible projected mass), steep interior
    growth (plain cubic, rectangle extension), and the general
    model-subtraction path: the power law A*d^p through the two innermost
    nodes is integrated in closed form over [0, d_max] and the cubic rule
    only sees the remainder, which vanishes at the fit nodes and carries
    an extra power of d, so the geometric cells resolve it to near
    machine level.
    """
    g = np.where(np.isfinite(logg), np.exp(logg), 0.0)

    def plain():
        v = float(np.sum(_cubic_cells(d, g)))
        di = _decimate_idx(len(d))
        v2 = float(np.sum(_cubic_cells(d[di], g[di])))
        return v, abs(v - v2) / 8.0

    if not np.isfinite(logg[0]) or not np.isfinite(logg[1]):
        v, e = plain()
        return v + g[0] * d[0], e + g[0] * d[0], False, ""
    lend = np.log(d)
    p = (logg[1] - logg[0]) / (lend[1] - lend[0])
    if p <= -0.999:
        proj = g[0] * d[0] * 50.0
        if proj > 10.0 * tol * scale:
            return 0.0, 0.0, True, f"endpoint exponent {max(p, -1e9):.3f} <= -0.999"
        v, e = plain()
        return v, e + proj, False, ""
    if p > 6.0 or p * (lend[-1] - lend[0]) > 40.0:
        # steep growth away from the endpoint: the sliver below d[0] is
        # negligible and the power-law model would span too many decades
        # for stable subtraction
        ext = g[0] * d[0] / (p + 1.0)
        v, e = plain()
        return v + ext, e + ext, False, ""

    # remainder after subtracting the fitted power law, computed stably:
    # r = g - exp(lmodel) = -g * expm1(lmodel - logg) where both are finite
    lmodel = logg[0] + p * (lend - lend[0])
    with np.errstate(invalid="ignore", over="ignore"):
        r = np.where(
            np.isfinite(logg),
            -g * np.expm1(np.minimum(lmodel - logg, 700.0)),
            -np.exp(lmodel),
        )
    model_total = math.exp(logg[0] + (p + 1.0) * (lend[-1] - lend[0])) \
        * d[0] / (p + 1.0)
    rem = float(np.sum(_cubic_cells(d, r)))
    di = _decimate_idx(len(d))
    rem2 = float(np.sum(_cubic_cells(d[di], r[di])))
    v = model_total + rem
    err = abs(rem - rem2) / 8.0
    # remainder mass in the sliver [0, d0]: the remainder vanishes at the
    # two fit nodes, so the third node sets its local magnitude
    if len(d) >= 3:
        err += abs(r[2]) * d[0]
    # extension sensitivity: refit the exponent from the first and third
    # nodes; slowly varying non-power tails make the two sliver
    # extrapolations disagree, and that must surface in the error bound
    if len(d) >= 3 and np.isfinite(logg[2]):
        p_alt = (logg[2] - logg[0]) / (lend[2] - lend[0])
        if -0.999 < p_alt:
            ext_a = g[0] * d[0] / (p + 1.0)
            ext_b = g[0] * d[0] / (p_alt + 1.0)
            err += abs(ext_a - ext_b)
    return v, err, False, ""


def _integrate_table(t, logg, t_lo, t_hi, tol):
    """Core integration routine on the compactified variable."""
    finite = np.isfinite(logg)
    if not finite.any():
        return dict(value=0.0, logvalue=-math.inf, err=0.0, converged=True,
                    diverged=False, detail="zero integrand")
    M = float(np.max(logg[finite]))
    lg = np.where(finite, logg - M, -np.inf)
    g = np.where(finite, np.exp(lg), 0.0)

    n = len(t)
    ncell = n - 1
    m_lo = _cap_extent(t, t_lo, t_hi, "lower")
    m_hi = _cap_extent(t, t_lo, t_hi, "upper")
    while (ncell - m_lo - m_hi) < 8 and (m_lo > 0 or m_hi > 0):
        if m_lo >= m_hi:
            m_lo -= 1
        else:
            m_hi -= 1

    # bulk first: its magnitude anchors the divergence significance scale
    cells = _cubic_cells(t, g)
    bulk = float(np.sum(cells[m_lo: ncell - m_hi]))
    tb = t[m_lo: n - m_hi]
    gb = g[m_lo: n - m_hi]
    di = _decimate_idx(len(tb))
    bulk2 = float(np.sum(_cubic_cells(tb[di], gb[di])))
    err = abs(bulk - bulk2) / 8.0
    scale = max(abs(bulk), 1e-300)

    val = bulk
    diverged = False
    detail = ""
    if m_lo > 0:
        v, e, dv, de = _cap_integral(t[: m_lo + 1] - t_lo, lg[: m_lo + 1], tol, scale)
        if dv:
            diverged, detail = True, "lower " + de
        else:
            val += v
            err += e
    if m_hi > 0 and not diverged:
        v, e, dv, de = _cap_integral((t_hi - t[ncell - m_hi:])[::-1],
                                     lg[ncell - m_hi:][::-1], tol, scale)
        if dv:
            diverged, detail = True, "upper " + de
        else:
            val += v
            err += e

    if not diverged:
        # truncation ladder: partial integrals over doubling windows
        # anchored at each offset endpoint; toward-endpoint increments that
        # stay significant and shrink no faster than ratio 0.9995 (the rate
        # the -0.999 exponent cutoff allows) mean non-integrable mass
        csum = np.concatenate([[0.0], np.cumsum(cells)])
        for side in ("lower", "upper"):
            off = (t[0] - t_lo) if side == "lower" else (t_hi - t[-1])
            if off <= 0:
                continue
            targets = off * 2.0 ** np.arange(1, 60)
            if side == "lower":
                d = t - t_lo
                targets = targets[targets < (t[-1] - t_lo) / 8]
                ii = np.unique(np.searchsorted(d, targets))
                vals = csum[-1] - csum[ii]
                inc = (vals[:-1] - vals[1:])[::-1]
            else:
                dd = (t_hi - t)[::-1]
                targets = targets[targets < (t_hi - t[0]) / 8]
                jj = np.unique(np.searchsorted(dd, targets))
                ii = len(t) - 1 - jj
                vals = csum[ii + 1]
                inc = (vals[1:] - vals[:-1])[::-1]
            if len(inc) >= 4:
                last = inc[-3:]
                if np.all(last > 10.0 * tol * scale) and np.all(last[1:] >= 0.9995 * last[:-1]):
                    diverged = True
                    detail = f"{side} tail contributions not stabilizing"
                    break

    if diverged:
        return dict(value=math.inf, logvalue=math.inf, err=math.inf,
                    converged=False, diverged=True, detail=detail)
    logvalue = math.log(val) + M if val > 0 else -math.inf
    with np.errstate(over="ignore"):
        value = float(val * np.exp(M))
        err_abs = float(err * np.exp(M))
    converged = err <= tol * max(abs(val), 1e-300)
    return dict(value=value, logvalue=logvalue, err=err_abs,
                converged=converged, diverged=False, detail=detail)


def integrate(density: GridDensity, tolerance: float = DEFAULT_TOL) -> QuadratureResult:
    """Integrate a grid density over its declared support.

    The tolerance is relative: converged means the internal error estimate
    is within tolerance times the integral's magnitude. Divergence at a
    support endpoint yields value = +inf with diverged = True rather than
    an exception.
    """
    if not (0 < tolerance < 1):
        raise InputError("tolerance must be in (0, 1)")
    logg = density.log_values + density.log_jacobian
    out = _integrate_table(density.t_nodes, logg, density.t_lo, density.t_hi,
                           tolerance)
    return QuadratureResult(
        value=out["value"],
        abs_error_estimate=out["err"],
        converged=out["converged"],
        diverged=out["diverged"],
        log_value=out.get("logvalue", math.nan),
        detail=out["detail"],
    )


def normalize(density: GridDensity, tolerance: float = DEFAULT_TOL) -> GridDensity:
    """Rescale a density to unit mass.

    Idempotent: an already-normalized density is returned unchanged.
    Non-integrable input raises NumericalError. When the mass estimate did
    not meet the tolerance the density is still rescaled by the best
    estimate and the achieved accuracy is recorded in the note.
    """
    if density.normalized:
        return density
    res = integrate(density, tolerance)
    if res.diverged:
        raise NumericalError(
            f"density is not normalizable: {res.detail or 'integral diverges'}"
        )
    if not math.isfinite(res.log_value):
        raise NumericalError("density has zero mass; cannot normalize")
    note = density.note
    if not res.converged:
        rel = res.abs_error_estimate / abs(res.value)
        note = (note + "; " if note else "") + \
            f"normalization certified to {rel:.1e} relative accuracy only"
    return density.shifted(-res.log_value, normalized=True, note=note)


def _trapezoid_masses(density: GridDensity) -> np.ndarray:
    """Trapezoid mass of each cell between consecutive x-nodes."""
    with np.errstate(over="ignore"):
        g = np.where(np.isfinite(density.log_values),
                     np.exp(density.log_values), 0.0)
    if not np.all(np.isfinite(g)):
        raise NumericalError("density values overflow; cannot form trapezoid masses")
    return 0.5 * (g[1:] + g[:-1]) * np.diff(density.nodes)


def _trapezoid_cdf(density: GridDensity):
    """Cumulative trapezoid masses over the x-nodes, renormalized to 1."""
    cdf = np.concatenate([[0.0], np.cumsum(_trapezoid_masses(density))])
    total = cdf[-1]
    if not (total > 0 and math.isfinite(total)):
        raise NumericalError("density mass is zero or non-finite on the grid")
    return cdf / total


def quantile(density: GridDensity, p: float) -> float:
    """Invert the trapezoid CDF at probability p.

    Requires a normalized density. Linear interpolation within the
    bracketing cell; the error is bounded by the local grid spacing.
    """
    if not density.normalized:
        raise InputError("quantile requires a normalized density")
    if not (0.0 <= p <= 1.0):
        raise InputError("p must lie in [0, 1]")
    cdf = _trapezoid_cdf(density)
    x = density.nodes
    if p <= 0.0:
        return float(x[0])
    if p >= 1.0:
        return float(x[-1])
    i = int(np.searchsorted(cdf, p, side="left"))
    i = min(max(i, 1), len(cdf) - 1)
    c0, c1 = cdf[i - 1], cdf[i]
    if c1 <= c0:
        return float(x[i - 1])
    frac = (p - c0) / (c1 - c0)
    return float(x[i - 1] + frac * (x[i] - x[i - 1]))


def cdf_at(density: GridDensity, x: float) -> float:
    """Trapezoid CDF of a normalized density at abscissa x."""
    if not density.normalized:
        raise InputError("cdf_at requires a normalized density")
    cdf = _trapezoid_cdf(density)
    nodes = density.nodes
    if x <= nodes[0]:
        return 0.0
    if x >= nodes[-1]:
        return 1.0
    i = bisect_right(nodes, x)
    frac = (x - nodes[i - 1]) / (nodes[i] - nodes[i - 1])
    return float(cdf[i - 1] + frac * (cdf[i] - cdf[i - 1]))


def mode(density: GridDensity) -> float:
    """Location of the density's maximum.

    Grid argmax refined by a quadratic fit through the three neighboring
    nodes in log space (non-uniform spacing handled). Ties break toward
    the smallest abscissa; an argmax at the first or last node is returned
    as that node without refinement.
    """
    lv = density.log_values
    x = density.nodes
    i = int(np.argmax(lv))
    if i == 0 or i == len(x) - 1:
        return float(x[i])
    y0, y1, y2 = lv[i - 1], lv[i], lv[i + 1]
    if not (np.isfinite(y0) and np.isfinite(y1) and np.isfinite(y2)):
        return float(x[i])
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    a = (d2 - d1) / (x2 - x0)
    if a >= 0:
        return float(x[i])
    xstar = 0.5 * (x0 + x1) - d1 / (2.0 * a)
    return float(min(max(xstar, x0), x2))


def signed_integral_table(t, values, t_lo, t_hi):
    """Integral of a signed integrand tabulated on the compactified grid.

    Piecewise cubic over the cells plus rectangle extensions across the
    endpoint offsets. Returns (value, error_estimate); the extensions are
    charged to the error in full. Used for integrands that change sign,
    where the log-space power-law machinery does not apply.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    core = float(np.sum(_cubic_cells(t, values)))
    di = _decimate_idx(len(t))
    core2 = float(np.sum(_cubic_cells(t[di], values[di])))
    ext = 0.0
    if t[0] > t_lo:
        ext += values[0] * (t[0] - t_lo)
    if t[-1] < t_hi:
        ext += values[-1] * (t_hi - t[-1])
    err = abs(core - core2) / 8.0 + abs(ext)
    return core + ext, err
