"""Composite quadrature over grid densities, with endpoint tail handling.

The integrator works in the density's compactified variable t. Interior
cells use piecewise cubic interpolation (4-point stencils). Near each
declared endpoint it switches to a local power-law treatment: the
leading exponent p of the integrand is fitted from the innermost nodes,
the fitted power law is integrated in closed form and the cubic rule
only sees the remainder, and the remaining sliver between the grid
offset and the true endpoint is extrapolated. Integrable singularities
(p > -1) converge; exponents at or below -0.999 are reported as
divergence at either endpoint. At the lower endpoint only, so are
truncated partial integrals that keep growing as the window doubles
toward it (the truncation ladder), judged on the three windows nearest
it; the upper endpoint is guarded by the exponent fit alone.

Error estimates combine Richardson comparison against a half-resolution
pass (fourth-order rule: |I - I_half| / 8, region-aligned so the two
passes share cap boundaries) with explicit extension-sensitivity terms.
`converged` means the estimate is within the requested tolerance relative
to the integral's magnitude.

Everything above that depends on the grid alone is a QuadratureRule: the
cap extents, each cap's distances from its endpoint with their logs taken
relative to the innermost one, the three ladder windows the test reads,
and the weights of every pass. The cubic weights come in closed
form per cell and are summed to node weights. The two passes of each
region (the bulk, each cap) are the rows of one weight matrix over its
nodes, the half row zero between its nodes, so they are one product with
the values of the integrand, which integrate exponentiates once. The
first integrate over a density stores the rule in the density's rule
slot; with_log_values passes the slot on, so every posterior, blend,
pool and perturbation derived from one grid reuses its rule, and the
default builders share one slot per layout. A density built from nodes
or by dataclasses.replace has a slot of its own and builds its rule on
first use; equal nodes give a rule with the same bits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .density import GridDensity
from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-8

# cap cells: wider than this times their distance from the endpoint, or
# nearer to it than this share of the span (see _cap_extent)
_CAP_WIDE = 0.1
_CAP_NEAR = 0.05


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


def _cell_weights(x):
    """Weights of the piecewise cubic rule on nodes x, shape (4, ncell).

    Cell i integrates the cubic through nodes s_i .. s_i + 3 with
    s_i = clip(i - 1, 0, len(x) - 4), so the stencil is clamped at the
    array ends; row j weights node s_i + j. In cell-scaled coordinates
    z = (x - x_i) / h_i, the weight of a stencil node z_j is the integral
    over [0, 1] of its Lagrange basis polynomial,
    (1/4 - e1/3 + e2/2 - e3) / prod_k (z_j - z_k), with e1, e2, e3 the
    elementary symmetric sums of the other three nodes. Fewer than 4
    nodes give trapezoid weights, shape (2, ncell), with s_i = i.
    """
    h = np.diff(x)
    if len(x) < 4:
        return np.stack([0.5 * h, 0.5 * h])
    s = _stencil_starts(len(h), 4)
    z = [(x[s + j] - x[:-1]) / h for j in range(4)]
    w = np.empty((4, len(h)))
    for j in range(4):
        a, b, c = (z[k] for k in range(4) if k != j)
        e1 = a + b + c
        e2 = a * b + a * c + b * c
        e3 = a * b * c
        w[j] = (0.25 - e1 / 3.0 + e2 / 2.0 - e3) \
            / ((z[j] - a) * (z[j] - b) * (z[j] - c)) * h
    return w


def _stencil_starts(ncell, width):
    """First stencil node of each cell: i - 1 clamped to [0, ncell - 3] for
    the cubic rule, i for the trapezoid rule."""
    if width == 2:
        return np.arange(ncell)
    s = np.arange(-1, ncell - 1)
    s[0], s[-1] = 0, ncell - 3
    return s


def _window_weights(w, bounds):
    """Node weights of the cell windows [bounds[k], bounds[k+1]).

    w holds cell weights from _cell_weights. Returns (nodes, weights,
    starts): window k integrates values g to
    sum(weights[starts[k]:starts[k+1]] * g[nodes[starts[k]:starts[k+1]]]),
    its nodes being the consecutive run its cells' stencils touch.
    """
    width, ncell = w.shape
    bounds = np.asarray(bounds)
    lo, hi = bounds[0], bounds[-1]
    s = _stencil_starts(ncell, width)
    first = s[bounds[:-1]]
    size = s[bounds[1:] - 1] + width - first
    starts = np.concatenate([[0], np.cumsum(size)[:-1]])
    # position of each (stencil slot, cell) pair in the flattened windows
    shift = np.repeat(starts - first, np.diff(bounds))
    pos = (s[lo:hi] + shift) + np.arange(width)[:, None]
    total = int(size.sum())
    weights = np.bincount(pos.ravel(), weights=w[:, lo:hi].ravel(), minlength=total)
    nodes = np.repeat(first - starts, size) + np.arange(total)
    return nodes, weights, starts


def _node_weights(x):
    """Node weights of the cubic rule over every cell of nodes x."""
    return _window_weights(_cell_weights(x), [0, len(x) - 1])[1]


def _decimate_idx(m):
    """Indices keeping both endpoints and roughly every second node."""
    idx = np.arange(0, m, 2)
    if idx[-1] != m - 1:
        idx = np.append(idx, m - 1)
    return idx


def _cap_extent(d, span, max_cells):
    """Number of cells near an endpoint that need power-law treatment.

    d holds the node distances from the endpoint, increasing away from
    it. A cell belongs to the cap while it is wide relative to its
    distance from the endpoint (geometric refinement zone) or simply
    close to the endpoint; the cap is the leading run of such cells, at
    most max_cells long, so the bulk keeps enough nodes.
    """
    if d[0] <= 0:
        return 0
    lead = d[:max_cells + 1]
    in_cap = (np.diff(lead) > _CAP_WIDE * lead[:-1]) | (lead[1:] < _CAP_NEAR * span)
    return int(np.argmin(in_cap)) if not in_cap.all() else len(in_cap)


def _pass_weights(x, w_full, half):
    """Both passes' weights at nodes x, shape (2, len(x)): w_full, then the
    half-resolution pass through x[half], zero between its nodes."""
    w = np.zeros((2, len(x)))
    w[0], w[1, half] = w_full, _node_weights(x[half])
    return w


@dataclass(frozen=True)
class _Cap:
    """The nodes of one endpoint cap and the weights of both its passes.

    side: "lower" or "upper", the endpoint the cap sits at.
    sel: the slice of the grid's values that holds the cap's nodes, in
        order of increasing distance from its endpoint.
    d: node distances from the endpoint, increasing, d[0] > 0.
    log_rel: log(d) - log(d[0]), the only form of the logs _cap_integral reads.
    w: pass weights at d (see _pass_weights).
    fit: d[0] and log_rel at 1, 2 (1 on a two-node cap) and -1, as floats.
    """

    side: str
    sel: slice
    d: np.ndarray
    log_rel: np.ndarray
    w: np.ndarray
    fit: tuple

    @classmethod
    def build(cls, side, d):
        d = np.array(d)  # not a view that would keep the whole grid alive
        log_d = np.log(d)
        rel = log_d - log_d[0]
        m = len(d)
        return cls(side, slice(None, m) if side == "lower" else slice(-1, -m - 1, -1),
                   d, rel, _pass_weights(d, _node_weights(d), _decimate_idx(m)),
                   (float(d[0]), *rel[[1, min(2, m - 1), -1]].tolist()))

    def passes(self, g):
        """[full, half-resolution] integrals of values g at the cap nodes:
        einsum's own loop, not BLAS, whose bits can change with its thread
        count."""
        return np.einsum("ij,j->i", self.w, g).tolist()


@dataclass(frozen=True)
class QuadratureRule:
    """Everything integrate needs that depends on the grid alone.

    Built once per node set from (t_nodes, t_lo, t_hi) and kept in the
    rule slot every density on that node set shares.

    w_all: node weights of the full pass over every cell.
    bulk / w_bulk: the slice of nodes the stencils of the bulk cells
        (between the caps) touch, and the pass weights there.
    lower / upper: the endpoint caps (None when empty).
    caps: the caps that are not empty, lower first.
    ladder_lo: (nodes, weights, starts) of the three truncation-ladder
        windows nearest an offset lower endpoint, the only ones its test
        reads (see _window_weights); None with fewer than four windows.
    """

    w_all: np.ndarray
    bulk: slice
    w_bulk: np.ndarray
    lower: _Cap
    upper: _Cap
    caps: tuple
    ladder_lo: tuple

    @classmethod
    def build(cls, t, t_lo, t_hi):
        n = len(t)
        ncell = n - 1
        d_lo = t - t_lo
        d_hi = (t_hi - t)[::-1]
        # each cap has at most (ncell - 8) // 2 cells, so the bulk keeps 8
        max_cells = max((ncell - 8) // 2, 0)
        m_lo = _cap_extent(d_lo, t_hi - t_lo, max_cells)
        m_hi = _cap_extent(d_hi, t_hi - t_lo, max_cells)
        w = _cell_weights(t)
        bulk_nodes, w_bulk, _ = _window_weights(w, [m_lo, ncell - m_hi])
        bulk = slice(int(bulk_nodes[0]), int(bulk_nodes[-1]) + 1)
        # the half pass's nodes m_lo .. n - 1 - m_hi lie in that slice
        half = m_lo - bulk.start + _decimate_idx(n - m_hi - m_lo)
        ladder = _ladder_bounds(d_lo, d_lo[-1] / 8)
        lower = _Cap.build("lower", d_lo[: m_lo + 1]) if m_lo > 0 else None
        upper = _Cap.build("upper", d_hi[: m_hi + 1]) if m_hi > 0 else None
        return cls(
            w_all=_window_weights(w, [0, ncell])[1],
            bulk=bulk,
            w_bulk=_pass_weights(t[bulk], w_bulk, half),
            lower=lower,
            upper=upper,
            caps=tuple(cap for cap in (lower, upper) if cap is not None),
            ladder_lo=_window_weights(w, ladder[:4]) if len(ladder) > 4 else None,
        )


def _ladder_bounds(d, reach):
    """Window bounds of the truncation ladder: for each k >= 1 with
    d[0] * 2**k < reach, the first node at least that far from the
    endpoint, without repeats (d: node distances from it, increasing).
    The bounds come out sorted, so repeats are adjacent; np.unique would
    drop them too, but it imports numpy.ma, ~15 ms of a `pool` call."""
    if d[0] <= 0:
        return np.zeros(0, dtype=int)
    targets = d[0] * 2.0 ** np.arange(1, 60)
    bounds = np.searchsorted(d, targets[targets < reach])
    return bounds[np.diff(bounds, prepend=-1) != 0]


def _rule(density: GridDensity) -> QuadratureRule:
    """The density's quadrature rule, built into its shared slot on first
    use. Two threads may both fill a slot; the rules are equal, so either
    may stay."""
    slot = density._rule_slot
    if slot.rule is None:
        slot.rule = QuadratureRule.build(slot.t_nodes, slot.t_lo, slot.t_hi)
    return slot.rule


def _cap_integral(cap, logg, g, tol, scale):
    """Integral over [0, d[-1]] from samples at the cap's distances d from
    an endpoint.

    d is increasing with d[0] > 0 (the grid offset); logg holds max-shifted
    log integrand values and g their exp. Returns (value, err, diverged,
    detail). The fitted leading exponent p routes between three regimes:
    divergence (p <= -0.999 with non-negligible projected mass), steep
    interior growth (plain cubic, rectangle extension), and the general
    model-subtraction path: the power law A*d^p through the two innermost
    nodes is integrated in closed form over [0, d_max] and the cubic rule
    only sees the remainder, which vanishes at the fit nodes and carries
    an extra power of d, so the geometric cells resolve it to near
    machine level. Two innermost nodes whose distances share one log give
    no fit: like a zero innermost node, they take the plain cubic with a
    rectangle extension, and detail says so.
    """
    d0, rel1, rel2, rel_end = cap.fit
    lead = logg[:3].tolist()
    l0, l1 = lead[0], lead[1]
    ext = float(g[0]) * d0  # rectangle over the sliver [0, d0]
    # the plain cubic over the cap takes both passes of g and the
    # Richardson error abs(v - v2) / 8
    if not (math.isfinite(l0) and math.isfinite(l1)) or rel1 == 0.0:
        v, v2 = cap.passes(g)
        note = "" if rel1 else "innermost distances share one log, so no exponent fit: " \
            "plain cubic with rectangle extension"
        return v + ext, abs(v - v2) / 8.0 + ext, False, note
    p = (l1 - l0) / rel1
    if p <= -0.999:
        proj = ext * 50.0
        if proj > 10.0 * tol * scale:
            return 0.0, 0.0, True, f"endpoint exponent {max(p, -1e9):.3f} <= -0.999"
        v, v2 = cap.passes(g)
        return v, abs(v - v2) / 8.0 + proj, False, ""
    if p > 6.0 or p * rel_end > 40.0:
        # steep growth away from the endpoint: the sliver below d[0] is
        # negligible and the power-law model would span too many decades
        # for stable subtraction
        v, v2 = cap.passes(g)
        return v + ext / (p + 1.0), abs(v - v2) / 8.0 + ext / (p + 1.0), False, ""

    # remainder after subtracting the fitted power law, computed stably:
    # r = g - exp(lmodel) = -g * expm1(lmodel - logg) where both are finite
    # (a finite node whose g underflows keeps that form); at a zero node,
    # where that product is -0.0, r = -exp(lmodel)
    lmodel = l0 + p * cap.log_rel
    r = -g * np.expm1(np.minimum(lmodel - logg, 700.0))
    zero = logg == -math.inf
    r[zero] = -np.exp(lmodel[zero])
    model_total = math.exp(l0 + (p + 1.0) * rel_end) * d0 / (p + 1.0)
    rem, rem2 = cap.passes(r)
    v = model_total + rem
    err = abs(rem - rem2) / 8.0
    if len(lead) == 3:
        # remainder mass in the sliver [0, d0]: the remainder vanishes at
        # the two fit nodes, so the third node sets its local magnitude
        err += abs(float(r[2])) * d0
        # extension sensitivity: refit the exponent from the first and
        # third nodes; slowly varying non-power tails make the two sliver
        # extrapolations disagree, and that must surface in the error bound
        if math.isfinite(lead[2]):
            p_alt = (lead[2] - l0) / rel2
            if -0.999 < p_alt:
                err += abs(ext / (p + 1.0) - ext / (p_alt + 1.0))
    return v, err, False, ""


def _diverged(detail) -> QuadratureResult:
    return QuadratureResult(value=math.inf, abs_error_estimate=math.inf,
                            converged=False, diverged=True,
                            log_value=math.inf, detail=detail)


def integrate(density: GridDensity, tolerance: float = DEFAULT_TOL) -> QuadratureResult:
    """Integrate a grid density over its declared support.

    The tolerance is relative: converged means the internal error estimate
    is within tolerance times the integral's magnitude. Divergence at a
    support endpoint yields value = +inf with diverged = True rather than
    an exception.

    The integrand is the log values plus the log Jacobian, shifted by its
    max M; an identity map adds no Jacobian, and M is then the max the
    density keeps from checking its values.
    """
    if not (0 < tolerance < 1):
        raise InputError("tolerance must be in (0, 1)")
    slot = density._rule_slot
    rule = slot.rule or _rule(density)
    lv = density.log_values
    notes = []
    if slot.unit_jacobian:
        logg, M = lv, density._max
    else:
        logg = lv + density.log_jacobian
        M = float(np.maximum.reduce(logg))
        if not M < math.inf:  # +inf/NaN at a node mapped onto t_lo or t_hi: a zero
            at_end = ~(logg < math.inf)
            notes.append(f"{int(at_end.sum())} node(s) mapped onto an endpoint counted as zero")
            logg = np.where(at_end, -math.inf, logg)
            M = float(np.maximum.reduce(logg))
    if M == -math.inf:
        return QuadratureResult(value=0.0, abs_error_estimate=0.0, converged=True,
                                diverged=False, log_value=-math.inf,
                                detail="zero integrand")
    lg = np.subtract(logg, M, out=None if logg is lv else logg)  # never lv in place
    g = np.exp(lg)  # exp(-inf) = 0 marks the zeros

    # bulk first: its magnitude anchors the divergence significance scale;
    # einsum's own loop, not BLAS, whose bits can change with its thread count
    val, bulk2 = np.einsum("ij,j->i", rule.w_bulk, g[rule.bulk]).tolist()
    err = abs(val - bulk2) / 8.0
    scale = max(abs(val), 1e-300)
    for cap in rule.caps:
        v, e, dv, de = _cap_integral(cap, lg[cap.sel], g[cap.sel], tolerance, scale)
        if dv:
            return _diverged(f"{cap.side} {de}")
        if de:
            notes.append(f"{cap.side} {de}")
        val += v
        err += e

    if rule.ladder_lo is not None:
        # truncation ladder: the masses of the three doubling windows
        # nearest the offset lower endpoint; increments that stay
        # significant and shrink toward it no faster than ratio 0.9995 (the
        # rate the -0.999 exponent cutoff allows) mean non-integrable mass.
        # The upper endpoint has no ladder: the cap's exponent fit guards it.
        nodes, weights, starts = rule.ladder_lo
        near, mid, far = np.add.reduceat(weights * g[nodes], starts).tolist()
        if min(near, mid, far) > 10.0 * tolerance * scale \
                and mid >= 0.9995 * far and near >= 0.9995 * mid:
            return _diverged("lower tail contributions not stabilizing")

    logvalue = math.log(val) + M if val > 0 else -math.inf
    if M > 709.0:
        with np.errstate(over="ignore"):
            e_M = float(np.exp(M))  # inf from M ~ 709.78 on
    else:
        e_M = float(np.exp(M))
    return QuadratureResult(val * e_M, err * e_M,
                            bool(err <= tolerance * max(abs(val), 1e-300)),
                            False, logvalue, "; ".join(notes))


def normalize(density: GridDensity, tolerance: float = DEFAULT_TOL) -> GridDensity:
    """Rescale a density to unit mass.

    Idempotent: an already-normalized density is returned unchanged.
    Non-integrable input raises NumericalError. When the mass estimate did
    not meet the tolerance the density is still rescaled by the best
    estimate and the achieved accuracy is recorded in the note.
    """
    if density.normalized:
        return density
    return _normalized_by(density, integrate(density, tolerance))


def _normalized_by(density: GridDensity, res: QuadratureResult) -> GridDensity:
    """normalize() given the density's integral `res` already in hand."""
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


def signed_integral_table(density: GridDensity, values) -> float:
    """Integral of a signed integrand tabulated at a density's nodes.

    `values` is the integrand in the compactified variable. Piecewise
    cubic over the cells, under the density's quadrature rule, plus
    rectangle extensions across the endpoint offsets. Used for integrands
    that change sign, where the log-space power-law machinery does not
    apply; no error estimate is formed.
    """
    t = density.t_nodes
    values = np.asarray(values, dtype=float)
    ext = 0.0
    if t[0] > density.t_lo:
        ext += values[0] * (t[0] - density.t_lo)
    if t[-1] < density.t_hi:
        ext += values[-1] * (density.t_hi - t[-1])
    return float(np.sum(_rule(density).w_all * values)) + ext
