"""Grid-backed one-dimensional densities.

A GridDensity stores log-density values on a strictly increasing abscissa
grid together with the declared support. Unbounded supports carry a smooth
compactifying map (half-line: s = (x-lo)/(c+x-lo); real line: arctangent)
so that tail mass can be integrated and tail divergence detected from the
node pattern near the mapped endpoints. Bounded supports use the identity
map.

Densities are immutable; transforms (with_log_values, shifted) return new
instances sharing the grid and its slot: the quadrature rule (see
quadrature.QuadratureRule) and the log basis read by the Beta and gamma
families and the count likelihoods; so do the default builders' densities
with equal layouts, whose grid is built once. dataclasses.replace builds a
density with a slot of its own. Each instance also carries a private memo,
empty at construction and never shared, in which the propriety module
keeps results that depend only on the density's values (see propriety).
The `normalized` flag certifies unit mass under this package's quadrature
(see quadrature.normalize).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError
from .special import log_beta, log_gamma
from .util import fmt_value, median, sorted_quantile, write_text_atomic

MIN_NODES = 16

# relative offset used when default grids avoid declared endpoint
# singularities on bounded intervals
EDGE_OFFSET = 1e-10
# geometric cells in each edge zone of a bounded grid, and the zone's share
# of the span
EDGE_CELLS = 384
EDGE_ZONE_FRAC = 1.0 / 32.0


class _NodeBasis:
    """Nodes x with log x and log(1-x), each taken on first use and kept
    read-only."""

    def __init__(self, x):
        self.x = x

    @cached_property
    def log_x(self):
        return _read_only(np.log(self.x))

    @cached_property
    def log1m_x(self):
        return _read_only(np.log1p(-self.x))


class _RuleSlot(_NodeBasis):
    """What one node set shares: its log basis and its quadrature rule, each
    filled on first use, and whether log dx/dt is zero at every node. Two
    threads may both fill a slot; the values are equal, so either may stay.

    A slot is made with each density built from nodes and shared by every
    density derived from it through with_log_values (see quadrature._rule).
    """

    def __init__(self, x, t_nodes, t_lo, t_hi, log_jacobian):
        super().__init__(x)
        self.t_nodes, self.t_lo, self.t_hi = t_nodes, t_lo, t_hi
        self.unit_jacobian, self.rule = not log_jacobian.any(), None


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridDensity:
    """Log-density tabulated on a grid over a declared support.

    domain_lo / domain_hi: support endpoints; -inf / +inf allowed.
    nodes: strictly increasing abscissae inside the open support.
    log_values: log density at the nodes; -inf marks zeros, +inf and NaN
        are rejected.
    normalized: True when the density integrates to 1 under the package
        quadrature (within the tolerance normalize() was called with).
    t_nodes / t_lo / t_hi / log_jacobian: the compactified integration
        variable, its endpoint values, and log dx/dt at the nodes.
    note: free-form annotation (e.g. impropriety warnings from pooling).

    The constructor makes the quadrature rule slot, which with_log_values
    and shifted carry along; dataclasses.replace makes a fresh one. The
    memo dict starts empty in the constructor, with_log_values, shifted
    and dataclasses.replace alike.
    """

    domain_lo: float
    domain_hi: float
    nodes: np.ndarray
    log_values: np.ndarray
    normalized: bool = False
    t_nodes: np.ndarray = None
    t_lo: float = math.nan
    t_hi: float = math.nan
    log_jacobian: np.ndarray = None
    note: str = ""
    _rule_slot: _RuleSlot = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        lv = np.asarray(self.log_values, dtype=float)
        if nodes.ndim != 1 or lv.ndim != 1 or len(nodes) != len(lv):
            raise InputError("nodes and log_values must be 1-D arrays of equal length")
        if len(nodes) < MIN_NODES:
            raise InputError(f"grid needs at least {MIN_NODES} nodes, got {len(nodes)}")
        if not np.all(np.isfinite(nodes)):
            raise InputError("grid nodes must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise InputError("grid nodes must be strictly increasing")
        _check_log_values(lv)
        lo, hi = float(self.domain_lo), float(self.domain_hi)
        if not lo < hi:
            raise InputError("domain_lo must be less than domain_hi")
        if nodes[0] < lo or nodes[-1] > hi:
            raise InputError("grid nodes must lie inside the declared domain")
        object.__setattr__(self, "domain_lo", lo)
        object.__setattr__(self, "domain_hi", hi)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "log_values", lv)
        if self.t_nodes is None:
            t, t_lo, t_hi, logjac = _derive_map(nodes, lo, hi)
            object.__setattr__(self, "t_nodes", t)
            object.__setattr__(self, "t_lo", t_lo)
            object.__setattr__(self, "t_hi", t_hi)
            object.__setattr__(self, "log_jacobian", logjac)
        else:
            t = np.asarray(self.t_nodes, dtype=float)
            logjac = np.asarray(self.log_jacobian, dtype=float)
            if len(t) != len(nodes) or len(logjac) != len(nodes):
                raise InputError("map arrays must match the grid length")
            if np.any(np.diff(t) <= 0):
                raise InputError("map abscissae must be strictly increasing")
            if not (self.t_lo <= t[0] and t[-1] <= self.t_hi):
                raise InputError("map abscissae must lie inside [t_lo, t_hi]")
            object.__setattr__(self, "t_nodes", t)
            object.__setattr__(self, "log_jacobian", logjac)
        for arr in (self.nodes, self.log_values, self.t_nodes, self.log_jacobian):
            arr.setflags(write=False)
        object.__setattr__(self, "_rule_slot", _RuleSlot(
            self.nodes, self.t_nodes, self.t_lo, self.t_hi, logjac))
        object.__setattr__(self, "_memo", {})

    def __getstate__(self):
        # the memo may hold weak references, which do not pickle
        return dict(self.__dict__, _memo={})

    def __setstate__(self, state):
        # unpickled arrays come back writeable, the slot's as well
        self.__dict__.update(state)
        for arr in (self.log_values, self.log_jacobian, *vars(self._rule_slot).values()):
            if isinstance(arr, np.ndarray):  # the slot holds nodes and t_nodes
                arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def same_grid(self, other: "GridDensity") -> bool:
        """True when both densities share domain and abscissae exactly."""
        return (
            self.domain_lo == other.domain_lo
            and self.domain_hi == other.domain_hi
            and (self.nodes is other.nodes or np.array_equal(self.nodes, other.nodes))
            and (self.t_nodes is other.t_nodes
                 or np.array_equal(self.t_nodes, other.t_nodes))
        )

    def with_log_values(self, log_values, *, normalized=False, note="") -> "GridDensity":
        """New density on the same grid and map with replaced log values.

        Only the new log values are checked: the grid, its map and the rule
        slot are this density's, already validated and write-protected.
        """
        lv = np.asarray(log_values, dtype=float)
        if lv.ndim != 1 or len(lv) != len(self.nodes):
            raise InputError("nodes and log_values must be 1-D arrays of equal length")
        _check_log_values(lv)
        lv.setflags(write=False)
        derived = object.__new__(GridDensity)
        derived.__dict__.update(self.__dict__, log_values=lv, normalized=normalized,
                                note=note, _memo={})
        return derived

    def shifted(self, offset: float, *, normalized=False, note="") -> "GridDensity":
        """New density with a constant added to the log values."""
        return self.with_log_values(
            self.log_values + float(offset), normalized=normalized, note=note
        )


def _check_log_values(lv):
    if not lv.max() < np.inf:  # false at NaN as well; lv is never empty
        raise InputError("log_values must not contain NaN or +inf")


def _derive_map(nodes, lo, hi):
    """Compactifying map for a node set over the declared domain.

    Bounded domains use the identity. Half-lines map onto (0, 1) via
    s = y/(c+y) with y the distance from the finite endpoint and c a
    characteristic scale taken from the nodes. The real line maps through
    a scaled arctangent.
    """
    if math.isfinite(lo) and math.isfinite(hi):
        return nodes, lo, hi, np.zeros_like(nodes)
    if math.isfinite(lo) and hi == math.inf:
        s, logjac = _halfline_map(nodes - lo, float(median(nodes - lo)))
        return s, 0.0, 1.0, logjac
    if lo == -math.inf and math.isfinite(hi):
        s, logjac = _halfline_map(hi - nodes, float(median(hi - nodes)))
        return -s, -1.0, 0.0, logjac
    if lo == -math.inf and hi == math.inf:
        center = float(median(nodes))
        q1, q3 = sorted_quantile(nodes, 0.25), sorted_quantile(nodes, 0.75)
        c = max((q3 - q1) / 2.0, 1e-6)
        u = np.arctan((nodes - center) / c) / math.pi + 0.5
        return u, 0.0, 1.0, _arctan_log_jacobian(u, c)
    raise InputError("unsupported domain specification")


def _halfline_map(y, c):
    """s = y/(c+y) for distances y from the finite endpoint, and log dy/ds."""
    s = y / (c + y)
    return s, math.log(c) - 2.0 * np.log1p(-s)


def _arctan_log_jacobian(u, c):
    """log dx/du for x = center + c*tan(pi*(u - 1/2))."""
    return math.log(c * math.pi) - 2.0 * np.log(np.cos(math.pi * (u - 0.5)))


# ---------------------------------------------------------------------------
# default grid layouts


def bounded_nodes(lo: float, hi: float, n: int = 4097) -> np.ndarray:
    """Default abscissae for a bounded support.

    Uniform core plus EDGE_CELLS geometrically refined cells over the
    outer EDGE_ZONE_FRAC of each side, reaching down to an offset of
    EDGE_OFFSET times the span. The refinement keeps endpoint-singular
    kernels (Beta with parameters below 1) integrable to tight tolerance;
    smooth densities are unaffected.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InputError("bounded_nodes requires finite lo < hi")
    if n < MIN_NODES:
        raise InputError(f"need at least {MIN_NODES} nodes")
    span = hi - lo
    off = EDGE_OFFSET * span
    n_core = n - 2 * EDGE_CELLS
    if n_core < 8:
        raise InputError("node budget too small for the edge refinement")
    zone = EDGE_ZONE_FRAC * span
    core = np.linspace(lo + zone, hi - zone, n_core)
    left = np.geomspace(off, zone, EDGE_CELLS + 1)[:-1]
    return np.concatenate([lo + left, core, hi - left[::-1]])


# Template densities, one per recent layout key. Equal keys must give bit-equal
# grids, and lru_cache counts -0.0 and 0.0 as one key: endpoints fold to 0.0.
@lru_cache(maxsize=8)
def _bounded_grid(lo, hi, n) -> GridDensity:
    x = bounded_nodes(lo, hi, n)
    return GridDensity(lo, hi, x, np.zeros_like(x))


@lru_cache(maxsize=8)
def _halfline_grid(scale, n, lo_frac, hi_frac, shift) -> GridDensity:
    y = np.geomspace(lo_frac * scale, hi_frac * scale, n)
    s, logjac = _halfline_map(y, scale)
    return GridDensity(shift, math.inf, shift + y, np.zeros_like(y),
                       t_nodes=s, t_lo=0.0, t_hi=1.0, log_jacobian=logjac)


@lru_cache(maxsize=8)
def _realline_grid(center, scale, n) -> GridDensity:
    u = np.linspace(1e-10, 1.0 - 1e-10, n)
    x = center + scale * np.tan(math.pi * (u - 0.5))
    return GridDensity(-math.inf, math.inf, x, np.zeros_like(x), t_nodes=u,
                       t_lo=0.0, t_hi=1.0, log_jacobian=_arctan_log_jacobian(u, scale))


def halfline_density(log_pdf, scale: float = 1.0, n: int = 4097, *,
                     lo_frac: float = 1e-10, hi_frac: float = 1e4,
                     shift: float = 0.0, normalized: bool = False) -> GridDensity:
    """Density on (shift, inf) tabulated from a log-pdf callable.

    Nodes are log-spaced over [lo_frac, hi_frac] times `scale` (a
    characteristic scale of the density, e.g. the gamma scale parameter).
    The default 4097 nodes give the log-resolution the quadrature needs
    for gamma-type kernels at 1e-8 relative accuracy.
    """
    if scale <= 0:
        raise InputError("scale must be positive")
    grid = _halfline_grid(float(scale), operator.index(n), float(lo_frac),
                          float(hi_frac), float(shift) + 0.0)
    return grid.with_log_values(log_pdf(grid.nodes), normalized=normalized)


def realline_density(log_pdf, center: float = 0.0, scale: float = 4.0,
                     n: int = 2049, *, normalized: bool = False) -> GridDensity:
    """Density on the whole real line tabulated from a log-pdf callable.

    Nodes come from a uniform grid in the arctangent variable
    u = atan((x-center)/scale)/pi + 1/2, offset by 1e-10 from both ends.
    """
    if scale <= 0:
        raise InputError("scale must be positive")
    grid = _realline_grid(float(center), float(scale), operator.index(n))
    return grid.with_log_values(log_pdf(grid.nodes), normalized=normalized)


def bounded_density(log_pdf, lo: float, hi: float, n: int = 4097, *,
                    normalized: bool = False) -> GridDensity:
    """Density on a bounded support tabulated from a log-pdf callable."""
    grid = _bounded_grid(float(lo) + 0.0, float(hi) + 0.0, operator.index(n))
    return grid.with_log_values(log_pdf(grid.nodes), normalized=normalized)


# ---------------------------------------------------------------------------
# standard kernels


def _check_support(lo: float, hi: float) -> None:
    """Reject a support that no default grid covers.

    The default grids span a bounded interval, a half-line [lo, inf) and
    the whole real line.
    """
    if not lo < hi:
        raise InputError(f"support [{lo}, {hi}] needs lo < hi")
    if lo == -math.inf and hi != math.inf:
        raise InputError(
            f"unsupported support [{lo}, {hi}]: default grids cover a "
            "bounded interval, [lo, inf) and the whole real line"
        )


def _beta(a, b):
    if a <= 0 or b <= 0:
        raise InputError("beta parameters must be positive")
    const = log_beta(a, b)
    return ((0.0, 1.0),
            lambda nb: (a - 1.0) * nb.log_x + (b - 1.0) * nb.log1m_x - const,
            True)


def _gamma(shape, scale):
    if shape <= 0 or scale <= 0:
        raise InputError("gamma shape and scale must be positive")
    const = log_gamma(shape) + shape * math.log(scale)
    return ((0.0, math.inf),
            lambda nb: (shape - 1.0) * nb.log_x - nb.x / scale - const,
            True)


def _normal(mean, sd):
    if sd <= 0:
        raise InputError("sd must be positive")
    const = math.log(sd) + 0.5 * math.log(2.0 * math.pi)
    return ((-math.inf, math.inf),
            lambda nb: -0.5 * ((nb.x - mean) / sd) ** 2 - const,
            True)


def _flat(lo, hi):
    _check_support(lo, hi)
    if math.isfinite(hi):
        height = -math.log(hi - lo)
        return (lo, hi), lambda nb: np.full_like(nb.x, height), True
    return (lo, hi), lambda nb: np.zeros_like(nb.x), False


def _exp_tilt(b):
    return (-math.inf, math.inf), lambda nb: b * nb.x, False


@dataclass(frozen=True)
class Family:
    """A named density family.

    params: parameter names in order, each with its default (None marks a
        required parameter).
    build: validates keyword parameters and returns
        ((domain_lo, domain_hi), log_pdf, normalized flag); log_pdf reads
        x, log_x and log1m_x of a node basis (see _tabulate).
    """

    params: dict
    build: Callable


FAMILIES = {
    "beta": Family({"a": None, "b": None}, _beta),
    "gamma": Family({"shape": None, "scale": 1.0}, _gamma),
    "normal": Family({"mean": 0.0, "sd": 1.0}, _normal),
    "flat": Family({"lo": -math.inf, "hi": math.inf}, _flat),
    "exp-tilt": Family({"b": None}, _exp_tilt),
}


def _tabulate(grid: GridDensity, log_pdf, normalized: bool) -> GridDensity:
    """A family's density on grid's nodes, from their basis in its slot."""
    return grid.with_log_values(log_pdf(grid._rule_slot), normalized=normalized)


def beta_density(a: float, b: float, n: int = 4097) -> GridDensity:
    """Normalized Beta(a, b) density on (0, 1)."""
    (lo, hi), lp, normalized = FAMILIES["beta"].build(a, b)
    # on the template itself, not on a zero density: criterion 01's hot path
    return _tabulate(_bounded_grid(lo, hi, operator.index(n)), lp, normalized)


def gamma_density(shape: float, scale: float = 1.0, n: int = 4097) -> GridDensity:
    """Normalized Gamma density on (0, inf), shape-scale convention."""
    _, lp, normalized = FAMILIES["gamma"].build(shape, scale)
    return _tabulate(halfline_density(np.zeros_like, scale=scale, n=n), lp, normalized)


def normal_density(mean: float = 0.0, sd: float = 1.0, n: int = 2049) -> GridDensity:
    """Normalized normal density on the real line."""
    _, lp, normalized = FAMILIES["normal"].build(mean, sd)
    return _tabulate(realline_density(np.zeros_like, center=mean, scale=4.0 * sd, n=n),
                     lp, normalized)


def flat_density(lo: float, hi: float, n: int = 4097) -> GridDensity:
    """Normalized uniform density on a bounded interval."""
    _, lp, normalized = FAMILIES["flat"].build(lo, hi)
    return _tabulate(bounded_density(np.zeros_like, lo, hi, n), lp, normalized)


def improper_flat(domain_lo: float, domain_hi: float, n: int = None) -> GridDensity:
    """Constant log-density 0 on the declared support; not normalizable
    when the support is unbounded."""
    _check_support(domain_lo, domain_hi)
    if math.isfinite(domain_hi):
        return bounded_density(np.zeros_like, domain_lo, domain_hi, n or 4097)
    if math.isfinite(domain_lo):
        return halfline_density(np.zeros_like, shift=domain_lo, n=n or 4097)
    return realline_density(np.zeros_like, n=n or 2049)


def exp_tilt_density(b: float, n: int = 2049) -> GridDensity:
    """Improper density proportional to exp(b*x) on the real line."""
    _, lp, normalized = FAMILIES["exp-tilt"].build(b)
    return _tabulate(realline_density(np.zeros_like, n=n), lp, normalized)


# ---------------------------------------------------------------------------
# pointwise evaluation


def _interp_within(nodes, log_values, x, what: str) -> np.ndarray:
    """np.interp of a log table at x; x outside the nodes is an InputError."""
    lo, hi = float(nodes[0]), float(nodes[-1])
    if x.size and (x.min() < lo or x.max() > hi):
        raise InputError(f"{what}: table covers [{lo!r}, {hi!r}] but is evaluated "
                         f"on [{float(x.min())!r}, {float(x.max())!r}]")
    return np.interp(x, nodes, log_values)


# ---------------------------------------------------------------------------
# CSV persistence


def header_line(density: GridDensity) -> str:
    """The fixed `domain=<lo>,<hi> normalized=<0|1>` header of the CSV form."""
    return (f"domain={fmt_value(density.domain_lo)},{fmt_value(density.domain_hi)} "
            f"normalized={1 if density.normalized else 0}")


def write_density(density: GridDensity, path: str, extra_header=()) -> None:
    """Write a density to CSV.

    First line is `# ` plus header_line(density); optional extra header
    lines follow as additional comments; then one `abscissa,log_density`
    row per node. The write is atomic (temp file + rename).
    """
    lines = ["# " + header_line(density)]
    lines += [f"# {extra}" for extra in extra_header]
    for x, lv in zip(density.nodes, density.log_values):
        lines.append(f"{fmt_value(float(x))},{fmt_value(float(lv))}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_density(path: str) -> GridDensity:
    """Read a density written by write_density.

    Rejects missing or malformed headers and non-monotone abscissae.
    Extra comment lines after the header are ignored.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise InputError(f"{path}: empty density file")
    header = raw[0].strip()
    if not header.startswith("#"):
        raise InputError(f"{path}: missing header line")
    fields = header.lstrip("#").split()
    meta = {}
    for field in fields:
        if "=" not in field:
            raise InputError(f"{path}: malformed header field {field!r}")
        key, _, value = field.partition("=")
        meta[key] = value
    if "domain" not in meta or "normalized" not in meta:
        raise InputError(f"{path}: header must declare domain and normalized")
    try:
        lo_s, hi_s = meta["domain"].split(",")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise InputError(f"{path}: bad domain in header") from exc
    if meta["normalized"] not in ("0", "1"):
        raise InputError(f"{path}: normalized flag must be 0 or 1")
    normalized = meta["normalized"] == "1"
    xs, lvs = [], []
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected two comma-separated columns")
        try:
            xs.append(float(parts[0]))
            lvs.append(float(parts[1]))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-numeric row") from exc
    nodes = np.asarray(xs)
    if len(nodes) >= 2 and np.any(np.diff(nodes) <= 0):
        raise InputError(f"{path}: abscissae must be strictly increasing")
    return GridDensity(lo, hi, nodes, np.asarray(lvs), normalized=normalized)
