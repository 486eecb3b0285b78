"""Weighted pooling of densities on a shared grid.

Geometric pooling exponentiates the weighted sum of log densities and is
invariant to per-component rescaling; arithmetic pooling mixes density
values and therefore demands normalized inputs. The KL objective scores a
candidate density against the component set; the geometric pool minimizes
it, which verify_pool_optimality checks empirically with random smooth
perturbations.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .density import GridDensity
from .errors import InputError, NumericalError
from .quadrature import (DEFAULT_TOL, _normalized_by, integrate, normalize,
                         signed_integral_table)
from .streams import RandomStream
from .util import real_values, thread_cap

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PoolWeights:
    """Nonnegative weights summing to one."""

    alphas: np.ndarray

    def __post_init__(self):
        values, ndim = real_values(self.alphas, "weights must be finite and nonnegative")
        if ndim != 1 or not values:
            raise InputError("weights must form a nonempty 1-D vector")
        al = np.array(values)
        # min catches negatives and the sum NaN; an infinite sum is an inf
        # weight or overflow
        if not min(values) >= 0.0 or math.isnan(total := float(np.add.reduce(al))) or (
                total == math.inf and math.inf in values):
            raise InputError("weights must be finite and nonnegative")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InputError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "alphas", al)
        al.setflags(write=False)

    def __len__(self) -> int:
        return len(self.alphas)


def equal_weights(k: int) -> PoolWeights:
    """Equal weights over k components; the residual goes to the last entry
    so the sum is exactly 1."""
    if k <= 0:
        raise InputError("need at least one component")
    al = np.full(k, 1.0 / k)
    al[-1] = 1.0 - float(al[:-1].sum())
    return PoolWeights(al)


@dataclass(frozen=True)
class PoolProblem:
    """A set of candidate densities on one common grid plus weights."""

    components: tuple
    weights: PoolWeights

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) == 0:
            raise InputError("pool problem needs at least one component")
        if len(comps) != len(self.weights.alphas):
            raise InputError("number of components must match number of weights")
        first = comps[0]
        for i, comp in enumerate(comps):
            if not isinstance(comp, GridDensity):
                raise InputError(f"component {i} is not a grid density")
            if i and not first.same_grid(comp):
                raise InputError(
                    f"component {i} is tabulated on a different grid; "
                    "all components must share domain and abscissae"
                )
        if comps is not self.components:
            object.__setattr__(self, "components", comps)

    @property
    def grid(self) -> GridDensity:
        return self.components[0]


def _weighted_log_sum(alphas, components, start=0.0) -> np.ndarray:
    """start plus alpha_i * log pi_i, added in component order over the
    components with positive weight.

    Nodes where a positively weighted component vanishes come out as -inf,
    which is a valid zero of the pooled density. Zero-weight components
    are skipped entirely so they cannot poison nodes they do not affect.
    """
    out, fresh = start, False
    for a, comp in zip(alphas, components):
        if a > 0.0:
            term = a * comp.log_values
            # out + term, into an array of this sum's own
            out = np.add(out, term, out=out if fresh else term)
            fresh = True
    return out


def geometric_pool(problem: PoolProblem,
                   tolerance: float = DEFAULT_TOL) -> GridDensity:
    """Weighted geometric pool of the components.

    Returned normalized when the pooled kernel is integrable; otherwise
    unnormalized with an impropriety annotation in the note. The pool is
    invariant (after normalization) to rescaling any component by a
    constant, so unnormalized and improper components are acceptable.
    """
    lv = _weighted_log_sum(problem.weights.alphas, problem.components)
    pooled = problem.grid.with_log_values(lv)
    res = integrate(pooled, tolerance)
    if res.diverged:
        return pooled.with_log_values(
            lv, note="improper pool: " + (res.detail or "integral diverges")
        )
    return _normalized_by(pooled, res)


def arithmetic_pool(problem: PoolProblem) -> GridDensity:
    """Weighted arithmetic mixture of the components.

    Requires every component normalized: mixing unnormalized kernels
    makes the result depend on the arbitrary per-component scale factors,
    so such input is rejected rather than silently reweighted.
    """
    al = problem.weights.alphas
    for i, comp in enumerate(problem.components):
        if not comp.normalized:
            raise InputError(
                f"component {i} is not normalized; the arithmetic pool is "
                "sensitive to component rescaling, so unnormalized input "
                "is not accepted"
            )
    terms = []
    for a, comp in zip(al, problem.components):
        if a == 0.0:
            continue
        terms.append(math.log(a) + comp.log_values)
    stacked = np.stack(terms)
    peak = np.max(stacked, axis=0)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    mix = safe_peak + np.log(np.sum(np.exp(stacked - safe_peak), axis=0))
    mix = np.where(np.isfinite(peak), mix, -math.inf)
    return problem.grid.with_log_values(mix, normalized=True)


def kl_objective(eta: GridDensity, problem: PoolProblem) -> float:
    """Weighted sum over components of KL(eta || pi_i).

    eta must be normalized and live on the problem's grid. Returns +inf
    when eta puts mass where some positively weighted component has none
    (support violation). When components are unnormalized the value is
    meaningful only up to an additive constant; differences between
    candidates remain meaningful.
    """
    if not eta.normalized:
        raise InputError("kl_objective requires a normalized candidate density")
    if not eta.same_grid(problem.grid):
        raise InputError("candidate density must share the problem grid")
    le = eta.log_values
    lp = _weighted_log_sum(problem.weights.alphas, problem.components)
    active = np.isfinite(le)
    if np.any(active & ~np.isfinite(lp)):
        return math.inf
    # Rescaling a component shifts lp by a constant. Peel the level of lp
    # out of the integrand and add it back against the candidate's exact
    # unit mass, so that objective differences between candidates respond
    # to rescaling at rounding level, not at quadrature-error level.
    level = float(np.max(np.where(active, lp, -math.inf)))
    if not math.isfinite(level):
        level = 0.0
    with np.errstate(invalid="ignore"):
        w = np.where(active,
                     np.exp(le + eta.log_jacobian) * (le - (lp - level)), 0.0)
    return signed_integral_table(eta, w) - level


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the random-perturbation optimality check."""

    objective_pool: float
    margins: np.ndarray
    epsilons: np.ndarray
    min_margin: float
    all_nonnegative: bool
    n_perturbations: int
    pooled: GridDensity = field(repr=False, default=None)


def verify_pool_optimality(problem: PoolProblem, n_perturbations: int,
                           stream: RandomStream) -> OptimalityReport:
    """Check that the geometric pool minimizes the KL objective.

    Each perturbation multiplies the pooled density by exp(eps * bump)
    with eps uniform on (0.01, 0.5) and a Gaussian bump of random center
    and width (in the compactified variable), renormalizes, and compares
    objectives. Perturbation k derives its own substream, so results do
    not depend on execution order or thread count. Requires a proper pool.
    """
    if n_perturbations <= 0:
        raise InputError("n_perturbations must be positive")
    pool = geometric_pool(problem)
    if not pool.normalized:
        raise InputError(
            "optimality verification requires a proper pooled density; "
            f"got: {pool.note}"
        )
    d_pool = kl_objective(pool, problem)
    t = pool.t_nodes
    t_span = t[-1] - t[0]

    def one(k: int):
        rng = stream.substream(k)
        center = t[0] + t_span * rng.uniform()
        width = t_span * rng.uniform(0.02, 0.2)
        eps = rng.uniform(0.01, 0.5)
        bump = np.exp(-0.5 * ((t - center) / width) ** 2)
        eta = normalize(pool.with_log_values(pool.log_values + eps * bump))
        return kl_objective(eta, problem) - d_pool, eps

    margins = np.empty(n_perturbations)
    epsilons = np.empty(n_perturbations)
    with ThreadPoolExecutor(max_workers=thread_cap()) as pool_exec:
        for k, (margin, eps) in enumerate(pool_exec.map(one, range(n_perturbations))):
            margins[k] = margin
            epsilons[k] = eps
    min_margin = float(margins.min())
    tol_internal = 1e-9 * max(1.0, abs(d_pool))
    ok = bool(np.all(margins >= -tol_internal))
    if not ok:
        raise NumericalError(
            "geometric pool failed the optimality check: margin "
            f"{min_margin:.3e} at perturbation {int(np.argmin(margins))}"
        )
    return OptimalityReport(
        objective_pool=d_pool,
        margins=margins,
        epsilons=epsilons,
        min_margin=min_margin,
        all_nonnegative=ok,
        n_perturbations=n_perturbations,
        pooled=pool,
    )
