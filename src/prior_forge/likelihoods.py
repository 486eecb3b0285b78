"""Likelihood kernels evaluated on parameter grids.

All families return log-likelihood kernels: constant data-dependent
factors (binomial coefficients, factorials, powers of 2*pi) are dropped.
Propriety verdicts and ratio-style bounds are unaffected because those
constants scale every integral identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .density import GridDensity, _interp_within, _NodeBasis, _read_only
from .errors import InputError
from .util import real_values


@dataclass(frozen=True)
class LikelihoodModel:
    """A univariate log-likelihood kernel over a parameter domain.

    family: a key of _LOG_KERNELS, the family's log kernel.
    data: the observed data in family-specific form; a table's nodes and
        log values as tuples, so that models compare and hash by value.
    domain_lo / domain_hi: the parameter domain the kernel is defined on.
    """

    family: str
    data: tuple
    domain_lo: float
    domain_hi: float
    table_nodes: np.ndarray = field(default=None, repr=False, compare=False)
    table_log_values: np.ndarray = field(default=None, repr=False, compare=False)

    @cached_property
    def _hash(self) -> int:
        # models key the propriety memos, and a table's data holds every node
        # and value, so it is hashed once; numbers hash alike in every
        # process, so a pickled copy keeps a valid hash
        return hash((self.data, self.domain_lo, self.domain_hi))

    def __hash__(self) -> int:
        return self._hash

    def log_on(self, theta) -> np.ndarray:
        """Log-likelihood kernel at parameter values theta, or at the nodes
        of a GridDensity theta, reading their shared log basis."""
        kernel = _LOG_KERNELS.get(self.family)
        if kernel is None:
            raise InputError(f"unknown likelihood family {self.family!r}")
        return kernel(self, theta._rule_slot if isinstance(theta, GridDensity)
                      else _NodeBasis(np.asarray(theta, dtype=float)))

    def contains(self, lo: float, hi: float) -> bool:
        """Whether [lo, hi] lies inside this kernel's parameter domain."""
        return self.domain_lo <= lo and hi <= self.domain_hi


def _binomial(model, nb):
    # a zero count drops its term, so 0 * log(0) never reaches an endpoint
    k, n = model.data
    out = k * nb.log_x if k > 0 else 0.0
    out += (n - k) * nb.log1m_x if n > k else 0.0  # in place from k > 0
    return out


def _poisson(model, nb):
    total, n_obs = model.data
    out = -float(n_obs) * nb.x
    if total > 0:
        out += float(total) * nb.log_x
    return out


def _normal_location(model, nb):
    data = model.data
    if len(data) >= 8 or nb.x.ndim != 1:  # numpy sums 8 or more terms pairwise
        return -0.5 * np.sum(
            (nb.x[..., None] - np.asarray(data, dtype=float)[None, :]) ** 2, axis=-1)
    # fewer it adds in order, as this loop does over a node array
    total = nb.x - data[0]
    total **= 2
    for d in data[1:]:
        total += (nb.x - d) ** 2
    total *= -0.5  # -0.5 * total
    return total


# family -> log kernel (model, theta's x, log_x, log1m_x basis) -> log-likelihood
_LOG_KERNELS = {
    "normal-location": _normal_location,
    "binomial": _binomial,
    "poisson": _poisson,
    "grid": lambda model, nb: _interp_within(
        model.table_nodes, model.table_log_values, nb.x, "tabulated likelihood"),
}


def normal_location(observations) -> LikelihoodModel:
    """Normal likelihood with unit variance and unknown location.

    observations: one or more real data points.
    """
    message = "observations must be a nonempty vector of finite reals"
    obs, ndim = real_values(observations, message)
    if ndim == 0:
        obs = [obs]
    if ndim > 1 or not obs or not all(map(math.isfinite, obs)):
        raise InputError(message)
    return LikelihoodModel("normal-location", tuple(obs), -math.inf, math.inf)


def binomial_counts(successes: int, trials: int) -> LikelihoodModel:
    """Binomial likelihood kernel for the success probability on (0, 1)."""
    k, n = int(successes), int(trials)
    if n < 1 or not (0 <= k <= n):
        raise InputError("need 0 <= successes <= trials with trials >= 1")
    return LikelihoodModel("binomial", (k, n), 0.0, 1.0)


def _count_list(counts, message: str) -> list:
    """counts, a scalar or a nonempty 1-D sequence of finite nonnegative
    integers, as Python numbers, whose sum cannot wrap; else InputError."""
    arr = _count_array(counts, message)
    values = arr.tolist()
    if arr.ndim != 1 or not values or not all(
            isinstance(v, (int, float)) and 0 <= v < math.inf and v % 1 == 0
            for v in values):
        raise InputError(message)
    return values


def _count_array(counts, message: str) -> np.ndarray:
    """np.atleast_1d(np.asarray(counts)); InputError when numpy cannot make
    an array of counts, such as a ragged nesting."""
    try:
        return np.atleast_1d(np.asarray(counts))
    except ValueError as exc:
        raise InputError(message) from exc


def poisson_counts(counts) -> LikelihoodModel:
    """Poisson likelihood kernel for the rate on (0, inf)."""
    values = _count_list(counts, "counts must be nonnegative integers")
    return LikelihoodModel("poisson", (int(sum(values)), len(values)), 0.0, math.inf)


def multinomial_counts(counts) -> LikelihoodModel:
    """Multinomial likelihood kernel, two-cell form.

    The propriety machinery is univariate, so only the two-cell case is
    supported; it is the binomial kernel in the first cell's probability,
    and larger tables are rejected.
    """
    message = "counts must be nonnegative integers with a positive total"
    arr = _count_array(counts, message)
    if len(arr) != 2:
        raise InputError(
            "multinomial likelihoods support exactly 2 cells here; the "
            "parameter grid is univariate"
        )
    k, rest = _count_list(arr, message)
    if k + rest < 1:
        raise InputError(message)
    return binomial_counts(int(k), int(k + rest))


def tabulated_likelihood(nodes, log_values, domain_lo: float,
                         domain_hi: float) -> LikelihoodModel:
    """Likelihood kernel given by a table, interpolated linearly in the
    log. Evaluating it outside the tabulated node range is an InputError."""
    x = np.asarray(nodes, dtype=float)
    lv = np.asarray(log_values, dtype=float)
    if x.ndim != 1 or len(x) != len(lv) or len(x) < 2:
        raise InputError("need matching 1-D node and value arrays, length >= 2")
    if np.any(np.diff(x) <= 0):
        raise InputError("table nodes must be strictly increasing")
    if np.any(np.isnan(lv)) or np.any(lv == np.inf):
        raise InputError("table log values must not contain NaN or +inf")
    x, lv = _read_only(x.copy()), _read_only(lv.copy())
    return LikelihoodModel("grid", (tuple(x.tolist()), tuple(lv.tolist())),
                           float(domain_lo), float(domain_hi),
                           table_nodes=x, table_log_values=lv)
