"""Posterior propriety checks and integral inequalities for pooled priors.

posterior_mass integrates prior times likelihood kernel over the
parameter domain. holder_check tests the interpolation inequality
  integral(mu^alpha * nu^(1-alpha) * L) <= (integral(mu L))^alpha * (integral(nu L))^(1-alpha)
with quadrature error bars: an apparent violation inside the error bars
is reported as inconclusive, never as a counterexample. pooled_propriety
bounds the posterior mass of a geometric pool by the weighted geometric
mean of the component posterior masses, which is finite whenever every
component posterior is proper. holder_check is that bound for the pool
((mu, nu), (alpha, 1 - alpha)): both compute the pooled mass and its
bound in one routine, so they agree bit for bit.

Each integral is computed once. A prior's private memo (GridDensity._memo)
keeps the log likelihood at its nodes, keyed by the likelihood (a frozen
LikelihoodModel, hashed by value), and the mass verdict, keyed by
(likelihood, tolerance); a pool's first component keeps the pooled mass
and bound, keyed by (likelihood, tolerance, weights), with weak references
that match the other components by identity.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .density import GridDensity
from .errors import InputError, NumericalError
from .likelihoods import LikelihoodModel
from .pooling import PoolProblem, _weighted_log_sum
from .quadrature import DEFAULT_TOL, QuadratureResult, integrate


@dataclass(frozen=True)
class ProprietyVerdict:
    """Whether a posterior kernel has finite positive mass.

    mass: the quadrature result for the posterior integral.
    proper: True only when the integral converged to a finite positive
        value. An improper or non-convergent posterior is a meaningful
        finding, not an error.
    diagnostics: short human-readable explanation.
    """

    mass: QuadratureResult
    proper: bool
    diagnostics: str


def _log_likelihood_on(grid: GridDensity, likelihood: LikelihoodModel) -> np.ndarray:
    """The likelihood's log kernel at the grid's nodes, memoized on grid."""
    key = ("log_like", likelihood)
    log_like = grid._memo.get(key)
    if log_like is None:
        if not likelihood.contains(grid.domain_lo, grid.domain_hi):
            raise InputError(
                "prior support is not contained in the likelihood's parameter "
                f"domain [{likelihood.domain_lo}, {likelihood.domain_hi}]"
            )
        log_like = grid._memo[key] = likelihood.log_on(grid)
    return log_like


def posterior_mass(prior: GridDensity, likelihood: LikelihoodModel,
                   tolerance: float = DEFAULT_TOL) -> ProprietyVerdict:
    """Integrate prior times likelihood kernel and classify the result."""
    return _mass_verdict(prior, likelihood, _log_likelihood_on(prior, likelihood),
                         tolerance)


def _mass_verdict(prior: GridDensity, likelihood: LikelihoodModel,
                  log_like: np.ndarray, tolerance: float) -> ProprietyVerdict:
    """Verdict of the posterior under likelihood, memoized on prior;
    log_like is the likelihood at the prior's nodes."""
    key = ("mass", likelihood, tolerance)
    verdict = prior._memo.get(key)
    if verdict is None:
        verdict = prior._memo[key] = _classify(integrate(
            prior.with_log_values(prior.log_values + log_like), tolerance))
    return verdict


def _classify(res: QuadratureResult) -> ProprietyVerdict:
    """The verdict that a posterior-mass integral gives."""
    if res.diverged:
        return ProprietyVerdict(res, False,
                                "posterior mass diverges: " + res.detail)
    if not (res.value > 0):
        return ProprietyVerdict(res, False, "posterior mass is zero on the grid")
    if not res.converged:
        return ProprietyVerdict(
            res, False,
            "posterior mass finite but the estimate did not reach the "
            f"requested tolerance (relative error ~{res.abs_error_estimate / res.value:.1e})",
        )
    return ProprietyVerdict(res, True, "finite positive posterior mass")


def _require_proper(prior: GridDensity, likelihood: LikelihoodModel,
                    log_like: np.ndarray, tolerance: float,
                    failure: str) -> ProprietyVerdict:
    """Mass verdict of a posterior that a check needs proper, given the
    log likelihood at the prior's nodes; raises InputError with `failure`
    and the diagnostics otherwise."""
    verdict = _mass_verdict(prior, likelihood, log_like, tolerance)
    if not verdict.proper:
        raise InputError(f"{failure} ({verdict.diagnostics})")
    return verdict


def _pooled_mass(alphas, components, verdicts, likelihood, log_like,
                 tolerance) -> tuple:
    """Mass of the pooled posterior L * prod_i pi_i^a_i over a_i > 0, and
    its Hölder bound prod_i I_i^a_i from the components' proper verdicts.

    Returns (mass, bound, bound error, within). within allows both
    quadrature errors plus a few ulps: at a single positive weight both
    sides are one integral reached through different arithmetic, and pure
    rounding must not read as a violation. The result is memoized on
    components[0] together with weak references to the others.
    """
    first, others = components[0], components[1:]
    key = ("pool", likelihood, tolerance, tuple(alphas))
    hit = first._memo.get(key)
    if hit is not None and all(ref() is comp for ref, comp in zip(hit[0], others)):
        return hit[1]
    res = integrate(first.with_log_values(
        _weighted_log_sum(alphas, components, log_like)), tolerance)
    if res.diverged:
        # impossible with every component posterior proper; a numerical
        # misclassification must fail loudly
        raise NumericalError(
            "pooled posterior mass classified divergent although every "
            "component posterior is proper: " + res.detail
        )
    log_bound = rel_err = 0.0
    for a, verdict in zip(alphas, verdicts):
        if a > 0.0:
            log_bound += a * verdict.mass.log_value
            rel_err += a * verdict.mass.abs_error_estimate / verdict.mass.value
    bound = math.exp(log_bound)
    bound_err = bound * rel_err
    value = res.value
    slack = res.abs_error_estimate + bound_err \
        + 8.0 * sys.float_info.epsilon * max(value, bound)
    out = res, bound, bound_err, value <= bound + slack
    first._memo[key] = tuple(map(weakref.ref, others)), out
    return out


@dataclass(frozen=True)
class HolderReport:
    """Outcome of the interpolation-inequality check.

    holds: lhs <= rhs within combined quadrature error.
    inconclusive: lhs exceeded rhs but by less than the combined error,
        so no violation can be claimed.
    """

    lhs: float
    rhs: float
    lhs_error: float
    rhs_error: float
    holds: bool
    inconclusive: bool
    alpha: float
    mu_mass: ProprietyVerdict
    nu_mass: ProprietyVerdict


def holder_check(mu: GridDensity, nu: GridDensity, alpha: float,
                 likelihood: LikelihoodModel,
                 tolerance: float = DEFAULT_TOL) -> HolderReport:
    """Check the two-density interpolation inequality under a likelihood.

    Preconditions: both posterior masses must be proper (the inequality's
    right side is otherwise meaningless); violation of either raises an
    input error naming the failing prior. alpha lies in [0, 1]; the
    endpoints reduce to trivial equality.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InputError("alpha must lie in [0, 1]")
    if not mu.same_grid(nu):
        raise InputError("mu and nu must share a grid")
    log_like = _log_likelihood_on(mu, likelihood)
    failed = "holder_check precondition failed: posterior under {} is not proper"
    mu_verdict = _require_proper(mu, likelihood, log_like, tolerance,
                                 failed.format("mu"))
    nu_verdict = _require_proper(nu, likelihood, log_like, tolerance,
                                 failed.format("nu"))

    a = float(alpha)  # Python floats, as pooled_propriety's weights are
    lhs_res, rhs, rhs_err, holds = _pooled_mass(
        (a, 1.0 - a), (mu, nu), (mu_verdict, nu_verdict), likelihood,
        log_like, tolerance)
    lhs = lhs_res.value
    return HolderReport(
        lhs=lhs, rhs=rhs, lhs_error=lhs_res.abs_error_estimate, rhs_error=rhs_err,
        holds=holds, inconclusive=holds and lhs > rhs, alpha=alpha,
        mu_mass=mu_verdict, nu_mass=nu_verdict,
    )


@dataclass(frozen=True)
class PooledProprietyReport:
    """Posterior propriety of a geometric pool with its mass bound.

    bound is the weighted geometric mean of component posterior masses;
    the pooled posterior mass can never exceed it (up to quadrature
    error), which is what makes propriety of the pool automatic.
    """

    pooled_mass: QuadratureResult
    bound: float
    bound_error: float
    component_masses: tuple
    proper: bool
    bound_satisfied: bool


def pooled_propriety(problem: PoolProblem, likelihood: LikelihoodModel,
                     tolerance: float = DEFAULT_TOL) -> PooledProprietyReport:
    """Verify the pooled posterior is proper and within its mass bound.

    Preconditions: every positively weighted component must have a proper
    posterior; the offending component is named otherwise. The pooled
    kernel is used unnormalized (the bound is stated for raw components).
    """
    al = problem.weights.alphas.tolist()
    log_like = _log_likelihood_on(problem.grid, likelihood)
    verdicts = [
        None if a == 0.0 else _require_proper(
            comp, likelihood, log_like, tolerance, "pooled_propriety precondition "
            f"failed: component {i} has an improper posterior")
        for i, (a, comp) in enumerate(zip(al, problem.components))
    ]
    res, bound, bound_err, within = _pooled_mass(
        al, problem.components, verdicts, likelihood, log_like, tolerance)
    return PooledProprietyReport(
        pooled_mass=res,
        bound=bound,
        bound_error=bound_err,
        component_masses=tuple(verdicts),
        proper=res.converged and res.value > 0,
        bound_satisfied=within,
    )
