"""Integration, normalization, quantile, and mode behavior.

Expected masses come from closed forms (beta and gamma functions) or from
an independent adaptive quadrature, never from the implementation under
test.
"""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import betaln, gammaln

from prior_forge import (InputError, NumericalError, beta_density,
                         bounded_density, flat_density, gamma_density,
                         improper_flat, integrate, log_beta, mode,
                         normal_density, normalize, quantile)
from prior_forge.density import (GridDensity, _bounded_grid, _halfline_grid,
                                 _realline_grid, bounded_nodes, halfline_density,
                                 realline_density)
from prior_forge.likelihoods import binomial_counts
from prior_forge.propriety import posterior_mass
from prior_forge.quadrature import (QuadratureResult, QuadratureRule, _cap_integral,
                                    _cell_weights, _decimate_idx, _ladder_bounds,
                                    _node_weights, _rule, _window_weights, cdf_at)


def kernel_beta(a, b):
    """Unnormalized Beta kernel on the default bounded grid."""
    return bounded_density(
        lambda x: (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x), 0.0, 1.0)


def test_flat_unit_interval_mass_is_one():
    res = integrate(flat_density(0.0, 1.0).shifted(0.0))
    assert res.converged and not res.diverged
    assert abs(res.value - 1.0) <= 1e-10


def test_beta_half_half_kernel_integrates_to_pi():
    res = integrate(kernel_beta(0.5, 0.5))
    assert res.converged
    assert abs(res.value - math.pi) <= 1e-8 * math.pi


def test_normal_kernel_integrates_to_sqrt_two_pi():
    d = realline_density(lambda x: -0.5 * x ** 2)
    res = integrate(d)
    assert res.converged
    want = math.sqrt(2.0 * math.pi)
    assert abs(res.value - want) <= 1e-8 * want


@pytest.mark.parametrize("a,b", [(1.5, 1.5), (2.0, 3.0), (0.7, 2.2), (5.0, 0.8)])
def test_beta_kernels_match_closed_form(a, b):
    res = integrate(kernel_beta(a, b))
    want = math.exp(betaln(a, b))
    assert res.converged
    assert abs(res.value - want) <= 1e-8 * want


@pytest.mark.parametrize("shape", [0.3, 0.5, 1.0, 3.0, 9.0])
def test_gamma_masses_match_closed_form(shape):
    d = gamma_density(shape)
    res = integrate(d.shifted(gammaln(shape)))
    want = math.exp(gammaln(shape))
    assert res.converged
    assert abs(res.value - want) <= 1e-8 * want


def test_random_beta_masses_against_closed_form():
    rng = np.random.default_rng(20260817)
    for _ in range(25):
        a = rng.uniform(0.5, 8.0)
        b = rng.uniform(0.5, 8.0)
        res = integrate(kernel_beta(a, b))
        want = math.exp(betaln(a, b))
        assert res.converged, (a, b)
        assert abs(res.value - want) <= 1e-8 * want, (a, b)


def test_oscillatory_factor_against_adaptive_reference():
    d = bounded_density(
        lambda x: -0.5 * np.log(x) - 0.5 * np.log1p(-x) + np.log(2 + np.sin(7 * x)),
        0.0, 1.0)
    want, _ = scipy_quad(lambda x: (2 + math.sin(7 * x)) / math.sqrt(x * (1 - x)),
                         0, 1, points=[0.5], limit=200)
    res = integrate(d)
    assert abs(res.value - want) <= 1e-7 * want


def test_low_degree_polynomials_integrate_to_machine_level():
    # the bulk rule is exact on cubics; endpoint handling must not spoil it
    nodes = bounded_nodes(0.0, 1.0)
    cases = [
        (lambda x: np.zeros_like(x), 1.0),
        (lambda x: np.log(x), 0.5),
        (lambda x: 2 * np.log(x), 1.0 / 3.0),
        (lambda x: 3 * np.log(x), 0.25),
        (lambda x: 3 * np.log1p(x), 15.0 / 4.0),
        (lambda x: np.log(2.0 + x * (1.0 - x)), 2.0 + 1.0 / 6.0),
    ]
    for log_pdf, want in cases:
        d = bounded_density(log_pdf, 0.0, 1.0)
        res = integrate(d)
        assert abs(res.value - want) <= 1e-12 * want


def test_integrable_singularities():
    res = integrate(bounded_density(lambda x: -0.9 * np.log(x), 0.0, 1.0))
    assert res.converged
    assert abs(res.value - 10.0) <= 1e-7 * 10.0
    res = integrate(bounded_density(lambda x: -0.99 * np.log(x), 0.0, 1.0))
    assert abs(res.value - 100.0) <= 1e-6 * 100.0


def test_endpoint_divergence_flagged():
    for expo in (-1.0, -1.05, -1.5):
        res = integrate(bounded_density(lambda x, e=expo: e * np.log(x), 0.0, 1.0))
        assert res.diverged, expo
        assert not res.converged
        assert res.value == math.inf
        assert res.abs_error_estimate == math.inf


def test_near_divergent_exponent_is_refused_or_right():
    # x**-0.999 sits on the divergence cutoff. Depending on how the fitted
    # exponent rounds, the engine may refuse it as indistinguishable from
    # divergent, but if it does return a value it must be the correct one.
    res = integrate(bounded_density(lambda x: -0.999 * np.log(x), 0.0, 1.0))
    if not res.diverged:
        assert abs(res.value - 1000.0) <= 1e-7 * 1000.0


def test_upper_endpoint_divergence_flagged_with_side():
    res = integrate(bounded_density(lambda x: -np.log1p(-x), 0.0, 1.0))
    assert res.diverged
    assert res.detail.startswith("upper")


def test_unbounded_tail_divergence_flagged():
    assert integrate(improper_flat(-math.inf, math.inf)).diverged
    assert integrate(realline_density(lambda x: 0.5 * x ** 2)).diverged
    assert integrate(improper_flat(0.0, math.inf)).diverged


def test_converged_and_diverged_are_mutually_exclusive():
    cases = [
        kernel_beta(0.5, 0.5),
        bounded_density(lambda x: -np.log(x), 0.0, 1.0),
        improper_flat(-math.inf, math.inf),
        flat_density(0.0, 1.0),
    ]
    for d in cases:
        r = integrate(d)
        assert not (r.converged and r.diverged)


def test_error_estimate_covers_true_error_on_known_cases():
    for a, b in [(0.5, 0.5), (1.5, 1.5), (2.0, 3.0)]:
        res = integrate(kernel_beta(a, b))
        true_err = abs(res.value - math.exp(betaln(a, b)))
        assert true_err <= max(res.abs_error_estimate * 50, 1e-9 * res.value)


def test_converged_is_a_python_bool():
    # bounded, half-line and real-line grids, then an unconverged posterior
    results = [integrate(d) for d in (beta_density(2.0, 2.0), gamma_density(2.0),
                                      normal_density())]
    results.append(posterior_mass(beta_density(2.0, 2.0),
                                  binomial_counts(0, 30)).mass)
    # a numpy scalar tolerance would make the comparison a numpy bool
    results.append(integrate(beta_density(2.0, 2.0), np.float64(1e-8)))
    assert [r.converged for r in results] == [True, True, True, False, True]
    assert all(type(r.converged) is bool for r in results)


def test_zero_integrand():
    nodes = np.linspace(0.1, 0.9, 32)
    from prior_forge import GridDensity
    d = GridDensity(0.0, 1.0, nodes, np.full(32, -math.inf))
    res = integrate(d)
    assert res.value == 0.0 and res.converged


def test_tolerance_validation():
    with pytest.raises(InputError):
        integrate(flat_density(0.0, 1.0), tolerance=0.0)
    with pytest.raises(InputError):
        integrate(flat_density(0.0, 1.0), tolerance=2.0)


# ---------------------------------------------------------------------------
# normalize


def test_normalize_beta_half_half_matches_analytic_log_density():
    raw = kernel_beta(0.5, 0.5)
    out = normalize(raw)
    assert out.normalized
    want = beta_density(0.5, 0.5)
    dev = np.max(np.abs(out.log_values - want.log_values))
    assert dev <= 1e-6
    # the shift equals -ln(pi) within quadrature accuracy
    shift = out.log_values[100] - raw.log_values[100]
    assert abs(shift + math.log(math.pi)) <= 1e-8


def test_normalize_is_idempotent():
    out = normalize(kernel_beta(2.0, 2.0))
    again = normalize(out)
    assert again is out


def test_normalize_unit_mass_under_package_quadrature():
    out = normalize(kernel_beta(0.5, 0.5))
    res = integrate(out)
    assert abs(res.value - 1.0) <= 1e-8


def test_normalize_rejects_non_integrable_input():
    with pytest.raises(NumericalError):
        normalize(bounded_density(lambda x: -np.log(x), 0.0, 1.0))
    with pytest.raises(NumericalError):
        normalize(improper_flat(0.0, math.inf))


# ---------------------------------------------------------------------------
# quantile


def test_quantile_requires_normalized_density():
    with pytest.raises(InputError):
        quantile(kernel_beta(0.5, 0.5), 0.5)


def test_quantile_beta_half_half_median():
    d = beta_density(0.5, 0.5)
    spacing = np.max(np.diff(d.nodes))
    assert abs(quantile(d, 0.5) - 0.5) <= spacing


def test_quantile_uniform_quarter():
    d = flat_density(0.0, 1.0)
    spacing = np.max(np.diff(d.nodes))
    assert abs(quantile(d, 0.25) - 0.25) <= spacing


def test_quantile_standard_normal_upper_tail():
    d = normal_density()
    assert abs(quantile(d, 0.975) - 1.959964) <= 1e-3


def test_quantile_inverts_cdf_within_one_cell():
    d = beta_density(2.0, 5.0)
    for x in (0.1, 0.25, 0.5, 0.8):
        p = cdf_at(d, x)
        x_back = quantile(d, p)
        i = np.searchsorted(d.nodes, x)
        cell = d.nodes[min(i + 1, len(d) - 1)] - d.nodes[max(i - 1, 0)]
        assert abs(x_back - x) <= cell


def test_quantile_bounds_and_validation():
    d = flat_density(0.0, 1.0)
    assert quantile(d, 0.0) == d.nodes[0]
    assert quantile(d, 1.0) == d.nodes[-1]
    with pytest.raises(InputError):
        quantile(d, -0.1)
    with pytest.raises(InputError):
        quantile(d, 1.1)


# ---------------------------------------------------------------------------
# mode


def test_mode_beta_2_2_is_center():
    assert abs(mode(beta_density(2.0, 2.0)) - 0.5) <= 1e-6


def test_mode_monotone_decreasing_returns_lower_end():
    d = beta_density(1.0, 3.0)
    assert abs(mode(d) - d.domain_lo) <= 1e-9


def test_mode_gamma_3_at_two():
    assert abs(mode(gamma_density(3.0)) - 2.0) <= 1e-4


def test_mode_tie_breaks_toward_smallest_abscissa():
    d = flat_density(0.0, 1.0)
    assert mode(d) == d.nodes[0]


# ---------------------------------------------------------------------------
# the quadrature rule


def vandermonde_cell_weights(x):
    """Reference cubic cell weights: solve each cell's 4x4 moment system
    sum_j w_j z_j^p = 1/(p+1), p = 0..3, in cell-scaled coordinates."""
    n = len(x)
    s = np.clip(np.arange(n - 1) - 1, 0, n - 4)
    idx = s[:, None] + np.arange(4)[None, :]
    h = np.diff(x)
    z = (x[idx] - x[:-1, None]) / h[:, None]
    p = np.arange(4)
    vander = z[:, None, :] ** p[None, :, None]
    rhs = np.broadcast_to((1.0 / (p + 1))[:, None], (n - 1, 4, 1)).copy()
    return (np.linalg.solve(vander, rhs)[..., 0] * h[:, None]).T


def _random_grid(rng):
    # neighbouring spacings differ by up to a factor 10; much wider ratios
    # make the reference solve itself lose digits
    h = np.exp(rng.uniform(-1.15, 1.15, int(rng.integers(4, 300))))
    return rng.normal() + np.concatenate([[0.0], np.cumsum(h)])


def test_closed_form_cell_weights_match_vandermonde_solve():
    rng = np.random.default_rng(20150427)
    grids = [beta_density(2.0, 3.0).t_nodes, gamma_density(2.0).t_nodes,
             normal_density().t_nodes] + [_random_grid(rng) for _ in range(40)]
    for x in grids:
        got, want = _cell_weights(x), vandermonde_cell_weights(x)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)


def test_fresh_grid_with_equal_nodes_integrates_bit_identically():
    first = kernel_beta(0.5, 2.5)
    integrate(first)
    shared = first.shifted(0.0)
    fresh = GridDensity(0.0, 1.0, first.nodes.copy(), first.log_values.copy())
    assert _rule(shared) is _rule(first)
    # a grid built from caller-supplied nodes builds its own rule, and
    # equal nodes give the same bits
    assert fresh._rule_slot is not first._rule_slot
    assert _rule(fresh) is not _rule(first)
    assert integrate(shared) == integrate(fresh)


def count_rule_builds(monkeypatch):
    """Empty the default-grid layout caches and record each rule build."""
    builds = []
    real_build = QuadratureRule.build.__func__

    def counting_build(cls, *args):
        builds.append(args)
        return real_build(cls, *args)

    monkeypatch.setattr(QuadratureRule, "build", classmethod(counting_build))
    for layout in (_bounded_grid, _halfline_grid, _realline_grid):
        layout.cache_clear()
    return builds


def test_with_log_values_reuses_the_rule(monkeypatch):
    builds = count_rule_builds(monkeypatch)
    d = gamma_density(3.0)
    derived = d.with_log_values(2.0 * d.log_values)
    integrate(derived)
    integrate(d)
    integrate(derived.shifted(1.0))
    assert len(builds) == 1
    # dataclasses.replace builds a density with a slot of its own; its rule
    # comes from the same nodes, so the integral has the same bits
    copy = replace(d, normalized=False)
    assert copy._rule_slot is not d._rule_slot
    assert integrate(copy) == integrate(d)
    assert len(builds) == 2
    with pytest.raises(TypeError):
        GridDensity(d.domain_lo, d.domain_hi, d.nodes, d.log_values,
                    _rule_slot=d._rule_slot)


def test_densities_on_equal_nodes_build_one_rule(monkeypatch):
    builds = count_rule_builds(monkeypatch)
    betas = [beta_density(a, b) for a, b in ((0.5, 0.5), (2.0, 3.0), (7.0, 1.5))]
    gammas = [gamma_density(shape) for shape in (0.7, 4.0)]
    for d in betas + gammas:
        assert integrate(d).converged
    assert len(builds) == 2
    assert all(_rule(d) is _rule(betas[0]) for d in betas)
    assert _rule(gammas[1]) is _rule(gammas[0])


def test_layout_table_stays_bounded_and_rebuilds_bit_identically(monkeypatch):
    builds = count_rule_builds(monkeypatch)
    bound = _bounded_grid.cache_info().maxsize
    first = kernel_beta(2.5, 3.5)
    want = integrate(first)
    for n in range(2049, 2049 + 2 * bound):
        integrate(beta_density(2.0, 2.0, n=n))
    assert _bounded_grid.cache_info().currsize == bound
    assert len(builds) == 1 + 2 * bound
    # the first layout has been evicted: the next density on it builds its
    # grid and rule again, and they give the same bits
    again = kernel_beta(2.5, 3.5)
    assert again._rule_slot is not first._rule_slot
    assert np.array_equal(again.nodes, first.nodes)
    assert integrate(again) == want
    assert len(builds) == 2 + 2 * bound


def test_default_builders_share_one_grid():
    a, b = beta_density(0.5, 0.5), beta_density(2.0, 3.0)
    assert a._rule_slot is b._rule_slot and a.nodes is b.nodes
    # the public node builder still hands out a new, writable array
    x, y = bounded_nodes(0.0, 1.0), bounded_nodes(0.0, 1.0)
    assert x is not y and x.flags.writeable
    x[0] = 0.5
    assert bounded_nodes(0.0, 1.0)[0] == a.nodes[0]
    # a different shift is a different layout
    base, moved = (halfline_density(np.zeros_like, shift=s) for s in (0.0, 2.0))
    assert base._rule_slot is not moved._rule_slot
    assert not np.array_equal(base.nodes, moved.nodes)
    assert moved.domain_lo == 2.0


# ---------------------------------------------------------------------------
# the weight-matrix kernel against the per-pass kernel it replaced


def reference_integrate(density, tol=1e-8):
    """integrate() as one weighted sum per pass: each pass gathers its own
    nodes, each cap exponentiates its own slice and fits from its own log
    distances, and the truncation ladder sums every doubling window. Only
    the cap extents come from the density's rule; every pass weight, the
    cap scalars and the ladder windows are built here."""
    rule, t = _rule(density), density.t_nodes
    n = len(t)
    m_lo, m_hi = (len(c.d) - 1 if c is not None else 0 for c in (rule.lower, rule.upper))
    bulk_nodes, w_bulk, _ = _window_weights(_cell_weights(t), [m_lo, n - 1 - m_hi])
    bulk_half = m_lo + _decimate_idx(n - m_hi - m_lo)
    logg = density.log_values + density.log_jacobian
    finite = np.isfinite(logg)
    if not finite.any():
        return QuadratureResult(0.0, 0.0, True, False, -math.inf, "zero integrand")
    M = float(np.max(logg[finite]))
    lg = np.where(finite, logg - M, -np.inf)
    g = np.where(finite, np.exp(lg), 0.0)
    bulk = float(np.sum(w_bulk * g[bulk_nodes]))
    bulk2 = float(np.sum(_node_weights(t[bulk_half]) * g[bulk_half]))
    val, err, scale = bulk, abs(bulk - bulk2) / 8.0, max(abs(bulk), 1e-300)
    for side, cap, lg_out in (("lower", rule.lower, lg), ("upper", rule.upper, lg[::-1])):
        if cap is None:
            continue
        d, half = cap.d, _decimate_idx(len(cap.d))
        w_full, w_half = _node_weights(d), _node_weights(d[half])
        log_rel = np.log(d) - np.log(d[0])
        per_pass = SimpleNamespace(
            d=d, log_rel=log_rel, fit=(float(d[0]), float(log_rel[1]),
                                       float(log_rel[min(2, len(d) - 1)]), float(log_rel[-1])),
            passes=lambda v: (float(np.sum(w_full * v)), float(np.sum(w_half * v[half]))))
        lg_cap = lg_out[: len(d)]
        g_cap = np.where(np.isfinite(lg_cap), np.exp(lg_cap), 0.0)
        v, e, dv, de = _cap_integral(per_pass, lg_cap, g_cap, tol, scale)
        if dv:
            return QuadratureResult(math.inf, math.inf, False, True, math.inf, f"{side} {de}")
        val, err = val + v, err + e
    d_lo = t - density.t_lo
    bounds = _ladder_bounds(d_lo, d_lo[-1] / 8)
    if len(bounds) > 1:
        nodes, weights, starts = _window_weights(_cell_weights(t), bounds)
        inc = np.add.reduceat(weights * g[nodes], starts)[::-1]
        last = inc[-3:]
        if len(inc) >= 4 and np.all(last > 10.0 * tol * scale) \
                and np.all(last[1:] >= 0.9995 * last[:-1]):
            return QuadratureResult(math.inf, math.inf, False, True, math.inf,
                                    "lower tail contributions not stabilizing")
    return QuadratureResult(float(val * np.exp(M)), float(err * np.exp(M)),
                            bool(err <= tol * max(abs(val), 1e-300)), False,
                            math.log(val) + M if val > 0 else -math.inf)


def _posterior(kind, p, q, r):
    if kind == "beta":
        return kernel_beta(p, q)
    if kind == "edge-beta":  # finite mass, exponent in (-1, -0.999]: divergent
        return kernel_beta(1e-3 * p / 8.0, q)
    if kind == "gamma":
        return halfline_density(lambda v: (p - 1.0) * np.log(v) - q * v)
    return realline_density(lambda x: (p - 4.0) * x - 0.5 * (x - r) ** 2)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["beta", "gamma", "exp-tilt", "edge-beta"]),
       p=st.floats(0.3, 8.0), q=st.floats(0.3, 8.0), r=st.floats(-3.0, 3.0),
       zeros=st.sampled_from(["lower", "upper", "bulk", "none", "all"]),
       at=st.integers(0, 10 ** 6))
def test_kernel_matches_the_per_pass_reference(kind, p, q, r, zeros, at):
    d = _posterior(kind, p, q, r)
    rule = _rule(d)
    n = len(d.nodes)
    m_lo, m_hi = (len(c.d) - 1 if c is not None else 0 for c in (rule.lower, rule.upper))
    # -inf at one node of the chosen region; an odd `at` picks one of its
    # first four nodes, for a cap the innermost, which its exponent fit reads
    region = {"bulk": range(m_lo + 1, n - 1 - m_hi), "lower": range(0, m_lo + 1),
              "upper": range(n - 1, n - 2 - m_hi, -1)}.get(zeros, range(0))
    lv = d.log_values.copy()
    if zeros == "all":
        lv[:] = -math.inf
    elif len(region):
        lv[region[at % min(len(region), 4 if at % 2 else len(region))]] = -math.inf
    d = d.with_log_values(lv)
    got, want = integrate(d), reference_integrate(d)
    assert (got.converged, got.diverged, got.detail) == \
        (want.converged, want.diverged, want.detail)
    assert math.isclose(got.value, want.value, rel_tol=1e-14)
    # a log-value's absolute difference is the value's relative one
    assert math.isclose(got.log_value, want.log_value, rel_tol=1e-14, abs_tol=1e-14)


@pytest.mark.parametrize("zeros", [(), (0,), (-1,), (2048,), (0, 3, 2048, -4, -1)])
def test_integrate_shifts_by_the_stored_max_bit_for_bit(zeros):
    # the twin shares the values but not the slot, and its slot is marked as
    # having a Jacobian: integrate then adds the zero log Jacobian and takes
    # the max of the sum itself, as it did before densities kept their max
    base = beta_density(2.5, 3.5)
    lv = base.log_values.copy()
    lv[list(zeros)] = -math.inf  # a -inf node in a cap (0, 3, -4, -1) or the bulk
    d = base.with_log_values(lv)
    twin = replace(d)
    twin._rule_slot.unit_jacobian = False
    rule = _rule(d)
    assert 3 < len(rule.lower.d) and 4 < len(rule.upper.d) and rule.bulk.start < 2048
    assert repr(integrate(d)) == repr(integrate(twin))
    assert repr(integrate(d, 1e-12)) == repr(integrate(twin, 1e-12))


def test_a_node_at_the_mapped_endpoint_counts_as_zero():
    # the last node maps to t = 1 exactly, where the half-line's log
    # Jacobian overflows to +inf
    x = np.append(np.geomspace(1e-3, 1e3, 100), 1e20)
    with np.errstate(divide="ignore"):
        d = GridDensity(0.0, math.inf, x, -3.0 * np.log1p(x))
    assert d.log_jacobian[-1] == math.inf
    got, want = integrate(d), reference_integrate(d)
    assert math.isfinite(got.value) and math.isclose(got.value, want.value, rel_tol=1e-14)
    assert (got.converged, got.diverged) == (want.converged, want.diverged)
    assert got.detail == "1 node(s) mapped onto an endpoint counted as zero"


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_innermost_distances_with_one_log_take_the_plain_cap(side):
    # the two nodes nearest the endpoint are one ulp apart, so the logs of
    # their distances are equal and give no exponent fit
    x = bounded_nodes(0.0, 1.0)
    x[1] = np.nextafter(x[0], 1.0)
    assert np.log(x[1]) == np.log(x[0])
    lv = np.log(x) + np.log1p(-x)  # the Beta(2, 2) kernel, mass 1/6
    d = (GridDensity(0.0, 1.0, x, lv) if side == "lower"
         else GridDensity(-1.0, 0.0, -x[::-1], lv[::-1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate(d)
    assert res.converged and not res.diverged
    assert abs(res.value - 1.0 / 6.0) <= 1e-14
    assert res.detail == f"{side} innermost distances share one log, so no exponent " \
        "fit: plain cubic with rectangle extension"


def test_a_bounded_grid_with_its_own_map_adds_its_jacobian():
    # an identity map's all-zero log Jacobian is skipped; a caller's own map
    # on a bounded support is not
    x = bounded_nodes(0.0, 1.0)
    lv = np.log(x) + np.log1p(-x)
    plain = GridDensity(0.0, 1.0, x, lv)
    mapped = GridDensity(0.0, 1.0, x, lv, t_nodes=x, t_lo=0.0, t_hi=1.0,
                         log_jacobian=np.full_like(x, 2.0))
    assert math.isclose(integrate(mapped).log_value, integrate(plain).log_value + 2.0,
                        rel_tol=0.0, abs_tol=1e-13)


def test_integrate_leaves_a_writeable_density_unchanged():
    # a caller may make a density's own arrays writeable again; integrate
    # shifts only its own temporaries in place
    for d in (beta_density(2.0, 3.0), gamma_density(2.0)):
        back = replace(d, nodes=d.nodes.copy(), log_values=d.log_values.copy(),
                       t_nodes=d.t_nodes.copy(), log_jacobian=d.log_jacobian.copy())
        for arr in (back.nodes, back.log_values, back.t_nodes, back.log_jacobian):
            arr.setflags(write=True)
        before = back.log_values.copy()
        assert integrate(back) == integrate(d)
        assert np.array_equal(back.log_values, before)


def test_the_truncation_ladder_flags_a_tail_the_cap_fit_misses():
    # x = 2**(k/8): every eighth node is twice as far from 0, so the
    # ladder's doubling windows are exact. The innermost node is pulled
    # down, so the cap's two-node fit is steep and leaves 1/x unflagged.
    x = 2.0 ** (np.arange(-320, 0) / 8.0)
    lx = np.log(x)

    def verdict(lv):
        lv = lv.copy()
        lv[0] -= 5.0
        res = integrate(GridDensity(0.0, 1.0, x, lv))
        return res.diverged, res.detail

    flagged = (True, "lower tail contributions not stabilizing")
    assert verdict(-lx) == flagged
    assert verdict(-0.5 * lx) == (False, "")
    # 1/x only below 2**-24 and x**-1/2 beyond: the windows nearest the
    # endpoint decide, and the farthest ones shrink toward it
    knee = -24.0 * math.log(2.0)
    assert verdict(np.where(lx < knee, -lx, -0.5 * (lx + knee))) == flagged


def test_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    code = ("import numpy as np\n"
            "from prior_forge import bounded_density, integrate\n"
            "d = bounded_density(lambda x: 1.5 * np.log(x) + 2.5 * np.log1p(-x), "
            "0.0, 1.0, n=20001)\n"
            "res = integrate(d)\n"
            "print(res.value.hex(), res.abs_error_estimate.hex())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def _kernel(family, p, q):
    if family == "beta":
        return bounded_density(
            lambda x: (p - 1.0) * np.log(x) + (q - 1.0) * np.log1p(-x), 0.0, 1.0)
    return halfline_density(lambda v: (p - 1.0) * np.log(v) - q * v)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(family=st.sampled_from(["beta", "gamma"]),
       p=st.floats(-0.5, 20.0).filter(lambda p: abs(p) > 0.05),
       q=st.floats(0.05, 20.0),
       c=st.floats(-50.0, 50.0))
def test_shift_moves_log_value_by_the_shift(family, p, q, c):
    base = _kernel(family, p, q)
    res, moved = integrate(base), integrate(base.shifted(c))
    assert (moved.converged, moved.diverged) == (res.converged, res.diverged)
    if not res.diverged:
        assert abs(moved.log_value - (res.log_value + c)) <= \
            1e-12 * max(1.0, abs(res.log_value + c))


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(family=st.sampled_from(["beta", "gamma"]),
       p=st.floats(0.3, 20.0), q=st.floats(0.3, 20.0), c=st.floats(-50.0, 50.0))
def test_normalize_is_idempotent_on_random_kernels(family, p, q, c):
    once = normalize(_kernel(family, p, q).shifted(c))
    twice = normalize(once)
    assert twice.normalized and np.array_equal(twice.log_values, once.log_values)
    # with the flag cleared, a normalized density integrates to 1 again
    again = normalize(once.with_log_values(once.log_values))
    assert np.max(np.abs(again.log_values - once.log_values)) <= 1e-12
