import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, gammaln

from prior_forge import sparse_multinomial as smn
from prior_forge.errors import InputError
from prior_forge.quadrature import _trapezoid_masses
from prior_forge.sparse_multinomial import (CountVector, HyperPriorSpec,
                                            canonical_counts,
                                            cell_posterior_marginal,
                                            compare_priors, dm_log_marginal,
                                            jeffreys_posterior,
                                            large_m_stability, v_posterior,
                                            v_summary_row, v_summary_table)


def test_count_vector_accessors():
    data = CountVector((0, 3, 0, 1, 1))
    assert data.m == 5
    assert data.n == 5
    assert data.r0 == 3


def test_count_vector_validation():
    with pytest.raises(InputError):
        CountVector((4,))
    with pytest.raises(InputError):
        CountVector((1, -1))
    with pytest.raises(InputError):
        CountVector(())


def test_canonical_counts_layout():
    data = canonical_counts(10, 5, 3)
    assert data.m == 10 and data.n == 5 and data.r0 == 3
    nz = sorted(c for c in data.counts if c > 0)
    assert nz == [1, 1, 3]
    zero_total = canonical_counts(6, 0, 0)
    assert zero_total.n == 0 and zero_total.r0 == 0


def test_canonical_counts_validation():
    with pytest.raises(InputError):
        canonical_counts(1, 0, 0)
    with pytest.raises(InputError):
        canonical_counts(5, 3, 4)  # more occupied cells than observations
    with pytest.raises(InputError):
        canonical_counts(3, 4, 0)  # observations but no occupied cell


def test_jeffreys_posterior_adds_half():
    data = CountVector((2, 0, 1))
    np.testing.assert_array_equal(jeffreys_posterior(data), [2.5, 0.5, 1.5])


def test_cell_posterior_marginal():
    a, b = cell_posterior_marginal((2.5, 0.5, 1.5), 0)
    assert a == 2.5 and b == 2.0
    with pytest.raises(InputError):
        cell_posterior_marginal((2.5, 0.5), 2)
    with pytest.raises(InputError):
        cell_posterior_marginal((2.5, -0.5), 0)


def test_dm_log_marginal_single_observation():
    # one observation in one of two cells: marginal probability of that
    # cell pattern is a/(2a) = 1/2 for every a
    data = CountVector((1, 0))
    for a in (0.1, 0.5, 1.0, 2.0):
        assert dm_log_marginal(data, a) == pytest.approx(math.log(0.5), abs=1e-12)


def test_dm_log_marginal_no_data_is_zero():
    data = CountVector((0, 0, 0))
    assert dm_log_marginal(data, 0.7) == 0.0


def test_dm_log_marginal_closed_form():
    data = CountVector((2, 1, 0))
    for a in (0.25, 1.0, 3.0):
        want = (gammaln(3 * a) - gammaln(3 * a + 3)
                + gammaln(a + 2) - gammaln(a)
                + gammaln(a + 1) - gammaln(a))
        assert dm_log_marginal(data, a) == pytest.approx(want, rel=1e-14)


def test_dm_log_marginal_vectorized_over_a():
    data = CountVector((1, 2, 0, 0))
    a = np.array([0.2, 0.9, 4.0])
    out = dm_log_marginal(data, a)
    assert out.shape == (3,)
    for j, av in enumerate(a):
        assert out[j] == pytest.approx(dm_log_marginal(data, float(av)), rel=1e-15)


def test_dm_log_marginal_permutation_invariant():
    a = np.geomspace(0.01, 100, 7)
    x = dm_log_marginal(CountVector((3, 1, 0, 0, 1)), a)
    y = dm_log_marginal(CountVector((0, 1, 3, 1, 0)), a)
    np.testing.assert_array_equal(x, y)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data(), counts=st.lists(st.integers(0, 50), min_size=2, max_size=12),
       a=st.floats(1e-3, 1e3))
def test_dm_log_marginal_invariant_under_any_permutation(data, counts, a):
    permuted = data.draw(st.permutations(counts))
    grid = np.array([a, 2.0 * a, 0.5 * a])
    assert dm_log_marginal(CountVector(tuple(permuted)), a) == \
        dm_log_marginal(CountVector(tuple(counts)), a)
    np.testing.assert_array_equal(dm_log_marginal(CountVector(tuple(permuted)), grid),
                                  dm_log_marginal(CountVector(tuple(counts)), grid))


def test_flat_hyperprior_posterior_improper():
    # a flat prior on the concentration a makes the v-posterior kernel
    # decay like 1/v^0 at infinity after the data factor saturates, which
    # does not integrate; the finding is reported, not raised
    data = canonical_counts(1000, 3, 3)
    vp = v_posterior(data, HyperPriorSpec("flat-in-a"))
    assert not vp.proper
    assert vp.summary is None
    assert vp.mass.diverged


def test_pareto_hyperprior_posterior_proper():
    data = canonical_counts(1000, 3, 1)
    vp = v_posterior(data, HyperPriorSpec("pareto-v"))
    assert vp.proper
    assert vp.density.normalized
    s = vp.summary
    assert set(s) == {"mode", "median", "mean", "q05", "q95"}
    assert s["mode"] < s["median"] < s["mean"]
    assert s["q05"] < s["median"] < s["q95"]


def test_v_posterior_permutation_invariant():
    hyper = HyperPriorSpec("pareto-v")
    a = v_posterior(CountVector(tuple([2, 1] + [0] * 48)), hyper)
    b = v_posterior(CountVector(tuple([0] * 48 + [1, 2])), hyper)
    np.testing.assert_array_equal(a.density.log_values, b.density.log_values)


def test_truncated_flat_hyperprior_is_proper():
    data = canonical_counts(1000, 3, 3)
    vp = v_posterior(data, HyperPriorSpec("flat-in-a", a_max=50.0))
    assert vp.proper
    assert vp.density.domain_hi == pytest.approx(1000 * 50.0)


def test_grid_file_hyperprior_matches_pareto(tmp_path):
    from prior_forge.density import halfline_density, write_density

    path = tmp_path / "hyper.csv"
    table = halfline_density(lambda v: -2.0 * np.log1p(v), scale=1.0,
                             n=513, lo_frac=1e-5, hi_frac=1e5)
    write_density(table, path)
    data = canonical_counts(500, 4, 2)
    ref = v_posterior(data, HyperPriorSpec("pareto-v"))
    alt = v_posterior(data, HyperPriorSpec("grid-file", path=str(path)))
    assert alt.proper
    for key in ("median", "q05", "q95"):
        assert alt.summary[key] == pytest.approx(ref.summary[key], rel=1e-4)


def _pareto_table(path, lo, hi, n):
    from prior_forge.density import halfline_density, write_density

    table = halfline_density(lambda v: -2.0 * np.log1p(v), scale=1.0, n=n,
                             lo_frac=lo, hi_frac=hi)
    write_density(table, path)
    return table


def test_grid_file_hyperprior_must_cover_the_v_grid(tmp_path):
    # a table over [1e-2, 1e2] would read -inf on the rest of the v-grid
    path = tmp_path / "short.csv"
    _pareto_table(path, 1e-2, 1e2, 257)
    data = canonical_counts(1000, 3, 3)
    assert v_posterior(data, HyperPriorSpec("pareto-v")).proper
    with pytest.raises(InputError, match=r"covers \[0.01, 100.0\] but is evaluated "
                                         r"on \[0.0001, 10000.0\]"):
        v_posterior(data, HyperPriorSpec("grid-file", path=str(path)))


def test_grid_file_hyperprior_is_read_once_per_spec(tmp_path, monkeypatch):
    path = tmp_path / "hyper.csv"
    _pareto_table(path, 1e-5, 1e5, 513)
    reads, read = [], smn.read_density

    def counting_read(p):
        reads.append(p)
        return read(p)

    monkeypatch.setattr(smn, "read_density", counting_read)
    hyper = HyperPriorSpec("grid-file", path=str(path))
    rows = v_summary_table([(1000, 3, r0) for r0 in (1, 2, 3)], hyper)
    assert len(rows) == 3 and reads == [str(path)]


@pytest.mark.parametrize("kind, closed_form", [
    ("pareto-v", lambda v, table: -2.0 * np.log1p(v)),
    ("flat-in-a", lambda v, table: np.zeros_like(v)),
    ("flat-in-log-a", lambda v, table: -np.log(v)),
    # the table, interpolated linearly in log density between its nodes
    ("grid-file", lambda v, table: np.interp(v, table.nodes, table.log_values)),
])
def test_hyperprior_log_kernels_match_closed_forms(tmp_path, kind, closed_form):
    path = tmp_path / "hyper.csv"
    table = _pareto_table(path, 1e-5, 1e5, 513)
    v = np.geomspace(smn.V_GRID_LO, smn.V_GRID_HI, 301)
    got = smn._LOG_HYPER_IN_V[kind](HyperPriorSpec(kind, path=str(path)), v)
    assert np.array_equal(got, closed_form(v, table))


def test_hyper_prior_spec_validation():
    with pytest.raises(InputError):
        HyperPriorSpec("no-such-kind")
    with pytest.raises(InputError):
        HyperPriorSpec("grid-file")  # missing path
    with pytest.raises(InputError):
        HyperPriorSpec("flat-in-a", a_max=-1.0)


def test_v_summary_table_rows():
    hyper = HyperPriorSpec("pareto-v")
    configs = [(1000, 3, 1), (1000, 5, 2)]
    rows = v_summary_table(configs, hyper)
    assert len(rows) == 2
    assert [r["m"] for r in rows] == [1000, 1000]
    assert [r["n"] for r in rows] == [3, 5]
    for r in rows:
        assert r["proper"]
        assert r["hyperprior"] == "pareto-v"
        assert r["q05_v"] < r["median_v"] < r["q95_v"]


def test_v_summary_row_is_the_table_row():
    hyper = HyperPriorSpec("pareto-v")
    row = v_summary_row(canonical_counts(1000, 3, 2), hyper)
    assert v_summary_table([(1000, 3, 2)], hyper) == [row]
    improper = v_summary_row(CountVector((2, 1, 0, 0)), HyperPriorSpec("flat-in-a"))
    assert (improper["m"], improper["n"], improper["r0"]) == (4, 3, 2)
    assert improper["proper"] is False and improper["median_v"] is None


def test_compare_priors_exact_conjugate_columns():
    # m = 1000, three singleton observations: reference posterior means
    # are (c + 1/2)/(m/2 + n); at a = 1/m they are (c + 0.001)/(1 + n)
    data = canonical_counts(1000, 3, 3)
    rows = compare_priors(data, HyperPriorSpec("pareto-v"))
    assert [tuple(r) for r in rows] == [smn.COMPARE_COLUMNS] * 2
    by = {r["cell"]: r for r in rows}
    obs, uno = by["observed"], by["unobserved"]
    assert obs["count"] == 1 and uno["count"] == 0
    assert obs["jeffreys_mean"] == pytest.approx(1.5 / 503.0, abs=1e-15)
    assert uno["jeffreys_mean"] == pytest.approx(0.5 / 503.0, abs=1e-15)
    assert obs["jeffreys_mean"] / uno["jeffreys_mean"] == pytest.approx(3.0, abs=1e-12)
    assert obs["conditional_mean"] == pytest.approx(1.001 / 4.0, abs=1e-15)
    assert uno["conditional_mean"] == pytest.approx(0.001 / 4.0, abs=1e-15)
    # hierarchical mean exists and shrinks the unobserved cell far below
    # the reference value
    assert uno["hierarchical_mean"] is not None
    assert uno["hierarchical_mean"] < uno["jeffreys_mean"]
    for r in rows:
        assert r["jeffreys_lo"] < r["jeffreys_mean"] < r["jeffreys_hi"]
        assert r["hierarchical_lo"] < r["hierarchical_mean"] < r["hierarchical_hi"]


def _mixture_cdf(data, count, posterior):
    """F(x) of the hierarchical cell posterior: Beta(count + v/m,
    n + v - count - v/m) mixed over trapezoid weights of the v-posterior."""
    cell = _trapezoid_masses(posterior)
    w = np.zeros(len(posterior.nodes))
    w[:-1] += 0.5 * cell
    w[1:] += 0.5 * cell
    w /= w.sum()
    a = count + posterior.nodes / data.m
    b = data.n + posterior.nodes - a
    return lambda x: float(np.sum(w * betainc(a, b, x)))


def _bisection_quantile(cdf, q):
    # the 80-step bisection the interval inversion used to run; its
    # resolution is 2^-80
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# every (n, r0) of the sparse-mn benchmark sweep, for m in {100, 1000, 10000}
_SWEEP = [(m, n, r0) for m in (100, 1000, 10000) for n in (3, 5, 10)
          for r0 in range(1, min(n, 5) + 1)]


def _hierarchical_endpoints(m, n, r0):
    data = canonical_counts(m, n, r0)
    hyper = HyperPriorSpec("pareto-v")
    vp = v_posterior(data, hyper)
    rows = compare_priors(data, hyper) if vp.proper else []
    return [(_mixture_cdf(data, r["count"], vp.density), r["hierarchical_lo"],
             r["hierarchical_hi"]) for r in rows]


def test_hierarchical_interval_endpoints_invert_the_mixture_cdf():
    tail = 0.025
    checked = 0
    for m, n, r0 in _SWEEP:
        for cdf, lo, hi in _hierarchical_endpoints(m, n, r0):
            for x, q in ((lo, tail), (hi, 1.0 - tail)):
                if x == sys.float_info.min:
                    # the quantile underflows
                    ok = cdf(x) >= q
                elif x == 1.0:
                    # the mixture holds more than 1 - q within an ulp of 1
                    ok = cdf(np.nextafter(1.0, 0.0)) < q
                else:
                    ok = abs(cdf(x) - q) <= 1e-12
                assert ok, f"m={m} n={n} r0={r0} q={q}: x={x!r}, F(x)={cdf(x)!r}"
                checked += 1
    assert checked == 4 * len(_SWEEP)


@pytest.mark.parametrize("m,n,r0", [(1000, 3, 3), (100, 10, 5), (10000, 5, 2),
                                    (100, 3, 1)])
def test_hierarchical_interval_matches_the_bisection(m, n, r0):
    for cdf, lo, hi in _hierarchical_endpoints(m, n, r0):
        for x, q in ((lo, 0.025), (hi, 0.975)):
            ref = _bisection_quantile(cdf, q)
            if ref > 2.0 ** -80:
                assert abs(x - ref) <= 1e-12, (q, x, ref)


@pytest.mark.parametrize("a,b", [(0.5, 503.5), (1.001, 3.0), (2.5, 0.5), (0.001, 3.999),
                                 (40.0, 60.0)])
def test_single_beta_interval_inverts_the_cdf(a, b):
    # the Jeffreys and conditional columns use the mixture inverter with one
    # component; each endpoint returns its tail probability
    mean, lo, hi = smn._beta_mean_interval(a, b)
    assert mean == a / (a + b)
    for x, q in ((lo, smn._TAIL), (hi, 1.0 - smn._TAIL)):
        if x == sys.float_info.min:
            # the quantile underflows: the smallest normal double already
            # holds more than the tail
            assert betainc(a, b, x) >= q
        else:
            # a CDF error of 1 ulp moves a quantile by about 1/a ulp
            assert abs(betainc(a, b, x) - q) <= 1e-14 * q / min(a, 1.0), (q, x)


@pytest.mark.parametrize("a,b", [(5.5, 10004.5), (5.0, 1e4)])
def test_interval_quantile_beyond_a_flat_bracket_midpoint(a, b):
    # the 97.5 % quantile lies just above the bracket node 1e-3, and the CDF
    # is flat at the bracket's geometric midpoint: Newton steps alone crept
    # from there, ran out of steps and returned a point where F = 0.9996
    # (Beta(5.5, 10004.5), the observed cell of compare --counts 5,5,0,...)
    _, lo, hi = smn._beta_mean_interval(a, b)
    for x, q in ((lo, smn._TAIL), (hi, 1.0 - smn._TAIL)):
        with mpmath.workdps(40):
            f = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert abs(f - q) <= 1e-14, (q, x)


def test_interval_inverter_evaluations_are_bounded(monkeypatch):
    # a step that does not shrink to half the step before last is replaced
    # by bisection, so no quantile runs into the 100-step cap, as Newton
    # steps creeping over a flat CDF could
    betainc_kernel, calls = smn._betainc, []

    def counting(*args):
        calls.append(1)
        return betainc_kernel(*args)

    monkeypatch.setattr(smn, "_betainc", counting)
    worst = 0
    for a in np.geomspace(1e-4, 1e3, 15):
        for b in np.geomspace(1e-4, 2e4, 17):
            calls.clear()
            smn._beta_mean_interval(float(a), float(b))
            worst = max(worst, len(calls))
    # one bracket evaluation, then at most 40 per quantile
    assert worst <= 1 + 2 * 40


def test_underflowing_lower_tail_is_the_smallest_normal_double():
    # Beta(0.001, 3.999), the unobserved cell of the README compare at
    # a = 1/m: its 2.5 % quantile is near 10^-1600
    assert smn._beta_mean_interval(0.001, 3.999)[1] == sys.float_info.min


def test_compare_interval_evaluates_few_incomplete_betas(monkeypatch):
    # the 80-step bisection evaluated 655,680 incomplete-beta elements here
    betainc_kernel, evaluated = smn._betainc, []

    def counting(*args):
        out = betainc_kernel(*args)
        evaluated.append(np.size(out))
        return out

    monkeypatch.setattr(smn, "_betainc", counting)
    compare_priors(canonical_counts(1000, 3, 3), HyperPriorSpec("pareto-v"))
    assert 0 < sum(evaluated) <= 655_680 // 5


def test_compare_priors_at_half_reproduces_reference():
    # conditional posterior at a = 1/2 must agree with the reference
    # columns exactly, arithmetic and intervals alike
    data = CountVector((2, 0, 1, 0))
    rows = compare_priors(data, HyperPriorSpec("pareto-v"), a_point=0.5)
    for r in rows:
        assert r["conditional_mean"] == pytest.approx(r["jeffreys_mean"], abs=1e-15)
        assert r["conditional_lo"] == pytest.approx(r["jeffreys_lo"], abs=1e-12)
        assert r["conditional_hi"] == pytest.approx(r["jeffreys_hi"], abs=1e-12)


def test_compare_priors_improper_hierarchical_is_none():
    data = canonical_counts(1000, 3, 3)
    rows = compare_priors(data, HyperPriorSpec("flat-in-a"))
    for r in rows:
        assert r["hierarchical_mean"] is None
        assert r["hierarchical_lo"] is None


def test_compare_priors_no_data():
    # with no observations there is no occupied cell; the unobserved-cell
    # reference mean is 1/m by symmetry
    data = CountVector((0, 0, 0, 0))
    rows = compare_priors(data, HyperPriorSpec("pareto-v"))
    assert [r["cell"] for r in rows] == ["unobserved"]
    assert rows[0]["jeffreys_mean"] == pytest.approx(0.25, abs=1e-15)


def test_large_m_stability_distances_shrink(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("large_m_stability started an executor")

    # the m values are evaluated in a plain loop
    monkeypatch.setattr(smn, "ThreadPoolExecutor", no_pool)
    out = large_m_stability((3, 1), [100, 1000, 10000], HyperPriorSpec("pareto-v"))
    assert out["m_values"] == [100, 1000, 10000]
    assert len(out["distances"]) == 2
    assert out["decreasing"]


def test_large_m_stability_precondition():
    with pytest.raises(InputError):
        large_m_stability((3, 1), [20, 100], HyperPriorSpec("pareto-v"))
    with pytest.raises(InputError):
        large_m_stability((3, 1), [100], HyperPriorSpec("pareto-v"))
