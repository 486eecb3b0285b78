import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prior_forge.errors import InputError
from prior_forge.reparam import (_KS_BLOCK, _gamma_rows, _ks_statistic,
                                 _stick_break_rows,
                                 dirichlet_equivalence_report,
                                 ordered_prior_diagnostics)
from prior_forge.special import _betainc
from prior_forge.streams import RandomStream
from prior_forge.util import median


def test_stick_break_worked_example():
    theta = _stick_break_rows(np.array([[0.5, 0.5]]))[0]
    np.testing.assert_allclose(theta, [0.5, 0.25, 0.25], atol=0)
    assert theta.sum() == 1.0


def test_stick_break_general_values():
    xi = np.array([[0.2, 0.6, 0.3], [0.5, 0.5, 0.5]])
    theta = _stick_break_rows(xi)
    want = [[0.2, 0.8 * 0.6, 0.8 * 0.4 * 0.3, 0.8 * 0.4 * 0.7],
            [0.5, 0.25, 0.125, 0.125]]
    np.testing.assert_allclose(theta, want, rtol=1e-15)
    np.testing.assert_allclose(theta.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_gamma_normalize_rows_are_probability_vectors():
    g, totals = _gamma_rows(RandomStream(1, 0).generator(), 0.5, (1000, 5), 2.0)
    w = g / totals[:, None]
    assert w.shape == (1000, 5)
    assert np.all(w > 0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_equivalence_report_passes_for_symmetric_dirichlet():
    rep = dirichlet_equivalence_report(0.5, 4, 50_000, (0.1, 1.0, 10.0),
                                       RandomStream(77, 0))
    assert rep.all_ok
    assert len(rep.checks) == 3
    for c in rep.checks:
        assert c.mean_ok and c.var_ok and c.ks_ok
        assert c.analytic_mean == pytest.approx(0.25)
    # scale invariance is algebraic, not statistical
    assert rep.exact_invariance_sup < 1e-14


def test_equivalence_report_deterministic():
    a = dirichlet_equivalence_report(1.0, 3, 2000, (0.5, 2.0), RandomStream(5, 1))
    b = dirichlet_equivalence_report(1.0, 3, 2000, (0.5, 2.0), RandomStream(5, 1))
    assert a == b


def test_equivalence_report_validation():
    with pytest.raises(InputError):
        dirichlet_equivalence_report(1.0, 3, 100, (), RandomStream(0, 0))
    with pytest.raises(InputError):
        dirichlet_equivalence_report(1.0, 3, 100, (1.0, -2.0), RandomStream(0, 0))
    # one draw has no sample variance
    for count in (1, 0):
        with pytest.raises(InputError):
            dirichlet_equivalence_report(1.0, 3, count, (1.0,), RandomStream(0, 0))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(log_a=st.floats(math.log(1e-3), math.log(50.0)),
       m=st.integers(2, 200),
       count=st.one_of(st.sampled_from([1, 2, _KS_BLOCK - 1, _KS_BLOCK, _KS_BLOCK + 1,
                                        2 * _KS_BLOCK + 1, 20_000]),
                       st.integers(1, 5000)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_bounded_ks_equals_the_full_evaluation(log_a, m, count, seed):
    # bit for bit: the bound only decides where the kernel runs, and each
    # point's CDF value does not depend on the points evaluated with it
    a = math.exp(log_a)
    g, totals = _gamma_rows(np.random.default_rng(seed), a, (count, m), 1.0)
    with np.errstate(invalid="ignore"):
        coord = np.sort(g[:, 0] / totals)  # 0/0 when every gamma underflows
    cdf = _betainc(a, (m - 1) * a, coord)
    full = float(max(np.max(cdf - np.arange(0, count) / count),
                     np.max(np.arange(1, count + 1) / count - cdf)))
    assert _ks_statistic(a, (m - 1) * a, coord) == full


def test_ordered_diagnostics_small_m():
    d = ordered_prior_diagnostics(3, 100_000, RandomStream(123, 0))
    assert [r.analytic_mean for r in d.rows] == [0.5, 0.25, 0.25]
    for r in d.rows:
        se = 4.0 / math.sqrt(d.count)  # generous: theta_k has variance < 1
        assert abs(r.empirical_mean - r.analytic_mean) < se
    assert d.mean_sum == pytest.approx(1.0, abs=1e-12)
    # means are 1/2, 1/4, 1/4 against the uniform level 1/3: the second
    # cell is the first to drop below it
    assert d.k_star == 2


def test_ordered_diagnostics_means_halve():
    d = ordered_prior_diagnostics(10, 200_000, RandomStream(9, 0))
    means = np.array([r.empirical_mean for r in d.rows])
    analytic = np.array([r.analytic_mean for r in d.rows])
    assert analytic[-1] == analytic[-2] == 2.0 ** -9
    np.testing.assert_allclose(means, analytic, atol=4e-3)
    # medians drop below means from the second cell on (the first is a
    # symmetric Beta(1/2, 1/2); later cells are right-skewed products)
    medians = np.array([r.empirical_median for r in d.rows])
    assert np.all(medians[1:5] < means[1:5])


def test_median_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(5)
    for shape in [(1,), (2,), (17,), (4096,), (4097,), (9, 4), (10, 3)]:
        a = rng.standard_normal(shape) * np.exp(5.0 * rng.standard_normal(shape))
        got, want = np.asarray(median(a, axis=0)), np.asarray(np.median(a, axis=0))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_ordered_diagnostics_validation():
    with pytest.raises(InputError):
        ordered_prior_diagnostics(1, 100, RandomStream(0, 0))
    with pytest.raises(InputError):
        ordered_prior_diagnostics(3, 0, RandomStream(0, 0))


def test_conditional_cell_split_matches_binomial():
    # splitting a two-cell vector by total count: the count in the first
    # cell given the total is binomial with the normalized rate; verified
    # by exhaustive enumeration of small Poisson-product tables
    lam = (0.7, 1.9)
    for total in (1, 2, 3):
        p = lam[0] / (lam[0] + lam[1])
        for k in range(total + 1):
            joint = (math.exp(-lam[0]) * lam[0] ** k / math.factorial(k)
                     * math.exp(-lam[1]) * lam[1] ** (total - k)
                     / math.factorial(total - k))
            marg = (math.exp(-sum(lam)) * sum(lam) ** total
                    / math.factorial(total))
            binom = (math.comb(total, k) * p ** k * (1 - p) ** (total - k))
            assert joint / marg == pytest.approx(binom, rel=1e-14)
