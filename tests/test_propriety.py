import dataclasses
import gc
import json
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prior_forge import propriety
from prior_forge.density import (GridDensity, beta_density, exp_tilt_density, flat_density,
                                 gamma_density, halfline_density, improper_flat)
from prior_forge.errors import InputError, NumericalError
from prior_forge.likelihoods import (LikelihoodModel, binomial_counts,
                                     multinomial_counts, normal_location,
                                     poisson_counts, tabulated_likelihood)
from prior_forge.pooling import PoolProblem, PoolWeights
from prior_forge.propriety import holder_check, pooled_propriety, posterior_mass

SQRT2PI = math.sqrt(2 * math.pi)


def test_flat_prior_normal_likelihood_mass():
    v = posterior_mass(improper_flat(-math.inf, math.inf), normal_location((0.0,)))
    assert v.proper
    assert v.mass.value == pytest.approx(SQRT2PI, rel=1e-10)


def test_tilted_prior_normal_likelihood_mass():
    # exp(b*theta) against a unit-variance location kernel shifts the
    # center and multiplies the mass by exp(b*x + b^2/2)
    v = posterior_mass(exp_tilt_density(1.0), normal_location((0.0,)))
    assert v.proper
    assert v.mass.value == pytest.approx(SQRT2PI * math.exp(0.5), rel=1e-8)


def test_quadratic_tilt_posterior_improper():
    base = exp_tilt_density(0.0)
    sq = base.with_log_values(base.nodes**2)
    v = posterior_mass(sq, normal_location((0.0,)))
    assert not v.proper


def test_flat_prior_binomial_mass():
    # integral of theta^2 (1-theta) over (0,1) equals 1/12
    v = posterior_mass(improper_flat(0.0, 1.0), binomial_counts(2, 3))
    assert v.proper
    assert v.mass.value == pytest.approx(1.0 / 12.0, rel=1e-9)


def test_flat_prior_poisson_mass():
    # integral of lambda^2 exp(-lambda) equals 2
    v = posterior_mass(improper_flat(0.0, math.inf), poisson_counts((2,)))
    assert v.proper
    assert v.mass.value == pytest.approx(2.0, rel=1e-8)


def test_posterior_domain_containment_required():
    prior = improper_flat(-math.inf, math.inf)
    with pytest.raises(InputError):
        posterior_mass(prior, binomial_counts(1, 2))


def test_tabulated_likelihood_matches_callable():
    g = gamma_density(2.0)
    lik = tabulated_likelihood(g.nodes, -g.nodes, 0.0, math.inf)
    v = posterior_mass(improper_flat(0.0, math.inf), lik)
    assert v.proper
    assert v.mass.value == pytest.approx(1.0, rel=1e-6)


def test_tabulated_likelihood_must_cover_the_grid():
    # outside its nodes the table would read -inf and truncate the posterior
    lik = tabulated_likelihood(np.linspace(0.5, 3.0, 64), np.zeros(64), 0.0, math.inf)
    with pytest.raises(InputError, match=r"covers \[0.5, 3.0\] but is evaluated "
                                         r"on \[1e-10, 10000.0\]"):
        posterior_mass(improper_flat(0.0, math.inf), lik)
    inside = np.linspace(0.5, 3.0, 7)
    assert np.array_equal(lik.log_on(inside), np.zeros(7))


def test_tabulated_likelihoods_compare_and_hash_by_value():
    x, lv = np.array([0.5, 1.0, 3.0]), np.array([0.0, -1.0, -math.inf])
    a = tabulated_likelihood(x, lv, 0.0, math.inf)
    b = tabulated_likelihood(x.copy(), lv.copy(), 0.0, math.inf)
    assert a == b and hash(a) == hash(b)
    assert hash(pickle.loads(pickle.dumps(a))) == hash(b)
    assert len({a, b, poisson_counts([1, 2])}) == 2
    for other in (tabulated_likelihood(x, lv + 1.0, 0.0, math.inf),
                  tabulated_likelihood(x * 2.0, lv, 0.0, math.inf),
                  tabulated_likelihood(x, lv, 0.25, math.inf)):
        assert a != other
    theta = np.linspace(0.5, 3.0, 11)
    assert a.log_on(theta).tobytes() == np.interp(theta, x, lv).tobytes()


def test_holder_flat_vs_tilt_closed_form():
    # mu flat, nu = exp(theta): the blended posterior mass is
    # sqrt(2*pi) * exp((1-alpha)^2 / 2) for a single observation at zero
    mu = improper_flat(-math.inf, math.inf)
    nu = exp_tilt_density(1.0)
    lik = normal_location((0.0,))
    for alpha in (0.25, 0.5, 0.75):
        rep = holder_check(mu, nu, alpha, lik)
        want_lhs = SQRT2PI * math.exp((1 - alpha) ** 2 / 2.0)
        want_rhs = SQRT2PI * math.exp((1 - alpha) / 2.0)
        assert rep.lhs == pytest.approx(want_lhs, rel=1e-8)
        assert rep.rhs == pytest.approx(want_rhs, rel=1e-8)
        assert rep.holds
        assert not rep.inconclusive


def test_holder_alpha_endpoints_degenerate():
    mu = improper_flat(-math.inf, math.inf)
    nu = exp_tilt_density(1.0)
    lik = normal_location((0.0,))
    r0 = holder_check(mu, nu, 0.0, lik)
    r1 = holder_check(mu, nu, 1.0, lik)
    assert r0.lhs == pytest.approx(SQRT2PI * math.exp(0.5), rel=1e-8)
    assert r1.lhs == pytest.approx(SQRT2PI, rel=1e-8)
    assert r0.holds and r1.holds


def test_holder_symmetric_in_complementary_alpha():
    mu = beta_density(0.5, 0.5)
    nu = beta_density(2.0, 1.0)
    lik = binomial_counts(3, 5)
    a = holder_check(mu, nu, 0.3, lik)
    b = holder_check(nu, mu, 0.7, lik)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@st.composite
def holder_cases(draw):
    """A Beta-binomial or gamma-Poisson Hölder check: (family, shapes,
    data). Shapes and data stay where every posterior reaches the default
    tolerance, so holder_check never refuses a precondition."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 10))
        return "beta", draw(st.tuples(*[st.floats(2.0, 8.0)] * 4)), \
            (draw(st.integers(0, n)), n)
    return "gamma", draw(st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 8.0))), \
        draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=holder_cases(), alpha=st.floats(0.0, 1.0))
def test_holder_masses_match_closed_forms(case, alpha):
    # mu^alpha nu^(1-alpha) is the family's kernel at the blended shapes
    # over the product of the normalizers, so all three masses have
    # closed forms
    family, shapes, data = case
    if family == "beta":
        (a1, b1, a2, b2), (k, n) = shapes, data
        mu, nu, lik = beta_density(a1, b1), beta_density(a2, b2), binomial_counts(k, n)
        p1, p2 = (a1, b1), (a2, b2)
        log_norm = _log_beta

        def log_kernel_mass(a, b):
            return _log_beta(a + k, b + n - k)
    else:
        (s1, s2), total, rate = shapes, sum(data), 1 + len(data)
        mu, nu, lik = gamma_density(s1), gamma_density(s2), poisson_counts(data)
        p1, p2 = (s1,), (s2,)
        log_norm = math.lgamma

        def log_kernel_mass(s):
            return math.lgamma(s + total) - (s + total) * math.log(rate)
    blend = [alpha * x + (1.0 - alpha) * y for x, y in zip(p1, p2)]
    want = [log_kernel_mass(*blend) - alpha * log_norm(*p1) - (1.0 - alpha) * log_norm(*p2),
            log_kernel_mass(*p1) - log_norm(*p1),
            log_kernel_mass(*p2) - log_norm(*p2)]
    rep = holder_check(mu, nu, alpha, lik)
    assert rep.holds
    got = [rep.lhs, rep.mu_mass.mass.value, rep.nu_mass.mass.value]
    assert got == pytest.approx([math.exp(w) for w in want], rel=1e-8)


def _fresh(d):
    """d's values on a new instance, whose memo is empty."""
    return d.with_log_values(d.log_values)


def test_holder_check_evaluates_the_likelihood_once(monkeypatch):
    mu, nu = beta_density(0.5, 0.5), beta_density(2.0, 1.0)
    lik = binomial_counts(3, 10)
    want = (posterior_mass(_fresh(mu), lik).mass, posterior_mass(_fresh(nu), lik).mass)
    calls = []
    log_on = LikelihoodModel.log_on

    def counting(self, theta):
        calls.append(theta)
        return log_on(self, theta)

    monkeypatch.setattr(LikelihoodModel, "log_on", counting)
    rep = holder_check(mu, nu, 0.4, lik)
    assert len(calls) == 1
    assert (rep.mu_mass.mass, rep.nu_mass.mass) == want
    holder_check(mu, nu, 0.4, lik)
    assert len(calls) == 1


def test_holder_alpha_validation():
    mu = beta_density(0.5, 0.5)
    nu = beta_density(2.0, 1.0)
    lik = binomial_counts(1, 2)
    with pytest.raises(InputError):
        holder_check(mu, nu, -0.1, lik)
    with pytest.raises(InputError):
        holder_check(mu, nu, 1.2, lik)


def test_holder_precondition_names_offender():
    # nu = exp(theta^2) has an improper posterior under a location kernel
    base = exp_tilt_density(0.0)
    bad = base.with_log_values(base.nodes**2)
    good = improper_flat(-math.inf, math.inf)
    lik = normal_location((0.0,))
    with pytest.raises(InputError, match="nu"):
        holder_check(good, bad, 0.5, lik)
    with pytest.raises(InputError, match="mu"):
        holder_check(bad, good, 0.5, lik)


def test_pooled_propriety_three_components():
    w = PoolWeights((0.2, 0.3, 0.5))
    comps = (improper_flat(-math.inf, math.inf), exp_tilt_density(0.5),
             exp_tilt_density(-0.25))
    prob = PoolProblem(comps, w)
    rep = pooled_propriety(prob, normal_location((0.0,)))
    assert rep.proper
    assert rep.bound_satisfied
    # pooled tilt is 0.3*0.5 - 0.5*0.25 = 0.025
    want_mass = SQRT2PI * math.exp(0.025**2 / 2.0)
    want_bound = SQRT2PI * math.exp(0.3 * 0.125 + 0.5 * 0.03125)
    assert rep.pooled_mass.value == pytest.approx(want_mass, rel=1e-8)
    assert rep.bound == pytest.approx(want_bound, rel=1e-8)
    assert len(rep.component_masses) == 3
    assert all(v.proper for v in rep.component_masses if v is not None)


def test_pooled_propriety_names_failing_component():
    base = exp_tilt_density(0.0)
    bad = base.with_log_values(base.nodes**2)
    comps = (improper_flat(-math.inf, math.inf), bad)
    prob = PoolProblem(comps, PoolWeights((0.5, 0.5)))
    with pytest.raises(InputError, match="1"):
        pooled_propriety(prob, normal_location((0.0,)))


def test_pooled_propriety_skips_zero_weight_component():
    base = exp_tilt_density(0.0)
    bad = base.with_log_values(base.nodes**2)
    comps = (improper_flat(-math.inf, math.inf), bad)
    prob = PoolProblem(comps, PoolWeights((1.0, 0.0)))
    rep = pooled_propriety(prob, normal_location((0.0,)))
    assert rep.proper
    assert rep.component_masses[1] is None


def test_pooled_bound_is_weighted_geometric_mean_of_masses():
    a = beta_density(0.5, 0.5)
    b = beta_density(2.0, 1.0)
    lik = binomial_counts(2, 4)
    prob = PoolProblem((a, b), PoolWeights((0.4, 0.6)))
    rep = pooled_propriety(prob, lik)
    i_a = posterior_mass(a, lik).mass.value
    i_b = posterior_mass(b, lik).mass.value
    assert rep.bound == pytest.approx(i_a**0.4 * i_b**0.6, rel=1e-10)
    assert rep.pooled_mass.value <= rep.bound + rep.bound_error


def test_pooled_report_scalars_are_python_types():
    prob = PoolProblem((beta_density(0.5, 0.5), beta_density(2.0, 1.0)),
                       PoolWeights((0.4, 0.6)))
    rep = pooled_propriety(prob, binomial_counts(2, 4))
    assert type(rep.bound_satisfied) is bool and type(rep.proper) is bool
    assert type(rep.bound) is float and type(rep.bound_error) is float
    fields = {"bound": rep.bound, "bound_error": rep.bound_error,
              "proper": rep.proper, "bound_satisfied": rep.bound_satisfied}
    assert json.loads(json.dumps(fields)) == fields


def _seeded_pool_cases(seed, count):
    """(mu, nu, alpha, likelihood) over Beta-binomial and gamma-Poisson
    priors with every shape at least 2, so every posterior converges."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha = (0.0, 1.0)[i] if i < 2 else float(rng.uniform())
        s1, s2, r1, r2 = (float(v) for v in rng.uniform(2.0, 8.0, 4))
        if i % 2:
            mu = halfline_density(lambda v: (s1 - 1.0) * np.log(v) - r1 * v)
            nu = halfline_density(lambda v: (s2 - 1.0) * np.log(v) - r2 * v)
            lik = poisson_counts(rng.integers(0, 5, size=int(rng.integers(1, 4))))
        else:
            trials = int(rng.integers(1, 11))
            mu, nu = beta_density(s1, r1), beta_density(s2, r2)
            lik = binomial_counts(int(rng.integers(0, trials + 1)), trials)
        yield mu, nu, alpha, lik


def test_holder_check_and_pooled_propriety_agree_bitwise():
    # fresh instances, so that pooled_propriety computes its masses itself
    # instead of finding holder_check's in the memo
    for mu, nu, alpha, lik in _seeded_pool_cases(17, 40):
        rep = holder_check(mu, nu, alpha, lik)
        pooled = pooled_propriety(
            PoolProblem((_fresh(mu), _fresh(nu)), PoolWeights((alpha, 1.0 - alpha))),
            lik)
        assert pooled.pooled_mass.value == rep.lhs
        assert pooled.pooled_mass.abs_error_estimate == rep.lhs_error
        assert pooled.bound == rep.rhs and pooled.bound_error == rep.rhs_error
        assert rep.holds and pooled.bound_satisfied


def _count_integrals(monkeypatch):
    calls = []
    integrate = propriety.integrate

    def counting(density, tolerance):
        calls.append(density)
        return integrate(density, tolerance)

    monkeypatch.setattr(propriety, "integrate", counting)
    return calls


def _case(mu, nu, alpha, lik):
    """A criterion-01 case: holder_check, then pooled_propriety on its pool."""
    return (holder_check(mu, nu, alpha, lik), pooled_propriety(
        PoolProblem((mu, nu), PoolWeights((alpha, 1.0 - alpha))), lik))


def test_a_pool_case_integrates_each_posterior_once(monkeypatch):
    mu, nu = beta_density(2.5, 3.0), beta_density(4.0, 2.0)
    lik = binomial_counts(3, 7)
    calls = _count_integrals(monkeypatch)
    _case(mu, nu, 0.3, lik)
    assert len(calls) == 3
    # an alpha sweep over fixed (mu, nu, L) integrates the two component
    # posteriors once and each pool once
    alphas = (0.1, 0.45, 0.8, 0.3)
    for alpha in alphas:
        _case(mu, nu, alpha, lik)
        posterior_mass(mu, lik)
    assert len(calls) == 2 + len(alphas)


def test_derived_densities_start_with_an_empty_memo():
    d = beta_density(2.0, 3.0)
    lik = binomial_counts(1, 4)
    holder_check(d, beta_density(3.0, 2.0), 0.5, lik)
    mass = posterior_mass(d, lik).mass.value
    assert d._memo
    derived = (d.with_log_values(d.log_values), d.shifted(1.0), dataclasses.replace(d),
               pickle.loads(pickle.dumps(d)))
    assert [x._memo for x in derived] == [{}] * 4
    assert posterior_mass(d.shifted(1.0), lik).mass.value == pytest.approx(
        math.e * mass, rel=1e-12)


def test_a_memoized_failing_verdict_raises_the_same_error(monkeypatch):
    base = exp_tilt_density(0.0)
    improper = base.with_log_values(base.nodes**2)
    good = improper_flat(-math.inf, math.inf)
    unconverged = beta_density(2.0, 2.0)  # relative error ~4.1e-08 under 0 of 30
    cases = [
        (lambda: holder_check(good, improper, 0.5, normal_location((0.0,))),
         r"nu is not proper \(posterior mass diverges"),
        (lambda: pooled_propriety(PoolProblem((improper, good), PoolWeights((0.5, 0.5))),
                                  normal_location((0.0,))), "component 0"),
        (lambda: holder_check(unconverged, beta_density(3.0, 3.0), 0.5,
                              binomial_counts(0, 30)), "did not reach"),
    ]
    calls = _count_integrals(monkeypatch)
    for run, fragment in cases:
        texts, counts = [], []
        for _ in range(2):
            with pytest.raises(InputError, match=fragment) as err:
                run()
            texts.append(str(err.value))
            counts.append(len(calls))
        # the second call finds the verdict in the memo
        assert texts[0] == texts[1] and counts[0] == counts[1]


def test_the_pool_memo_holds_no_other_density():
    mu, nu, other = beta_density(2.0, 3.0), beta_density(3.0, 2.0), beta_density(5, 5)
    lik = binomial_counts(2, 5)
    _case(mu, nu, 0.4, lik)
    ref = weakref.ref(nu)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del nu
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    # the pool entry of (mu, nu) is not taken for (mu, other)
    got = _case(mu, other, 0.4, lik)
    assert repr(got) == repr(_case(_fresh(mu), _fresh(other), 0.4, lik))


def test_memoized_results_equal_fresh_computations_bitwise():
    cases = list(_seeded_pool_cases(23, 24))
    for i, (mu, nu, alpha, lik) in enumerate(cases):
        # the same instances under a second likelihood of the same family,
        # a second weight and with the components swapped
        runs = [(mu, nu, alpha, lik), (mu, nu, alpha, cases[i - 2][3]),
                (mu, nu, alpha / 2.0, lik), (nu, mu, 1.0 - alpha, lik)]
        memo = [(*_case(*run), posterior_mass(run[0], run[3])) for run in runs + runs]
        fresh = []
        for a, b, w, L in runs:
            fresh.append((holder_check(_fresh(a), _fresh(b), w, L),
                          _case(_fresh(a), _fresh(b), w, L)[1],
                          posterior_mass(_fresh(a), L)))
        assert repr(memo) == repr(fresh + fresh)


def test_two_cell_multinomial_is_the_binomial_kernel():
    x = np.linspace(0.01, 0.99, 50)
    two_cell = multinomial_counts([3, 4])
    assert two_cell.contains(0.0, 1.0)
    assert np.array_equal(two_cell.log_on(x), binomial_counts(3, 7).log_on(x))
    with pytest.raises(InputError):
        multinomial_counts([1, 2, 3])
    with pytest.raises(InputError):
        multinomial_counts([0, 0])


_COUNTS = "counts must be nonnegative integers"
_CELLS = "multinomial likelihoods support exactly 2 cells here"
_TOTAL = "counts must be nonnegative integers with a positive total"


@pytest.mark.parametrize("build, counts, want", [
    # accepted: scalars, int64 and uint8 arrays, integral floats, bools, and
    # ints beyond int64, whose sum must not wrap
    (poisson_counts, 3, (3, 1)),
    (poisson_counts, (1, 2, 3), (6, 3)),
    (poisson_counts, np.array([1, 2], dtype=np.int64), (3, 2)),
    (poisson_counts, np.array([3], dtype=np.uint8), (3, 1)),
    (poisson_counts, [1.0, 2.0], (3, 2)),
    (poisson_counts, np.float32(2.0), (2, 1)),
    (poisson_counts, (True, False), (1, 2)),
    (poisson_counts, [0, 0], (0, 2)),
    (poisson_counts, [2 ** 64], (2 ** 64, 1)),
    (poisson_counts, [2 ** 70], (2 ** 70, 1)),
    (poisson_counts, [2 ** 62, 2 ** 62], (2 ** 63, 2)),
    (poisson_counts, [2 ** 63, 2 ** 63], (2 ** 64, 2)),
    (multinomial_counts, [3, 4], (3, 7)),
    (multinomial_counts, np.array([1, 2]), (1, 3)),
    (multinomial_counts, [1.0, 2.0], (1, 3)),
    (multinomial_counts, (True, False), (1, 1)),
    (multinomial_counts, [0, 5], (0, 5)),
    (multinomial_counts, [2 ** 62, 2 ** 62], (2 ** 62, 2 ** 63)),
    # refused, each with its message
    (poisson_counts, (), _COUNTS),
    (poisson_counts, (-1,), _COUNTS),
    (poisson_counts, (1.5,), _COUNTS),
    (poisson_counts, (math.nan,), _COUNTS),
    (poisson_counts, (math.inf,), _COUNTS),
    (poisson_counts, ("a",), _COUNTS),
    (poisson_counts, ("1",), _COUNTS),
    (poisson_counts, [None], _COUNTS),
    (poisson_counts, [1 + 0j], _COUNTS),
    (poisson_counts, [[1, 2], [3, 4]], _COUNTS),
    (poisson_counts, [[1, 2, 3]], _COUNTS),
    (multinomial_counts, 3, _CELLS),
    (multinomial_counts, (1, 2, 3), _CELLS),
    (multinomial_counts, [[1, 2, 3]], _CELLS),
    (multinomial_counts, ("a",), _CELLS),
    (multinomial_counts, [0, 0], _TOTAL),
    (multinomial_counts, [1.5, 2], _TOTAL),
    (multinomial_counts, [-1, 3], _TOTAL),
    (multinomial_counts, [math.inf, 1], _TOTAL),
    (multinomial_counts, ["a", "b"], _TOTAL),
    (multinomial_counts, [[1, 2], [3, 4]], _TOTAL),
    (multinomial_counts, [[1], [2]], _TOTAL),
])
def test_count_likelihoods_accept_integers_and_refuse_the_rest(build, counts, want):
    if isinstance(want, str):
        with pytest.raises(InputError, match="^" + want):
            build(counts)
    else:
        lik = build(counts)
        assert lik.data == want and all(type(v) is int for v in want)


def _count_grids():
    """A bounded, a half-line and a user-built grid, every node in (0, 1)."""
    x = np.geomspace(1e-6, 0.999, 300)
    return (beta_density(2.0, 3.0), halfline_density(np.zeros_like, scale=1e-5),
            GridDensity(0.0, 1.0, x, np.zeros_like(x)))


@pytest.mark.parametrize("lik", [
    binomial_counts(0, 9), binomial_counts(9, 9), binomial_counts(3, 9),
    poisson_counts([0]), poisson_counts([2, 5]), multinomial_counts([4, 2]),
])
def test_count_kernels_read_the_grid_basis_bit_for_bit(lik):
    for grid in _count_grids():
        via_grid = lik.log_on(grid)
        assert via_grid.tobytes() == lik.log_on(grid.nodes).tobytes()
        assert via_grid.tobytes() == lik.log_on(list(grid.nodes)).tobytes()
