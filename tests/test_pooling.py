import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prior_forge import pooling, quadrature
from prior_forge.density import (beta_density, exp_tilt_density, flat_density,
                                 improper_flat)
from prior_forge.errors import InputError
from prior_forge.pooling import (PoolProblem, PoolWeights, arithmetic_pool,
                                 equal_weights, geometric_pool, kl_objective,
                                 verify_pool_optimality)
from prior_forge.quadrature import integrate, normalize
from prior_forge.streams import RandomStream


def test_weights_validation():
    PoolWeights((0.25, 0.75))
    with pytest.raises(InputError):
        PoolWeights((0.5, -0.5, 1.0))
    with pytest.raises(InputError):
        PoolWeights((0.5, 0.4))
    with pytest.raises(InputError):
        PoolWeights(())
    with pytest.raises(InputError):
        equal_weights(0)


def test_equal_weights_sum_exactly_one():
    for k in (1, 2, 3, 7, 13):
        w = equal_weights(k)
        assert abs(math.fsum(w.alphas) - 1.0) < 1e-15
        assert len(w) == k


def test_pool_problem_requires_shared_grid():
    a = beta_density(0.5, 0.5)
    b = beta_density(1.5, 2.5, n=1025)
    with pytest.raises(InputError):
        PoolProblem((a, b), equal_weights(2))
    with pytest.raises(InputError):
        PoolProblem((a,), equal_weights(2))


def test_geometric_pool_closure_for_betas():
    # the weighted geometric pool of Beta kernels is again a Beta kernel;
    # comparing against the directly normalized exponent blend is exact
    a = beta_density(0.5, 0.5)
    b = beta_density(1.5, 2.5)
    prob = PoolProblem((a, b), PoolWeights((0.3, 0.7)))
    g = geometric_pool(prob)
    assert g.normalized
    direct = normalize(a.with_log_values(0.3 * a.log_values + 0.7 * b.log_values))
    np.testing.assert_allclose(g.log_values, direct.log_values, atol=1e-10)


def test_geometric_pool_integrates_the_kernel_once(monkeypatch):
    calls = []

    def counting(density, tolerance=1e-8):
        calls.append(density)
        return integrate(density, tolerance)

    monkeypatch.setattr(pooling, "integrate", counting)
    monkeypatch.setattr(quadrature, "integrate", counting)
    prob = PoolProblem((beta_density(0.5, 0.5), beta_density(1.5, 2.5)),
                       PoolWeights((0.3, 0.7)))
    pooled = geometric_pool(prob)
    assert len(calls) == 1 and pooled.normalized


def test_geometric_pool_improper_is_annotated():
    flat = improper_flat(-math.inf, math.inf)
    tilt = exp_tilt_density(1.0)
    prob = PoolProblem((flat, tilt), PoolWeights((0.5, 0.5)))
    g = geometric_pool(prob)
    assert not g.normalized
    assert "improper" in g.note


def test_geometric_pool_invariant_to_component_rescaling():
    a = beta_density(2.0, 3.0)
    b = beta_density(0.7, 1.2)
    w = PoolWeights((0.4, 0.6))
    base = geometric_pool(PoolProblem((a, b), w))
    a2 = a.with_log_values(a.log_values + math.log(1e6))
    b2 = b.with_log_values(b.log_values + math.log(1e-6))
    scaled = geometric_pool(PoolProblem((a2, b2), w))
    np.testing.assert_allclose(scaled.log_values, base.log_values, atol=1e-10)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(shapes=st.lists(st.floats(0.5, 5.0), min_size=4, max_size=4),
       w=st.floats(0.05, 0.95), k=st.integers(0, 1), c=st.floats(-13.8, 13.8))
def test_geometric_pool_invariant_to_any_rescaling(shapes, w, k, c):
    comps = [beta_density(shapes[0], shapes[1]), beta_density(shapes[2], shapes[3])]
    weights = PoolWeights((w, 1.0 - w))
    base = geometric_pool(PoolProblem(tuple(comps), weights))
    comps[k] = comps[k].with_log_values(comps[k].log_values + c)
    scaled = geometric_pool(PoolProblem(tuple(comps), weights))
    assert np.max(np.abs(scaled.log_values - base.log_values)) <= 1e-10


def test_geometric_pool_component_permutation():
    a = beta_density(2.0, 3.0)
    b = beta_density(0.7, 1.2)
    g1 = geometric_pool(PoolProblem((a, b), PoolWeights((0.4, 0.6))))
    g2 = geometric_pool(PoolProblem((b, a), PoolWeights((0.6, 0.4))))
    np.testing.assert_array_equal(g1.log_values, g2.log_values)


def test_zero_weight_component_cannot_poison_pool():
    a = beta_density(2.0, 3.0)
    lv = a.log_values.copy()
    lv[100:200] = -math.inf
    holey = a.with_log_values(lv)
    pooled = geometric_pool(PoolProblem((a, holey), PoolWeights((1.0, 0.0))))
    alone = geometric_pool(PoolProblem((a,), PoolWeights((1.0,))))
    np.testing.assert_array_equal(pooled.log_values, alone.log_values)


def test_arithmetic_pool_is_pointwise_mixture():
    a = beta_density(0.5, 0.5)
    u = flat_density(0.0, 1.0)
    mix = arithmetic_pool(PoolProblem((a, u), PoolWeights((0.5, 0.5))))
    assert mix.normalized
    idx = np.searchsorted(mix.nodes, 0.5)
    x = mix.nodes[idx]
    want = 0.5 / (math.pi * math.sqrt(x * (1 - x))) + 0.5
    assert math.exp(mix.log_values[idx]) == pytest.approx(want, rel=1e-14)
    total = integrate(mix.with_log_values(mix.log_values), 1e-8)
    assert total.converged
    assert total.value == pytest.approx(1.0, rel=1e-8)


def test_arithmetic_pool_rejects_unnormalized_components():
    a = beta_density(0.5, 0.5)
    raw = a.with_log_values(a.log_values + 1.0)
    with pytest.raises(InputError):
        arithmetic_pool(PoolProblem((a, raw), equal_weights(2)))


def test_kl_objective_flat_against_arcsine():
    # closed form: the KL divergence of the uniform density from the
    # arcsine density is log(pi) - 1
    eta = normalize(flat_density(0.0, 1.0))
    prob = PoolProblem((beta_density(0.5, 0.5),), PoolWeights((1.0,)))
    val = kl_objective(eta, prob)
    assert val == pytest.approx(math.log(math.pi) - 1.0, abs=1e-6)


def test_kl_objective_identity_with_pool():
    # d(eta) - d(pool) equals KL(eta || pool) for any candidate eta, which
    # also forces the pool to be the unique minimizer
    a = beta_density(0.5, 0.5)
    b = beta_density(1.5, 2.5)
    prob = PoolProblem((a, b), PoolWeights((0.3, 0.7)))
    pool = geometric_pool(prob)
    eta = normalize(beta_density(2.0, 2.0).with_log_values(
        beta_density(2.0, 2.0).log_values))
    lhs = kl_objective(eta, prob) - kl_objective(pool, prob)
    rhs = kl_objective(eta, PoolProblem((pool,), PoolWeights((1.0,))))
    # agreement is limited by the plain-table mass defect of the
    # endpoint-singular pool, a bit above 1e-9 on this grid
    assert lhs == pytest.approx(rhs, abs=5e-9)
    assert lhs > 0


def test_kl_objective_support_violation_is_infinite():
    a = beta_density(2.0, 2.0)
    lv = a.log_values.copy()
    lv[len(lv) // 2:] = -math.inf
    half = normalize(a.with_log_values(lv))
    full = normalize(flat_density(0.0, 1.0))
    prob = PoolProblem((half,), PoolWeights((1.0,)))
    assert kl_objective(full, prob) == math.inf
    # the reverse direction is finite: the candidate vanishes where the
    # component does not
    prob_full = PoolProblem((full,), PoolWeights((1.0,)))
    assert math.isfinite(kl_objective(half, prob_full))


def test_kl_objective_input_validation():
    a = beta_density(2.0, 2.0)
    prob = PoolProblem((a,), PoolWeights((1.0,)))
    with pytest.raises(InputError):
        kl_objective(a.with_log_values(a.log_values), prob)  # not normalized
    other = normalize(beta_density(1.0, 1.0, n=1025))
    with pytest.raises(InputError):
        kl_objective(other, prob)  # different grid


def test_verify_pool_optimality_margins_nonnegative():
    a = beta_density(0.5, 0.5)
    b = beta_density(1.5, 2.5)
    prob = PoolProblem((a, b), PoolWeights((0.3, 0.7)))
    rep = verify_pool_optimality(prob, 25, RandomStream(2024, 0))
    assert rep.n_perturbations == 25
    assert rep.margins.shape == (25,)
    assert rep.all_nonnegative
    assert rep.min_margin >= 0.0
    assert np.all(rep.epsilons >= 0.01) and np.all(rep.epsilons <= 0.5)


def test_verify_pool_optimality_thread_count_invariance(monkeypatch):
    a = beta_density(0.5, 0.5)
    b = beta_density(1.5, 2.5)
    prob = PoolProblem((a, b), PoolWeights((0.3, 0.7)))
    monkeypatch.setattr(pooling, "thread_cap", lambda: 1)
    r1 = verify_pool_optimality(prob, 8, RandomStream(5, 0))
    monkeypatch.setattr(pooling, "thread_cap", lambda: 4)
    r4 = verify_pool_optimality(prob, 8, RandomStream(5, 0))
    np.testing.assert_array_equal(r1.margins, r4.margins)
    np.testing.assert_array_equal(r1.epsilons, r4.epsilons)


def test_verify_pool_optimality_requires_proper_pool():
    flat = improper_flat(-math.inf, math.inf)
    tilt = exp_tilt_density(1.0)
    prob = PoolProblem((flat, tilt), PoolWeights((0.5, 0.5)))
    with pytest.raises(InputError):
        verify_pool_optimality(prob, 5, RandomStream(0, 0))


def test_verify_pool_optimality_argument_validation():
    prob = PoolProblem((beta_density(2.0, 2.0),), PoolWeights((1.0,)))
    with pytest.raises(InputError):
        verify_pool_optimality(prob, 0, RandomStream(0, 0))
