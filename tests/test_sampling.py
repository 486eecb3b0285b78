import numpy as np
import pytest

from prior_forge.errors import InputError
from prior_forge.sampling import sample_dirichlet, sample_gamma
from prior_forge.streams import RandomStream


def test_gamma_moments_match_shape_scale():
    stream = RandomStream(101, 0)
    x = sample_gamma(2.5, 3.0, 200_000, stream)
    assert x.shape == (200_000,)
    assert np.all(x > 0)
    mean, var = 2.5 * 3.0, 2.5 * 9.0
    se_mean = np.sqrt(var / len(x))
    assert abs(x.mean() - mean) < 4 * se_mean
    # variance of the sample variance via the fourth central moment
    mu4 = (3 + 6 / 2.5) * var**2 + 2 * var**2  # kurtosis of gamma is 3 + 6/shape
    se_var = np.sqrt((mu4 - var**2) / len(x))
    assert abs(x.var() - var) < 4 * se_var


def test_gamma_scale_acts_linearly():
    a = sample_gamma(1.7, 1.0, 1000, RandomStream(7, 3))
    b = sample_gamma(1.7, 2.5, 1000, RandomStream(7, 3))
    np.testing.assert_allclose(b, 2.5 * a, rtol=1e-15)


def test_gamma_deterministic_per_stream():
    x = sample_gamma(1.0, 1.0, 50, RandomStream(42, 1))
    y = sample_gamma(1.0, 1.0, 50, RandomStream(42, 1))
    z = sample_gamma(1.0, 1.0, 50, RandomStream(42, 2))
    np.testing.assert_array_equal(x, y)
    assert not np.array_equal(x, z)


def test_dirichlet_rows_on_simplex():
    w = sample_dirichlet((0.5, 1.5, 2.0), 4000, RandomStream(3, 0))
    assert w.shape == (4000, 3)
    assert np.all(w >= 0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_marginal_means():
    alphas = (0.5, 1.0, 2.5)
    w = sample_dirichlet(alphas, 100_000, RandomStream(11, 0))
    tot = sum(alphas)
    for j, a in enumerate(alphas):
        mean = a / tot
        var = a * (tot - a) / (tot**2 * (tot + 1))
        se = np.sqrt(var / len(w))
        assert abs(w[:, j].mean() - mean) < 4 * se


def test_sampling_validation():
    s = RandomStream(0, 0)
    with pytest.raises(InputError):
        sample_gamma(0.0, 1.0, 10, s)
    with pytest.raises(InputError):
        sample_gamma(1.0, -2.0, 10, s)
    with pytest.raises(InputError):
        sample_gamma(1.0, 1.0, 0, s)
    with pytest.raises(InputError):
        sample_dirichlet((1.0,), 10, s)
    with pytest.raises(InputError):
        sample_dirichlet((1.0, -1.0), 10, s)


def test_dirichlet_and_gamma_normalization_share_draws():
    from prior_forge.reparam import gamma_normalize_sample

    w = gamma_normalize_sample(0.5, 1.0, 4, 500, RandomStream(5, 0))
    assert np.array_equal(w, sample_dirichlet((0.5,) * 4, 500, RandomStream(5, 0)))
