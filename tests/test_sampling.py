"""The gamma rows behind dirichlet_equivalence_report, normalized."""

import numpy as np

from prior_forge.reparam import _gamma_rows
from prior_forge.streams import RandomStream


def _draw(stream, shape, count, scale=1.0):
    g, totals = _gamma_rows(stream.generator(), shape, (count, np.size(shape)), scale)
    return g / totals[:, None]


def test_gamma_scale_acts_linearly():
    # the scale multiplies the standard draws, so it cancels in each row
    a = _draw(RandomStream(7, 3), (1.7,) * 4, 1000)
    b = _draw(RandomStream(7, 3), (1.7,) * 4, 1000, scale=2.5)
    np.testing.assert_allclose(b, a, rtol=1e-15)


def test_gamma_deterministic_per_stream():
    x = _draw(RandomStream(42, 1), (1.0, 1.0), 50)
    y = _draw(RandomStream(42, 1), (1.0, 1.0), 50)
    z = _draw(RandomStream(42, 2), (1.0, 1.0), 50)
    np.testing.assert_array_equal(x, y)
    assert not np.array_equal(x, z)


def test_dirichlet_rows_on_simplex():
    w = _draw(RandomStream(3, 0), (0.5, 1.5, 2.0), 4000)
    assert w.shape == (4000, 3)
    assert np.all(w >= 0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_marginal_means():
    alphas = (0.5, 1.0, 2.5)
    w = _draw(RandomStream(11, 0), alphas, 100_000)
    tot = sum(alphas)
    for j, a in enumerate(alphas):
        mean = a / tot
        var = a * (tot - a) / (tot**2 * (tot + 1))
        se = np.sqrt(var / len(w))
        assert abs(w[:, j].mean() - mean) < 4 * se
