import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prior_forge
from prior_forge import InputError, log_beta, log_gamma

mpmath.mp.dps = 50


def test_log_gamma_pinned_values():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-12
    assert abs(log_gamma(5.0) - math.log(24.0)) <= 1e-12


def test_log_gamma_against_high_precision_reference():
    # absolute 1e-12 where the magnitude allows it, relative a few ulp
    # everywhere across the working range
    xs = [1e-6, 1e-3, 0.07, 0.5, 1.0, 1.5, 2.0, 7.3, 41.0, 1e3, 1e6]
    for x in xs:
        want = float(mpmath.loggamma(x))
        got = log_gamma(x)
        tol = max(1e-12, 5e-13 * abs(want))
        assert abs(got - want) <= tol, f"x={x}: {got} vs {want}"


def test_log_beta_pinned_values():
    assert log_beta(1.0, 1.0) == 0.0
    assert abs(log_beta(0.5, 0.5) - math.log(math.pi)) <= 1e-12
    assert abs(log_beta(2.0, 3.0) - math.log(1.0 / 12.0)) <= 1e-12


def test_log_beta_against_high_precision_reference():
    pairs = [(0.5, 0.5), (2.0, 3.0), (7.3, 0.4), (100.0, 0.01), (1e3, 1e3)]
    for a, b in pairs:
        want = float(mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b))
        got = log_beta(a, b)
        assert abs(got - want) <= max(1e-12, 5e-13 * abs(want))


def _mp_log_beta(a, b):
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return float(mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b))


@pytest.mark.parametrize("a,b", [(1e-6, 1e6), (1e-3, 1e8), (0.5, 1e7),
                                 (3.0, 1e12), (1e6, 1e6)])
def test_log_beta_lopsided_and_large_pairs(a, b):
    # the plain lgamma(a) + lgamma(b) - lgamma(a+b) loses up to 3.9e-5 here
    want = _mp_log_beta(a, b)
    for got in (log_beta(a, b), log_beta(b, a)):
        assert abs(got - want) <= 1e-11 * abs(want), f"({a}, {b}): {got} vs {want}"


def test_log_gamma_scalars_across_the_documented_range():
    xs = list(np.geomspace(1e-6, 1e6, 97)) + [0.999999, 1.000001, 1.4616321449683622,
                                               1.999999, 2.000001]
    for x in map(float, xs):
        want = float(mpmath.loggamma(x))
        got = log_gamma(x)
        assert isinstance(got, float)
        assert abs(got - want) <= max(1e-12, 4.0 * math.ulp(want)), f"x={x}: {got} vs {want}"


_positive = st.floats(1e-6, 1e6)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(a=_positive, b=_positive)
def test_log_beta_is_symmetric(a, b):
    assert log_beta(a, b) == log_beta(b, a)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(a=_positive, b=_positive)
def test_log_beta_recurrence(a, b):
    # B(a+1, b) = B(a, b) * a/(a+b); relative, with a 1e-12 absolute floor
    # where log B(a+1, b) passes through zero
    lhs = log_beta(a + 1.0, b)
    rhs = log_beta(a, b) + math.log(a / (a + b))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), f"({a}, {b}): {lhs} vs {rhs}"


def test_scalar_and_array_paths_agree():
    # both evaluate math.lgamma, an array element by element, so they agree
    # across the whole documented range, lopsided log_beta pairs included
    xs = np.geomspace(1e-6, 1e6, 97)
    for x, v in zip(xs, log_gamma(xs)):
        assert abs(log_gamma(float(x)) - v) <= 1e-12 * max(1.0, abs(v))
    grid = np.geomspace(1e-6, 1e6, 25)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid))
    for x, y, v in zip(a, b, log_beta(a, b)):
        assert abs(log_beta(float(x), float(y)) - v) <= 1e-12 * max(1.0, abs(v))


def test_only_the_special_module_names_scipy():
    # scipy is imported lazily inside special.py; a module that names it
    # elsewhere would put it back on the import path of scipy-free commands
    package = Path(prior_forge.__file__).parent
    named = [str(p.relative_to(package)) for p in sorted(package.rglob("*.py"))
             if p.name != "special.py" and "scipy" in p.read_text()]
    assert named == []


def test_vectorized_over_arrays():
    xs = np.array([0.5, 1.0, 2.0])
    out = log_gamma(xs)
    assert out.shape == xs.shape
    assert abs(out[1]) == 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_rejects_nonpositive_arguments(bad):
    with pytest.raises(InputError):
        log_gamma(bad)
    with pytest.raises(InputError):
        log_beta(bad, 1.0)
