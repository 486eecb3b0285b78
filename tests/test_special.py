import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prior_forge
from prior_forge import InputError, log_beta, log_gamma
from prior_forge.special import _betainc, _kolmogi

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


def test_no_module_names_scipy():
    # the package needs numpy alone; a module that names scipy would put it
    # back on the import path of every command that loads the module
    package = Path(prior_forge.__file__).parent
    named = [str(p.relative_to(package)) for p in sorted(package.rglob("*.py"))
             if "scipy" in p.read_text()]
    assert named == []


def _mp_betainc(a, b, x):
    """I_x(a, b) and x times the Beta(a, b) pdf at x, from mpmath."""
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    value = mpmath.betainc(a, b, 0, x, regularized=True)
    x_pdf = mpmath.exp(a * mpmath.log(x) + (b - 1) * mpmath.log1p(-x)
                       - mpmath.log(mpmath.beta(a, b)))
    return value, x_pdf


def _betainc_tolerance(value, x_pdf):
    """1e-13 relative, plus what a double evaluation cannot avoid: a 1-ulp
    change of x moves I by kappa = x f(x) / I ulp, and I = exp(log I) moves
    by |log I| ulp with the rounding of its exponent. The absolute 1e-305
    covers values that underflow."""
    kappa = float(x_pdf / value) if value > 0 else 0.0
    log_value = abs(float(mpmath.log(value))) if value > 0 else 0.0
    return (1e-13 + 2.0 ** -52 * (kappa + log_value)) * float(value) + 1e-305


_shape = st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(a=_shape, b=_shape, x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_betainc_against_mpmath(a, b, x):
    value, x_pdf = _mp_betainc(a, b, x)
    got = float(_betainc(a, b, x))
    assert abs(got - float(value)) <= _betainc_tolerance(value, x_pdf), \
        f"I_{x!r}({a!r}, {b!r}) = {got!r}, mpmath {float(value)!r}"


# components of the `compare --m 10000 --n 10 --r0 1` mixtures: the observed
# cell has a = 10 + v/m and b = v (1 - 1/m), the unobserved one a = v/m and
# b = 10 + v - v/m, for v across the v-grid
_COMPARE_SHAPES = [(10.0 + v / 1e4, v - v / 1e4) for v in (1e-4, 0.37, 41.0, 1e4)] + \
                  [(v / 1e4, 10.0 + v - v / 1e4) for v in (1e-4, 0.37, 41.0, 1e4)]


@pytest.mark.parametrize("a,b", _COMPARE_SHAPES)
def test_betainc_on_compare_components(a, b):
    for x in (1e-300, 1e-30, 1e-5, 1e-3, 0.05, 0.5, 0.9, 1.0 - 2.0 ** -52):
        value, _ = _mp_betainc(a, b, x)
        got = float(_betainc(a, b, x))
        assert abs(got - float(value)) <= 1e-12 * float(value) + 1e-305, (a, b, x, got)
    # the array path, and log B passed in, give the same values
    xs = np.array([1e-30, 1e-3, 0.5, 0.9])
    for log_b in (None, log_beta(a, b)):
        np.testing.assert_array_equal(_betainc(a, b, xs, log_b),
                                      [_betainc(a, b, x) for x in xs])


def test_betainc_endpoints():
    np.testing.assert_array_equal(_betainc(np.array([0.5, 3.0]), 2.0, np.array([0.0, 1.0])),
                                  [0.0, 1.0])


def test_kolmogi_matches_the_tabulated_one_percent_point():
    # scipy.special.kolmogi(0.01), bit for bit
    assert _kolmogi(0.01) == 1.6276236115189504


def test_vectorized_over_arrays():
    xs = np.array([0.5, 1.0, 2.0])
    out = log_gamma(xs)
    assert out.shape == xs.shape
    assert abs(out[1]) == 0.0


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return type(value), value.hex()


@pytest.mark.parametrize("x", [0, -1, math.inf, math.nan, 1e-300, True, False,
                               np.float32(2.5), np.int64(3), 2.5])
def test_scalar_and_zero_dim_array_arguments_agree(x):
    # scalars take a shortcut past the array checks; it must accept, refuse
    # and compute exactly as the array path does
    zero_dim = np.asarray(x)
    assert _outcome(log_gamma, x) == _outcome(log_gamma, zero_dim)
    for args, arrays in [((x, 3.1), (zero_dim, 3.1)), ((2.5, x), (2.5, zero_dim)),
                         ((x, x), (zero_dim, zero_dim))]:
        assert _outcome(log_beta, *args) == _outcome(log_beta, *arrays)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_rejects_nonpositive_arguments(bad):
    with pytest.raises(InputError):
        log_gamma(bad)
    with pytest.raises(InputError):
        log_beta(bad, 1.0)
