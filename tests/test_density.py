import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prior_forge import (GridDensity, InputError, beta_density, bounded_nodes,
                         gamma_density, improper_flat, normal_density,
                         read_density, write_density)
from prior_forge.density import (_bounded_grid, _check_log_values, _halfline_grid,
                                 halfline_density, realline_density)
from prior_forge.special import log_beta, log_gamma
from prior_forge.util import sorted_quantile


def test_nodes_must_be_strictly_increasing():
    nodes = np.linspace(0.1, 0.9, 20)
    nodes[5] = nodes[4]
    with pytest.raises(InputError):
        GridDensity(0.0, 1.0, nodes, np.zeros(20))


def test_minimum_node_count_enforced():
    with pytest.raises(InputError):
        GridDensity(0.0, 1.0, np.linspace(0.1, 0.9, 15), np.zeros(15))


def test_rejects_nan_and_positive_inf_log_values():
    nodes = np.linspace(0.1, 0.9, 20)
    bad = np.zeros(20)
    bad[3] = math.nan
    with pytest.raises(InputError):
        GridDensity(0.0, 1.0, nodes, bad)
    bad[3] = math.inf
    with pytest.raises(InputError):
        GridDensity(0.0, 1.0, nodes, bad)


def test_negative_inf_log_values_are_valid():
    nodes = np.linspace(0.1, 0.9, 20)
    lv = np.zeros(20)
    lv[0] = -math.inf
    d = GridDensity(0.0, 1.0, nodes, lv)
    assert d.log_values[0] == -math.inf


def test_nodes_outside_domain_rejected():
    nodes = np.linspace(0.1, 1.1, 20)
    with pytest.raises(InputError):
        GridDensity(0.0, 1.0, nodes, np.zeros(20))


def test_arrays_are_immutable():
    d = beta_density(2.0, 2.0)
    with pytest.raises(ValueError):
        d.nodes[0] = 0.5


def test_bounded_nodes_layout():
    t = bounded_nodes(0.0, 1.0)
    assert len(t) == 4097
    assert t[0] == pytest.approx(1e-10, rel=1e-6)
    assert t[-1] == pytest.approx(1.0 - 1e-10, rel=1e-6)
    assert np.all(np.diff(t) > 0)


def test_halfline_map_jacobian_consistent():
    # numerical dx/dt along the map must match the stored log jacobian
    d = gamma_density(2.0)
    dx = np.gradient(d.nodes)
    dt = np.gradient(d.t_nodes)
    np.testing.assert_allclose(np.log(dx / dt)[10:-10], d.log_jacobian[10:-10],
                               atol=5e-3)


def test_realline_map_jacobian_consistent():
    d = normal_density()
    dx = np.gradient(d.nodes)
    dt = np.gradient(d.t_nodes)
    np.testing.assert_allclose(np.log(dx / dt)[100:-100],
                               d.log_jacobian[100:-100], atol=5e-3)


def test_same_grid_detects_shared_and_distinct_grids():
    a = beta_density(0.5, 0.5)
    b = beta_density(1.5, 1.5)
    c = beta_density(0.5, 0.5, n=1025)
    assert a.same_grid(b)
    assert not a.same_grid(c)
    assert not a.same_grid(normal_density())


def test_with_log_values_shares_grid_and_map():
    a = beta_density(0.5, 0.5)
    b = a.with_log_values(a.log_values + 1.0)
    assert a.same_grid(b)
    assert not b.normalized


def test_with_log_values_validates_the_new_values_and_shares_the_rest():
    a = normal_density(0.0, 1.0)
    b = a.with_log_values(a.log_values - 1.0, normalized=True, note="shifted")
    # the parent's validated arrays and rule slot, not copies of them
    assert b.nodes is a.nodes and b.t_nodes is a.t_nodes
    assert b.log_jacobian is a.log_jacobian and b._rule_slot is a._rule_slot
    assert (b.normalized, b.note) == (True, "shifted")
    assert not b.with_log_values(b.log_values).normalized
    np.testing.assert_array_equal(b.log_values, a.log_values - 1.0)
    with pytest.raises(ValueError):
        b.log_values[0] = 0.0
    n = len(a.nodes)
    for bad in (np.zeros(n - 1), np.zeros((n, 1)), np.full(n, math.nan),
                np.full(n, math.inf)):
        with pytest.raises(InputError):
            a.with_log_values(bad)
    lv = np.zeros(n)
    lv[-1] = -math.inf
    assert a.with_log_values(lv).log_values[-1] == -math.inf


def test_csv_round_trip_is_exact(tmp_path):
    d = beta_density(0.5, 0.5)
    path = str(tmp_path / "beta.csv")
    write_density(d, path)
    back = read_density(path)
    assert back.domain_lo == d.domain_lo
    assert back.domain_hi == d.domain_hi
    assert back.normalized == d.normalized
    np.testing.assert_array_equal(back.nodes, d.nodes)
    np.testing.assert_array_equal(back.log_values, d.log_values)


def test_csv_round_trip_infinite_domain(tmp_path):
    d = gamma_density(2.0)
    path = str(tmp_path / "gamma.csv")
    write_density(d, path)
    back = read_density(path)
    assert back.domain_hi == math.inf
    np.testing.assert_array_equal(back.nodes, d.nodes)


def test_csv_preserves_negative_inf(tmp_path):
    nodes = np.linspace(0.1, 0.9, 20)
    lv = np.zeros(20)
    lv[0] = -math.inf
    d = GridDensity(0.0, 1.0, nodes, lv)
    path = str(tmp_path / "zeros.csv")
    write_density(d, path)
    back = read_density(path)
    assert back.log_values[0] == -math.inf


def test_reader_rejects_non_monotone_abscissae(tmp_path):
    path = tmp_path / "bad.csv"
    rows = "\n".join(f"{x},0.0" for x in [0.1, 0.2, 0.2] + list(
        np.linspace(0.3, 0.9, 17)))
    path.write_text("# domain=0,1 normalized=0\n" + rows + "\n")
    with pytest.raises(InputError):
        read_density(str(path))


def test_reader_rejects_missing_or_malformed_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.1,0.0\n0.2,0.0\n")
    with pytest.raises(InputError):
        read_density(str(path))
    path.write_text("# domain=0,1 normalized=2\n0.1,0.0\n")
    with pytest.raises(InputError):
        read_density(str(path))
    path.write_text("# domain=zero,1 normalized=0\n0.1,0.0\n")
    with pytest.raises(InputError):
        read_density(str(path))


def test_reader_skips_extra_comment_lines(tmp_path):
    d = beta_density(2.0, 2.0)
    path = str(tmp_path / "extra.csv")
    write_density(d, path, extra_header=["config: seed=0", "anything"])
    back = read_density(path)
    np.testing.assert_array_equal(back.nodes, d.nodes)


def test_improper_flat_variants():
    for lo, hi in [(0.0, 1.0), (0.0, math.inf), (-math.inf, math.inf)]:
        d = improper_flat(lo, hi)
        assert not d.normalized
        assert np.all(d.log_values == 0.0)


def test_constructor_parameter_validation():
    with pytest.raises(InputError):
        beta_density(0.0, 1.0)
    with pytest.raises(InputError):
        gamma_density(1.0, -2.0)
    with pytest.raises(InputError):
        normal_density(sd=0.0)
    with pytest.raises(InputError):
        halfline_density(lambda x: x, scale=-1.0)
    with pytest.raises(InputError):
        realline_density(lambda x: x, scale=0.0)


def test_improper_flat_rejects_half_open_lower_support():
    with pytest.raises(InputError, match=r"\[-inf, 0"):
        improper_flat(-math.inf, 0.0)
    with pytest.raises(InputError, match="lo < hi"):
        improper_flat(1.0, 0.0)


def test_sorted_quantile_matches_numpy_bit_for_bit():
    # _derive_map takes a real-line grid's quartiles from its sorted nodes
    rng = np.random.default_rng(11)
    grids = [normal_density(mu, sd, n).nodes for mu, sd, n in
             ((0.0, 1.0, 2049), (3.0, 0.01, 2049), (-5.0, 100.0, 2048), (1e6, 2.0, 17))]
    grids += [np.sort(rng.standard_normal(n) * np.exp(5.0 * rng.standard_normal(n)))
              for n in (1, 2, 3, 4, 5, 6, 17, 1000, 4097) for _ in range(5)]
    for nodes in grids:
        for q in (0.25, 0.75):
            got = np.float64(sorted_quantile(nodes, q))
            assert got.tobytes() == np.quantile(nodes, q).tobytes(), (len(nodes), q)


# ---------------------------------------------------------------------------
# the log basis a node set shares


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(a=st.floats(1e-4, 50.0), b=st.floats(1e-4, 50.0))
def test_beta_density_is_its_closed_form_on_the_template_nodes(a, b):
    x = _bounded_grid(0.0, 1.0, 4097).nodes
    want = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - log_beta(a, b)
    assert beta_density(a, b).log_values.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(shape=st.floats(1e-4, 50.0), scale=st.floats(1e-4, 50.0))
def test_gamma_density_is_its_closed_form_on_the_template_nodes(shape, scale):
    x = _halfline_grid(scale, 4097, 1e-10, 1e4, 0.0).nodes
    want = ((shape - 1.0) * np.log(x) - x / scale
            - (log_gamma(shape) + shape * math.log(scale)))
    assert gamma_density(shape, scale).log_values.tobytes() == want.tobytes()


def test_densities_on_one_layout_share_one_read_only_basis():
    for a, b in ((beta_density(0.5, 0.5), beta_density(2.0, 3.0)),
                 (gamma_density(2.0), gamma_density(0.5)),
                 (beta_density(2.0, 3.0), improper_flat(0.0, 1.0))):
        slot = a._rule_slot
        assert slot is b._rule_slot and slot.x is a.nodes
        assert slot.log_x is b._rule_slot.log_x
        assert not slot.log_x.flags.writeable
        assert np.array_equal(slot.log_x, np.log(a.nodes))
    beta = beta_density(2.0, 3.0)._rule_slot
    assert beta.log1m_x is beta_density(4.0, 1.5)._rule_slot.log1m_x
    assert not beta.log1m_x.flags.writeable


def test_an_unpickled_density_is_read_only():
    for d in (beta_density(2.0, 3.0), gamma_density(2.0)):
        back = pickle.loads(pickle.dumps(d))
        arrays = (back.nodes, back.log_values, back.t_nodes, back.log_jacobian)
        assert not any(arr.flags.writeable for arr in arrays)
    # a filled basis pickles with the slot, which keeps sharing the nodes
    d = beta_density(2.0, 3.0)
    want = (d._rule_slot.log_x, d._rule_slot.log1m_x)
    slot = pickle.loads(pickle.dumps(d))._rule_slot
    for got, arr in zip((slot.log_x, slot.log1m_x), want):
        assert not got.flags.writeable and got.tobytes() == arr.tobytes()
    assert not slot.t_nodes.flags.writeable


@pytest.mark.parametrize("values, ok", [
    ([0.0] * 16, True),
    ([-math.inf] * 16, True),
    ([-math.inf, 0.0] * 8, True),
    ([1e308, -1e308] * 8, True),
    ([math.nan] + [0.0] * 15, False),
    ([0.0] * 15 + [math.nan], False),
    ([-math.inf] * 15 + [math.nan], False),
    ([math.inf] + [0.0] * 15, False),
    ([-math.inf] * 15 + [math.inf], False),
    ([math.nan, math.inf] + [-math.inf] * 14, False),
    ([math.nan] * 16, False),
])
def test_check_log_values_rejects_nan_and_positive_inf_anywhere(values, ok):
    lv = np.array(values)
    if ok:
        _check_log_values(lv)
    else:
        with pytest.raises(InputError, match=r"^log_values must not contain NaN or \+inf$"):
            _check_log_values(lv)
