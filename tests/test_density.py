import math

import numpy as np
import pytest

from prior_forge import (GridDensity, InputError, beta_density, bounded_nodes,
                         gamma_density, improper_flat, normal_density,
                         read_density, write_density)
from prior_forge.density import halfline_density, realline_density
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
