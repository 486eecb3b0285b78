import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prior_forge
from prior_forge import pooling, sparse_multinomial
from prior_forge.cli import main
from prior_forge.density import (beta_density, exp_tilt_density, flat_density,
                                 gamma_density, improper_flat, normal_density,
                                 read_density, write_density)
from prior_forge.likelihoods import (binomial_counts, multinomial_counts,
                                     normal_location, poisson_counts,
                                     tabulated_likelihood)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_pool_spec(tmp_path, components, weights=None):
    spec = {"components": components}
    if weights is not None:
        spec["weights"] = weights
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_pool_geometric_csv_roundtrip(tmp_path, capsys):
    spec = write_pool_spec(
        tmp_path,
        [{"family": "beta", "a": 0.5, "b": 0.5},
         {"family": "beta", "a": 1.5, "b": 2.5}],
        [0.3, 0.7],
    )
    out = tmp_path / "pool.csv"
    code, stdout, _ = run(capsys, "pool", "--spec", spec, "--out", str(out))
    assert code == 0
    assert stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "# domain=0,1 normalized=1"
    assert any(line.startswith("# config: command=pool") for line in lines[1:8])
    loaded = read_density(out)
    assert loaded.normalized
    assert len(loaded.nodes) >= 16


def test_pool_json_stdout(tmp_path, capsys):
    spec = write_pool_spec(
        tmp_path,
        [{"family": "normal", "mean": 0.0, "sd": 1.0},
         {"family": "exp-tilt", "b": 0.5}],
    )
    code, stdout, _ = run(capsys, "pool", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["config"]["command"] == "pool"
    assert payload["normalized"] is True
    assert len(payload["nodes"]) == len(payload["log_values"])


def test_pool_improper_still_succeeds(tmp_path, capsys):
    spec = write_pool_spec(
        tmp_path,
        [{"family": "flat", "lo": "-inf", "hi": "inf"},
         {"family": "exp-tilt", "b": 1.0}],
    )
    code, stdout, _ = run(capsys, "pool", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["normalized"] is False
    assert "improper" in payload["note"]


def test_pool_arithmetic_kind(tmp_path, capsys):
    spec = write_pool_spec(
        tmp_path,
        [{"family": "beta", "a": 0.5, "b": 0.5},
         {"family": "flat", "lo": 0.0, "hi": 1.0}],
    )
    code, stdout, _ = run(capsys, "pool", "--spec", spec, "--kind", "arithmetic",
                          "--format", "json")
    assert code == 0
    assert json.loads(stdout)["normalized"] is True


def test_holder_json_fields(capsys):
    code, stdout, _ = run(capsys, "holder", "--mu", "flat:lo=-inf,hi=inf",
                          "--nu", "exp-tilt:b=1", "--alpha", "0.5",
                          "--likelihood", "normal", "--data", "0",
                          "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["holds"] is True
    want = math.sqrt(2 * math.pi) * math.exp(0.125)
    assert payload["lhs"] == pytest.approx(want, rel=1e-8)
    assert payload["mu_posterior_mass"] == pytest.approx(math.sqrt(2 * math.pi),
                                                         rel=1e-8)


def test_holder_csv_headers(capsys):
    code, stdout, _ = run(capsys, "holder", "--mu", "beta:a=0.5,b=0.5",
                          "--nu", "beta:a=2,b=1", "--alpha", "0.3",
                          "--likelihood", "binomial", "--data", "3,5")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("# config: command=holder")
    assert lines[1].split(",")[:2] == ["lhs", "rhs"]
    values = lines[2].split(",")
    assert values[4] == "true"  # holds column


def test_holder_violation_exits_two(capsys, monkeypatch):
    import prior_forge.propriety as propriety
    from prior_forge.errors import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("forced violation for the exit-code contract")

    # the holder handler imports holder_check when it runs
    monkeypatch.setattr(propriety, "holder_check", boom)
    code, _, err = run(capsys, "holder", "--mu", "beta:a=0.5,b=0.5",
                       "--nu", "beta:a=2,b=1", "--alpha", "0.3",
                       "--likelihood", "binomial", "--data", "3,5")
    assert code == 2
    assert "numerical failure" in err


def test_sparse_mn_improper_row(capsys):
    code, stdout, _ = run(capsys, "sparse-mn", "--m", "1000", "--n", "3",
                          "--r0", "3", "--hyperprior", "flat-in-a")
    assert code == 0
    lines = stdout.splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert row["proper"] == "false"
    assert row["median_v"] == ""


def test_sparse_mn_proper_row(capsys):
    code, stdout, _ = run(capsys, "sparse-mn", "--m", "1000", "--n", "3",
                          "--r0", "1", "--hyperprior", "pareto-v",
                          "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    row = payload["rows"][0]
    assert row["proper"] is True
    assert row["mode_v"] < row["median_v"] < row["q95_v"]


def test_sparse_mn_counts_argument(capsys):
    code, stdout, _ = run(capsys, "sparse-mn", "--counts", "2,1," + ",".join(["0"] * 48),
                          "--format", "json")
    assert code == 0
    row = json.loads(stdout)["rows"][0]
    assert row["m"] == 50 and row["n"] == 3 and row["r0"] == 2


def test_sparse_mn_configs_sweep(tmp_path, capsys):
    sweep = [{"m": 1000, "n": 3, "r0": 1}, {"m": 1000, "n": 5, "r0": 2}]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    code, stdout, _ = run(capsys, "sparse-mn", "--configs", str(path),
                          "--format", "json")
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert [r["n"] for r in rows] == [3, 5]


def test_compare_exact_columns(capsys):
    code, stdout, _ = run(capsys, "compare", "--m", "1000", "--n", "3",
                          "--r0", "3", "--format", "json")
    assert code == 0
    rows = json.loads(stdout)["rows"]
    by = {r["cell"]: r for r in rows}
    assert by["observed"]["jeffreys_mean"] == pytest.approx(1.5 / 503.0, abs=1e-15)
    assert by["observed"]["conditional_mean"] == pytest.approx(0.25025, abs=1e-15)
    assert by["unobserved"]["conditional_mean"] == pytest.approx(2.5e-4, abs=1e-15)


def test_poisson_equiv(capsys):
    code, stdout, _ = run(capsys, "poisson-equiv", "--a", "0.5", "--m", "4",
                          "--count", "20000", "--betas", "0.5,2",
                          "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["all_ok"] is True
    assert payload["exact_invariance_sup"] < 1e-13
    assert len(payload["rows"]) == 2
    assert all(r["ks_ok"] for r in payload["rows"])


def test_ordered_mn(capsys):
    code, stdout, _ = run(capsys, "ordered-mn", "--m", "5", "--count", "20000")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("# config: command=ordered-mn")
    assert lines[1].startswith("# k_star=")
    assert lines[2].startswith("# mean_sum=")
    assert lines[3].split(",")[0] == "k"
    assert len(lines) == 4 + 5


def test_seed_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "ordered-mn", "--m", "6", "--count", "5000",
                         "--seed", "31", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    code, _, _ = run(capsys, "ordered-mn", "--m", "6", "--count", "5000",
                     "--seed", "32", "--out", str(c))
    assert code == 0
    assert a.read_bytes() != c.read_bytes()


def test_out_files_replace_existing(tmp_path, capsys):
    out = tmp_path / "table.csv"
    out.write_text("stale content")
    code, _, _ = run(capsys, "ordered-mn", "--m", "3", "--count", "1000",
                     "--out", str(out))
    assert code == 0
    assert "stale" not in out.read_text()
    assert out.read_text().startswith("# config:")


def test_bad_inputs_exit_one(tmp_path, capsys):
    # unknown density family
    code, _, err = run(capsys, "holder", "--mu", "cauchy:x=1", "--nu",
                       "beta:a=1,b=1", "--alpha", "0.5",
                       "--likelihood", "binomial", "--data", "1,2")
    assert code == 1 and "error" in err
    # malformed pool spec JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "pool", "--spec", str(bad))
    assert code == 1
    # missing spec file
    code, _, _ = run(capsys, "pool", "--spec", str(tmp_path / "absent.json"))
    assert code == 1
    # missing required argument
    code, _, _ = run(capsys, "holder", "--mu", "beta:a=1,b=1")
    assert code == 1
    # inconsistent counts flags
    code, _, _ = run(capsys, "sparse-mn", "--m", "10")
    assert code == 1
    # unknown subcommand
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1


def test_pool_mixed_supports_rejected(tmp_path, capsys):
    spec = write_pool_spec(
        tmp_path,
        [{"family": "beta", "a": 1.0, "b": 1.0},
         {"family": "normal", "mean": 0.0, "sd": 1.0}],
    )
    code, _, err = run(capsys, "pool", "--spec", spec)
    assert code == 1
    assert "support" in err


def test_pool_grid_file_component(tmp_path, capsys):
    from prior_forge.density import beta_density, write_density

    ref = tmp_path / "ref.csv"
    write_density(beta_density(2.0, 2.0), ref)
    spec = write_pool_spec(
        tmp_path,
        [{"family": "grid-file", "path": str(ref)},
         {"family": "beta", "a": 0.5, "b": 0.5}],
    )
    code, stdout, _ = run(capsys, "pool", "--spec", spec, "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["normalized"] is True


def test_half_open_flat_support_rejected(tmp_path, capsys):
    # (-inf, 0] has no default grid; it must not widen to the real line
    spec = write_pool_spec(tmp_path, [{"family": "flat", "hi": 0},
                                      {"family": "flat", "hi": 0}])
    code, stdout, err = run(capsys, "pool", "--spec", spec)
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and "[-inf, 0.0]" in err
    code, _, err = run(capsys, "holder", "--mu", "flat:hi=0", "--nu", "normal",
                       "--alpha", "0.5", "--likelihood", "normal", "--data", "0")
    assert code == 1
    assert "[-inf, 0.0]" in err and "share one support" not in err


@pytest.mark.parametrize("mu, word", [
    ("normal:mean=0,sdd=5", "sdd"),       # unknown key, once silently dropped
    ("beta:a=1", "'b'"),                  # missing key
    ("gamma:shape=two", "shape"),         # non-numeric value
])
def test_bad_spec_keys_exit_one(capsys, mu, word):
    code, stdout, err = run(capsys, "holder", "--mu", mu, "--nu", "normal",
                            "--alpha", "0.5", "--likelihood", "normal",
                            "--data", "0")
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and word in err


def test_non_numeric_json_spec_value_exits_one(tmp_path, capsys):
    spec = write_pool_spec(tmp_path, [{"family": "beta", "a": None, "b": 1},
                                      {"family": "beta", "a": 1, "b": [2]}])
    code, _, err = run(capsys, "pool", "--spec", spec)
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("command, flag, text", [
    ("pool", "--spec", '{"components": [5, 6]}'),
    ("pool", "--spec", '{"components": 5}'),
    ("pool", "--spec", '{"components": ["flat:lo=0,hi=1"], "weights": {"a": 1}}'),
    ("sparse-mn", "--configs", '[{"m": 1000, "n": 3}]'),
    ("sparse-mn", "--configs", '{"m": 1000, "n": 3, "r0": 1}'),
    ("sparse-mn", "--configs", '[{"m": null, "n": 3, "r0": 1}]'),
])
def test_malformed_json_input_exits_one(tmp_path, capsys, command, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, stdout, err = run(capsys, command, flag, str(path))
    assert code == 1 and stdout == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("config, message", [
    ({"m": 1000.9, "n": 3, "r0": 1}, "config 1: m must be an integer, got 1000.9"),
    ({"m": 1000, "n": 3.2, "r0": 1}, "config 1: n must be an integer, got 3.2"),
    ({"m": 1000, "n": 3, "r0": True}, "config 1: r0 must be an integer, got true"),
], ids=["m-fraction", "n-fraction", "r0-true"])
def test_configs_refuse_booleans_and_fractions(tmp_path, capsys, config, message):
    # int() would run these as (1000, 3, 1)
    path = tmp_path / "configs.json"
    path.write_text(json.dumps([{"m": 1000.0, "n": 3, "r0": 1}, config]))
    code, stdout, err = run(capsys, "sparse-mn", "--configs", str(path))
    assert (code, stdout, err) == (1, "", f"error: {path}: {message}\n")
    # an integral float is a count
    path.write_text(json.dumps([{"m": 1000.0, "n": 3.0, "r0": 1}]))
    code, stdout, _ = run(capsys, "sparse-mn", "--configs", str(path))
    assert code == 0 and stdout.splitlines()[-1].startswith("1000,3,1,pareto-v,true,")


@pytest.mark.parametrize("components, weights, message", [
    # float() would read these as Beta(1, 2) and as weights (1, 0)
    ([{"family": "beta", "a": True, "b": 2}], None,
     "spec 'component 0': a must be a number"),
    ([{"family": "beta", "a": 1, "b": 2}, {"family": "beta", "a": 2, "b": 2}],
     [True, False], "pool weights must be numbers, not true or false"),
], ids=["parameter", "weights"])
def test_pool_spec_refuses_booleans(tmp_path, capsys, components, weights, message):
    spec = write_pool_spec(tmp_path, components, weights)
    code, stdout, err = run(capsys, "pool", "--spec", spec)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("spec, build", [
    ("beta:a=0.5,b=0.5", lambda: beta_density(0.5, 0.5)),
    ("gamma:shape=2", lambda: gamma_density(2.0)),
    ("normal:mean=0,sd=1", lambda: normal_density(0.0, 1.0)),
    ("flat:lo=0,hi=1", lambda: flat_density(0.0, 1.0)),
    ("exp-tilt:b=1", lambda: exp_tilt_density(1.0)),
])
def test_cli_components_match_library_constructors(spec, build):
    # both read one family table, so the tabulations agree bit for bit
    from prior_forge.cli import _build_components

    got, want = _build_components([spec])[0], build()
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.log_values, want.log_values)
    assert got.normalized == want.normalized


@pytest.mark.parametrize("name, data, build", [
    ("normal", "0.5,-1.25", lambda: normal_location([0.5, -1.25])),
    ("binomial", "3,10", lambda: binomial_counts(3, 10)),
    ("poisson", "2,0,5", lambda: poisson_counts([2, 0, 5])),
    ("multinomial", "3,4", lambda: multinomial_counts([3, 4])),
    ("grid-file", "table.csv", lambda: tabulated_likelihood(
        gamma_density(2.0).nodes, gamma_density(2.0).log_values, 0.0, math.inf)),
])
def test_cli_likelihoods_match_library_constructors(tmp_path, monkeypatch,
                                                    name, data, build):
    # --data strings and library calls build the same model, bit for bit
    from prior_forge.cli import _LIKELIHOODS

    monkeypatch.chdir(tmp_path)
    write_density(gamma_density(2.0), "table.csv")
    got, want = _LIKELIHOODS[name](data), build()
    assert (got.family, got.data, got.domain_lo, got.domain_hi) == \
        (want.family, want.data, want.domain_lo, want.domain_hi)
    theta = improper_flat(want.domain_lo, want.domain_hi).nodes
    assert np.array_equal(got.log_on(theta), want.log_on(theta))


def test_cli_choices_are_the_table_keys():
    from prior_forge.cli import _LIKELIHOODS, _build_parser
    from prior_forge.sparse_multinomial import _LOG_HYPER_IN_V

    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    choices = {(command, action.dest): tuple(action.choices)
               for command, sub in subparsers.items()
               for action in sub._actions if action.choices}
    assert choices[("holder", "likelihood")] == tuple(_LIKELIHOODS) == (
        "normal", "binomial", "poisson", "multinomial", "grid-file")
    for command in ("sparse-mn", "compare"):
        assert choices[(command, "hyperprior")] == tuple(_LOG_HYPER_IN_V) == (
            "pareto-v", "flat-in-a", "flat-in-log-a", "grid-file")


def test_tables_that_miss_the_grid_exit_one(tmp_path, capsys, monkeypatch):
    from prior_forge.density import halfline_density

    monkeypatch.chdir(tmp_path)
    write_density(halfline_density(lambda x: -x, n=64, lo_frac=0.5, hi_frac=3.0),
                  "lik.csv")
    code, stdout, err = run(capsys, "holder", "--mu", "gamma:shape=2",
                            "--nu", "gamma:shape=3", "--alpha", "0.3",
                            "--likelihood", "grid-file", "--data", "lik.csv")
    assert code == 1 and stdout == ""
    assert err == ("error: tabulated likelihood: table covers [0.5, 3.0] but is "
                   "evaluated on [1e-10, 10000.0]\n")
    write_density(halfline_density(lambda v: -2.0 * np.log1p(v), n=257,
                                   lo_frac=1e-2, hi_frac=1e2), "hyper.csv")
    code, stdout, err = run(capsys, "sparse-mn", "--m", "1000", "--n", "3",
                            "--r0", "3", "--hyperprior", "grid-file",
                            "--hyper-file", "hyper.csv")
    assert code == 1 and stdout == ""
    assert "covers [0.01, 100.0] but is evaluated on [0.0001, 10000.0]" in err


POOL_SPEC = [{"family": "beta", "a": 0.5, "b": 0.5},
             {"family": "beta", "a": 1.5, "b": 2.5}]


def test_output_bytes_do_not_depend_on_the_thread_count(tmp_path, capsys, monkeypatch):
    spec = write_pool_spec(tmp_path, POOL_SPEC, [0.3, 0.7])
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"m": 1000, "n": 3, "r0": r0} for r0 in (1, 2, 3)]))
    jobs = [("ordered-mn", "--m", "6", "--count", "5000", "--seed", "31"),
            ("pool", "--spec", spec, "--seed", "31"),
            ("ordered-mn", "--m", "6", "--count", "5000", "--seed", "31",
             "--format", "json"),
            ("sparse-mn", "--configs", str(sweep), "--format", "json")]
    outputs = {}
    for threads in (1, 4):
        for module in (pooling, sparse_multinomial):
            monkeypatch.setattr(module, "thread_cap", lambda: threads)
        outputs[threads] = [run(capsys, *job) for job in jobs]
    assert all(code == 0 for code, _, _ in outputs[1])
    assert outputs[1] == outputs[4]


def _run_fresh(tmp_path, code):
    """Stdout of code run in a fresh interpreter that imports this
    checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs the README pool, holder and ordered-mn examples, a pool over a
# real-line grid file, sparse-mn in each input mode under each hyperprior,
# then compare and poisson-equiv, in one fresh interpreter. After the import
# and after each job it reports whether scipy and numpy.ma are loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import prior_forge
loaded = ["scipy" in sys.modules]
masked = ["numpy.ma" in sys.modules]
from prior_forge.cli import main
jobs = [
    ["pool", "--spec", "pool.json", "--out", "pool.csv"],
    ["holder", "--mu", "beta:a=0.5,b=0.5", "--nu", "beta:a=2,b=2",
     "--alpha", "0.4", "--likelihood", "binomial", "--data", "3,10"],
    ["ordered-mn", "--m", "10", "--count", "100000", "--out", "table.csv"],
    ["pool", "--spec", "realline.json", "--out", "realline.csv"],
]
for hyper in ("pareto-v", "flat-in-a", "flat-in-log-a"):
    jobs += [["sparse-mn", "--m", "1000", "--n", "3", "--r0", "3", "--hyperprior", hyper],
             ["sparse-mn", "--counts", "2,1,0,0,0,0", "--hyperprior", hyper],
             ["sparse-mn", "--configs", "sweep.json", "--hyperprior", hyper]]
jobs.append(["compare", "--m", "1000", "--n", "3", "--r0", "3", "--format", "json"])
jobs.append(["poisson-equiv", "--a", "0.5", "--m", "4", "--count", "20000"])
codes = []
for job in jobs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(job))
    loaded.append("scipy" in sys.modules)
    masked.append("numpy.ma" in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded, "masked": masked}))
"""


def test_no_subcommand_imports_scipy_or_numpy_ma(tmp_path):
    write_pool_spec(tmp_path, POOL_SPEC, [0.3, 0.7])
    # a real-line grid file carries no map, so reading it derives one
    write_density(normal_density(0.0, 1.0), tmp_path / "normal.csv")
    (tmp_path / "realline.json").write_text(json.dumps(
        {"components": [{"family": "grid-file", "path": "normal.csv"},
                        {"family": "normal", "mean": 1.0, "sd": 2.0}]}))
    (tmp_path / "sweep.json").write_text(json.dumps(
        [{"m": 100, "n": 3, "r0": 1}, {"m": 1000, "n": 5, "r0": 2}]))
    report = json.loads(_run_fresh(tmp_path, _IMPORT_PROBE))
    assert report["codes"] == [0] * 15
    # neither after the import nor after any job: the package computes its
    # incomplete beta and Kolmogorov quantile in numpy, and numpy.ma
    # (loaded by np.median, np.quantile and np.unique) stays out too
    assert report["loaded"] == [False] * 16
    assert report["masked"] == [False] * 16


def _fresh_modules(tmp_path, code):
    """The module names loaded in a fresh interpreter after it runs code."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_run_fresh(tmp_path, probe).splitlines()[-1]))


def test_package_import_loads_no_submodule(tmp_path):
    loaded = _fresh_modules(tmp_path, "import prior_forge")
    assert "prior_forge" in loaded
    assert not [m for m in loaded if m.startswith("prior_forge.")]


@pytest.mark.parametrize("argv", [
    ["poisson-equiv", "--a", "0.5", "--m", "4", "--count", "2000", "--out", "out.csv"],
    ["ordered-mn", "--m", "10", "--count", "2000", "--out", "out.csv"],
])
def test_sampling_subcommands_load_only_what_they_run(tmp_path, argv):
    loaded = _fresh_modules(tmp_path, "from prior_forge.cli import main\n"
                                      f"if main({argv!r}) != 0: raise SystemExit(1)")
    assert "prior_forge.reparam" in loaded
    unused = {f"prior_forge.{m}" for m in ("density", "quadrature", "pooling", "propriety",
                                           "likelihoods", "sparse_multinomial")}
    assert not sorted(loaded & (unused | {"concurrent.futures"}))


def test_every_public_name_resolves():
    namespace = {}
    exec("from prior_forge import *", namespace)
    assert set(prior_forge.__all__) <= set(namespace)
    for name in prior_forge.__all__:
        value = getattr(prior_forge, name)
        assert namespace[name] is value
        assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError):
        prior_forge.no_such_name
