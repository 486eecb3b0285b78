"""Record every output byte of a fixed list of prior-forge CLI jobs.

    PYTHONPATH=src python tools/cli_bytes.py OUTDIR

Each job calls `prior_forge.cli.main` in-process, from whichever `src/` is
on PYTHONPATH, with its own directory OUTDIR/NNN-name as the working
directory. The job leaves there `argv.txt`, `exit.txt`, `stdout.txt`,
`stderr.txt` and any `--out` file it wrote. An exception that escapes
`main` is recorded in `exit.txt` by its type and message. The input files
are written to OUTDIR/inputs with plain Python, not with the library under
test, and jobs name them by relative path, so two checkouts run with the
same OUTDIR layout give the same bytes wherever the output is the same.
OUTDIR may be relative; it is resolved against the working directory
before the first job changes it. In `stderr.txt` the directory of the
imported package is written as `<prior_forge>`, so that a warning's source
path does not differ between checkouts; its line number is kept.

Run it on two checkouts and compare the two directories with `diff -r`;
`tools/byte_check.py [REV]` does both runs and the comparison in one
command, against a git revision's `src/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import prior_forge
from prior_forge.cli import main

PACKAGE_DIR = os.path.dirname(os.path.abspath(prior_forge.__file__))

SWEEP = [{"m": 1000, "n": 3, "r0": r0} for r0 in (1, 2, 3)]
POOL = {"components": [{"family": "beta", "a": 0.5, "b": 0.5},
                       {"family": "beta", "a": 1.5, "b": 2.5}],
        "weights": [0.3, 0.7]}


def _geomspace(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _log(x):
    return math.log(x) if x > 0 else -math.inf


def _density_csv(lo, hi, nodes, log_pdf):
    """A density file in the package's CSV grid format."""
    lines = [f"# domain={lo!r},{hi!r} normalized=0"]
    lines += [f"{x!r},{log_pdf(x)!r}" for x in nodes]
    return "\n".join(lines) + "\n"


def _inputs() -> dict:
    """File name -> text of every input file the jobs read."""
    bounded = [i / 512 for i in range(513)]
    halfline = _geomspace(1e-12, 1e6, 1025)
    realline = sorted([-x for x in _geomspace(1e-3, 1e12, 512)] + [0.0]
                      + _geomspace(1e-3, 1e12, 512))
    beta_grid = [0.001 + 0.998 * i / 256 for i in range(257)]
    return {
        "pool.json": json.dumps(POOL),
        "pool_gamma.json": json.dumps({"components": [
            {"family": "gamma", "shape": 2.0}, {"family": "gamma", "shape": 0.5}]}),
        "pool_normal.json": json.dumps({"components": [
            {"family": "normal", "mean": 0.0, "sd": 1.0},
            {"family": "normal", "mean": 2.0, "sd": 0.5}], "weights": [0.25, 0.75]}),
        "pool_improper.json": json.dumps({"components": [
            {"family": "flat"}, {"family": "exp-tilt", "b": 1.0}]}),
        "pool_files.json": json.dumps({"components": [
            {"family": "grid-file", "path": "../inputs/beta_a.csv"},
            {"family": "grid-file", "path": "../inputs/beta_b.csv"}]}),
        "pool_realline_file.json": json.dumps({"components": [
            {"family": "grid-file", "path": "../inputs/normal_file.csv"},
            {"family": "normal", "mean": 1.0, "sd": 2.0}]}),
        "pool_empty.json": json.dumps({"components": []}),
        "pool_bad_family.json": json.dumps({"components": [{"family": "cauchy"}]}),
        "pool_bad_weights.json": json.dumps({**POOL, "weights": ["a", 1]}),
        "pool_not_object.json": json.dumps({"components": [5, 6]}),
        "pool_mixed.json": json.dumps({"components": [
            {"family": "beta", "a": 2, "b": 2}, {"family": "gamma", "shape": 2}]}),
        "malformed.json": "{\"components\": [",
        "sweep.json": json.dumps(SWEEP),
        "sweep_missing_r0.json": json.dumps([{"m": 1000, "n": 3}]),
        "sweep_not_list.json": json.dumps({"m": 1000}),
        "beta_a.csv": _density_csv(0.0, 1.0, beta_grid,
                                   lambda x: math.log(6.0 * x * (1.0 - x))),
        "beta_b.csv": _density_csv(0.0, 1.0, beta_grid,
                                   lambda x: 2.0 * math.log(x) + 0.5 * math.log1p(-x)),
        "normal_file.csv": _density_csv(-math.inf, math.inf, realline,
                                        lambda x: -0.5 * x * x),
        "lik_bounded.csv": _density_csv(0.0, 1.0, bounded,
                                        lambda x: 3.0 * _log(x) + 7.0 * _log(1.0 - x)),
        "lik_halfline.csv": _density_csv(0.0, math.inf, halfline,
                                         lambda x: 4.0 * math.log(x) - 3.0 * x),
        "lik_realline.csv": _density_csv(-math.inf, math.inf, realline,
                                         lambda x: -0.5 * (x - 0.5) ** 2),
        "lik_short.csv": _density_csv(0.0, math.inf, [0.5 + i / 25 for i in range(64)],
                                      lambda x: -x),
        "hyper.csv": _density_csv(0.0, math.inf, _geomspace(1e-5, 1e5, 513),
                                  lambda v: -2.0 * math.log1p(v)),
        "hyper_short.csv": _density_csv(0.0, math.inf, _geomspace(1e-2, 1e2, 257),
                                        lambda v: -2.0 * math.log1p(v)),
        "empty.csv": "",
        "no_header.csv": "0.1,0.0\n0.2,0.0\n",
        "decreasing.csv": "# domain=0.0,1.0 normalized=0\n0.5,0.0\n0.4,0.0\n",
        "non_numeric.csv": "# domain=0.0,1.0 normalized=0\n0.5,zero\n",
    }


def _jobs() -> list:
    """(name, argv) of every job, in order."""
    jobs = []

    def add(name, *argv):
        jobs.append((name, list(argv)))

    # README examples
    add("readme-pool", "pool", "--spec", "../inputs/pool.json", "--out", "pool.csv")
    add("readme-holder", "holder", "--mu", "beta:a=0.5,b=0.5", "--nu", "beta:a=2,b=2",
        "--alpha", "0.4", "--likelihood", "binomial", "--data", "3,10")
    add("readme-sparse-mn", "sparse-mn", "--m", "1000", "--n", "3", "--r0", "3")
    add("readme-compare", "compare", "--m", "1000", "--n", "3", "--r0", "3",
        "--format", "json")
    add("readme-poisson-equiv", "poisson-equiv", "--a", "0.5", "--m", "4",
        "--count", "100000", "--seed", "7")
    add("readme-ordered-mn", "ordered-mn", "--m", "10", "--count", "100000",
        "--out", "table.csv")

    # the seeded jobs of acceptance criterion 10, at two seeds
    for seed in ("1729", "1730"):
        add(f"c10-pool-{seed}", "pool", "--spec", "../inputs/pool.json",
            "--seed", seed, "--out", "pool.csv")
        add(f"c10-sweep-{seed}", "sparse-mn", "--configs", "../inputs/sweep.json",
            "--seed", seed, "--out", "vtable.csv")
        add(f"c10-equiv-{seed}", "poisson-equiv", "--a", "0.5", "--m", "4",
            "--count", "20000", "--seed", seed, "--out", "equiv.csv")
        add(f"c10-ordered-{seed}", "ordered-mn", "--m", "6", "--count", "20000",
            "--seed", seed, "--out", "ordered.csv")
        add(f"c10-compare-{seed}", "compare", "--m", "1000", "--n", "3", "--r0", "3",
            "--format", "json", "--seed", seed, "--out", "compare.json")

    # every subcommand in both formats, to stdout and to --out
    for fmt in ("csv", "json"):
        out = ["--format", fmt]
        to_file = out + ["--out", f"out.{fmt}"]
        for spec in ("pool", "pool_gamma", "pool_normal", "pool_improper",
                     "pool_files", "pool_realline_file"):
            add(f"pool-{spec}-{fmt}", "pool", "--spec", f"../inputs/{spec}.json", *out)
        add(f"pool-arithmetic-{fmt}", "pool", "--spec", "../inputs/pool.json",
            "--kind", "arithmetic", *to_file)
        add(f"pool-file-out-{fmt}", "pool", "--spec", "../inputs/pool_files.json",
            *to_file)
        add(f"poisson-equiv-{fmt}", "poisson-equiv", "--a", "1.5", "--m", "3",
            "--count", "5000", "--betas", "0.5,2", *to_file)
        add(f"ordered-mn-{fmt}", "ordered-mn", "--m", "4", "--count", "5000", *out)

        # every --likelihood
        beta = ["--mu", "beta:a=0.5,b=0.5", "--nu", "beta:a=2,b=2"]
        gamma = ["--mu", "gamma:shape=2", "--nu", "gamma:shape=0.5,scale=2"]
        normal = ["--mu", "normal:mean=0,sd=1", "--nu", "exp-tilt:b=0.5"]
        for name, priors, likelihood, data in (
                ("normal", normal, "normal", "0.3,-0.2,1.1"),
                ("binomial", beta, "binomial", "3,10"),
                ("poisson", gamma, "poisson", "1,0,3"),
                ("multinomial", beta, "multinomial", "2,5"),
                ("grid-bounded", beta, "grid-file", "../inputs/lik_bounded.csv"),
                ("grid-halfline", gamma, "grid-file", "../inputs/lik_halfline.csv"),
                ("grid-realline", normal, "grid-file", "../inputs/lik_realline.csv"),
                ("grid-short", gamma, "grid-file", "../inputs/lik_short.csv")):
            argv = ["holder", *priors, "--alpha", "0.3", "--likelihood", likelihood,
                    "--data", data]
            add(f"holder-{name}-{fmt}", *argv, *out)
            add(f"holder-{name}-{fmt}-tol", *argv, "--tol", "1e-4", *to_file)

        # every --hyperprior, with each way of giving the counts
        for kind in ("pareto-v", "flat-in-a", "flat-in-log-a", "grid-file"):
            hyper = ["--hyperprior", kind]
            if kind == "grid-file":
                hyper += ["--hyper-file", "../inputs/hyper.csv"]
            mnr = ["--m", "1000", "--n", "3", "--r0", "3"]
            counts = ["--counts", "4,1,1,0,0,0,0,0,0,0,0,0"]
            add(f"sparse-mn-{kind}-{fmt}", "sparse-mn", *mnr, *hyper, *out)
            add(f"sparse-mn-{kind}-{fmt}-amax", "sparse-mn", *mnr, *hyper,
                "--a-max", "50", *to_file)
            add(f"sparse-mn-{kind}-{fmt}-counts", "sparse-mn", *counts, *hyper, *out)
            add(f"sparse-mn-{kind}-{fmt}-configs", "sparse-mn", "--configs",
                "../inputs/sweep.json", *hyper, *to_file)
            add(f"compare-{kind}-{fmt}", "compare", *mnr, *hyper, *out)
            add(f"compare-{kind}-{fmt}-amax", "compare", *mnr, *hyper,
                "--a-max", "50", *to_file)
            add(f"compare-{kind}-{fmt}-counts", "compare", *counts, *hyper,
                "--a-point", "0.5", *out)

    # --help of the program and of every subcommand
    add("help", "--help")
    for command in ("pool", "holder", "sparse-mn", "compare", "poisson-equiv",
                    "ordered-mn"):
        add(f"help-{command}", command, "--help")

    # bad input: exit 1, or 2 for a numerical failure
    add("bad-no-command")
    add("bad-unknown-command", "sample")
    add("bad-missing-required", "holder", "--mu", "beta:a=1,b=1")
    add("bad-likelihood-name", "holder", "--mu", "beta:a=1,b=1", "--nu", "beta:a=2,b=2",
        "--alpha", "0.5", "--likelihood", "cauchy", "--data", "1")
    add("bad-binomial-data", "holder", "--mu", "beta:a=1,b=1", "--nu", "beta:a=2,b=2",
        "--alpha", "0.5", "--likelihood", "binomial", "--data", "3")
    add("bad-spec-key", "holder", "--mu", "beta:a=1,c=2", "--nu", "beta:a=2,b=2",
        "--alpha", "0.5", "--likelihood", "binomial", "--data", "3,10")
    add("bad-spec-value", "holder", "--mu", "beta:a=one,b=2", "--nu", "beta:a=2,b=2",
        "--alpha", "0.5", "--likelihood", "binomial", "--data", "3,10")
    add("bad-alpha", "holder", "--mu", "beta:a=1,b=1", "--nu", "beta:a=2,b=2",
        "--alpha", "1.5", "--likelihood", "binomial", "--data", "3,10")
    add("bad-tol", "sparse-mn", "--m", "1000", "--n", "3", "--r0", "3", "--tol", "2")
    add("bad-half-open-flat", "holder", "--mu", "flat:hi=0", "--nu", "normal:mean=0",
        "--alpha", "0.5", "--likelihood", "normal", "--data", "0")
    for spec in ("pool_empty", "pool_bad_family", "pool_bad_weights", "pool_not_object",
                 "pool_mixed", "malformed", "missing"):
        add(f"bad-pool-{spec}", "pool", "--spec", f"../inputs/{spec}.json")
    for path in ("empty", "no_header", "decreasing", "non_numeric", "missing"):
        add(f"bad-density-{path}", "holder", "--mu", f"grid-file:../inputs/{path}.csv",
            "--nu", "beta:a=2,b=2", "--alpha", "0.5", "--likelihood", "binomial",
            "--data", "3,10")
    add("bad-counts-missing", "sparse-mn", "--m", "1000", "--n", "3")
    add("bad-counts", "sparse-mn", "--counts", "3")
    add("bad-canonical", "compare", "--m", "10", "--n", "3", "--r0", "5")
    add("bad-a-point", "compare", "--m", "1000", "--n", "3", "--r0", "3",
        "--a-point", "-1")
    add("bad-a-max", "sparse-mn", "--m", "1000", "--n", "3", "--r0", "3", "--a-max", "0")
    add("bad-hyper-file-missing", "sparse-mn", "--m", "1000", "--n", "3", "--r0", "3",
        "--hyperprior", "grid-file")
    add("bad-hyper-short", "compare", "--m", "1000", "--n", "3", "--r0", "3",
        "--hyperprior", "grid-file", "--hyper-file", "../inputs/hyper_short.csv")
    add("bad-hyper-empty", "sparse-mn", "--configs", "../inputs/sweep.json",
        "--hyperprior", "grid-file", "--hyper-file", "../inputs/empty.csv")
    for configs in ("sweep_missing_r0", "sweep_not_list", "malformed", "missing"):
        add(f"bad-configs-{configs}", "sparse-mn", "--configs",
            f"../inputs/{configs}.json")
    # two bad inputs: the message shows which is checked first
    bad_hyper = ["--hyperprior", "grid-file", "--hyper-file", "../inputs/empty.csv"]
    add("bad-two-configs-hyper", "sparse-mn", "--configs", "../inputs/missing.json",
        *bad_hyper)
    add("bad-two-counts-hyper", "sparse-mn", "--m", "1000", "--n", "3", *bad_hyper)
    add("bad-two-a-point-hyper", "compare", "--m", "1000", "--n", "3", "--r0", "3",
        "--a-point", "-1", *bad_hyper)
    add("bad-two-canonical-hyper", "compare", "--m", "10", "--n", "3", "--r0", "5",
        *bad_hyper)
    add("bad-poisson-equiv-betas", "poisson-equiv", "--a", "0.5", "--m", "3",
        "--count", "100", "--betas", "1,-2")
    add("bad-ordered-mn-m", "ordered-mn", "--m", "1", "--count", "100")

    # the extremes of the incomplete beta and its inverse: KS shapes from
    # 0.05 to 995, and compare mixtures whose lower tails underflow and whose
    # second shape reaches 1e4
    add("poisson-equiv-small-a", "poisson-equiv", "--a", "0.05", "--m", "50")
    add("poisson-equiv-large-b", "poisson-equiv", "--a", "5", "--m", "200")
    sparse = ["--m", "10000", "--n", "10", "--r0", "1", "--format", "json"]
    add("compare-sparse", "compare", *sparse)
    add("compare-sparse-a-point", "compare", *sparse, "--a-point", "1e-4")

    # the KS search in blocks of 64 sorted points: counts at the block edges,
    # and a sample whose gammas underflow to NaN coordinates
    for count in ("1", "63", "64", "65", "129"):
        add(f"poisson-equiv-count-{count}", "poisson-equiv", "--a", "0.5", "--m", "4",
            "--count", count)
    add("poisson-equiv-tiny-a", "poisson-equiv", "--a", "0.001", "--m", "2")
    # an interval quantile just above a bracket node, where the CDF is flat
    # at the bracket's geometric midpoint: Beta(5.5, 10004.5)
    add("compare-flat-tail", "compare", "--counts", ",".join(["5", "5"] + ["0"] * 19998),
        "--format", "json")
    return jobs


def _run(argv):
    """Exit code, stdout and stderr of one in-process call of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # an escape from main is a finding to record
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_all(outdir: Path) -> int:
    """Write the inputs, run every job, and return the number of jobs."""
    # argparse wraps --help text to the terminal width
    os.environ["COLUMNS"] = "100"
    inputs = outdir / "inputs"
    inputs.mkdir(parents=True)
    for name, text in _inputs().items():
        (inputs / name).write_text(text)
    start = os.getcwd()
    jobs = _jobs()
    try:
        for i, (name, argv) in enumerate(jobs):
            job_dir = outdir / f"{i:03d}-{name}"
            job_dir.mkdir()
            os.chdir(job_dir)
            code, stdout, stderr = _run(argv)
            (job_dir / "argv.txt").write_text("\n".join(argv) + "\n")
            (job_dir / "exit.txt").write_text(f"{code}\n")
            (job_dir / "stdout.txt").write_text(stdout)
            (job_dir / "stderr.txt").write_text(
                stderr.replace(PACKAGE_DIR, "<prior_forge>"))
    finally:
        os.chdir(start)
    return len(jobs)


if __name__ == "__main__":
    if len(sys.argv) != 2 or Path(sys.argv[1]).exists():
        sys.exit("usage: cli_bytes.py OUTDIR  (OUTDIR must not exist yet)")
    print(f"{run_all(Path(sys.argv[1]).resolve())} jobs written to {sys.argv[1]}")
