"""The benchmark's four workloads.

Each workload is a closed loop with one client. Its inputs come from the
seed alone and are built, with their references, in `setup`. A run
repeats whole cycles (a fixed mix of operations) so every run sees the
same mix; `call` is the timed part and `check` compares its result with
a reference the workload did not get from prior_forge.

A failure is expected only when it is one of the library defects a
workload lists (`known_defect`); any other failure makes the run
incorrect.

Library functions are always reached through their module (`propriety.
holder_check`, not a bound name), so the tracer's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from prior_forge import density, likelihoods, pooling, propriety
from prior_forge import sparse_multinomial as smn
from prior_forge.streams import RandomStream

TOL = 1e-8
EXACT = 1e-12


def _exit(exc: BaseException) -> str:
    """Exception class and message, to tally the exits operations take."""
    return f"{type(exc).__name__}: {exc}"


class Workload:
    name = ""
    unit = "op"
    # consecutive operations that make one latency sample
    latency_group = 1
    # library defects this workload expects: (op kind, fragment of the
    # failure note). Measured at the commit that added the benchmark.
    KNOWN_DEFECTS = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Build inputs and references, then warm up with one cycle's first op."""
        raise NotImplementedError

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def call(self, op):
        raise NotImplementedError

    def check(self, op, result, error):
        """(units, failed units, note or '') for one operation."""
        raise NotImplementedError

    def kind(self, op) -> str:
        """Label used for the per-kind latency breakdown."""
        return "all"

    def known_defect(self, op, note: str) -> bool:
        """Whether a failed check is one of the listed library defects."""
        return any(kind == self.kind(op) and fragment in note
                   for kind, fragment in self.KNOWN_DEFECTS)

    def listed(self, op) -> bool:
        """Whether this operation is listed as failing on every call."""
        return False

    def warm_up(self, op=None):
        op = self.cycle(0)[0] if op is None else op
        try:
            result, error = self.call(op), None
        except Exception as exc:  # the check decides what a failure means
            result, error = None, exc
        self.check(op, result, error)


# ---------------------------------------------------------------------------


class HolderBattery(Workload):
    """Criterion-01 mix: holder_check plus pooled_propriety per case.

    A cycle is ten cases: three each of the exp-tilt (shared real-line
    grid), Beta x binomial and gamma x Poisson families, plus one Beta
    prior with first shape in (0, 0.001] under binomial k = 0 data, whose
    posterior mass is finite but sits next to the -1 endpoint exponent.
    """

    name = "holder-battery"
    unit = "case"
    CYCLE = 10
    # a case's time depends mostly on its family, so latency is taken per
    # case over each ten-case slice of the fixed mix
    latency_group = CYCLE
    CASES = 4000
    KNOWN_DEFECTS = (
        # the edge-exponent case: finite mass, reported divergent
        ("edge-beta", "posterior mass diverges: lower endpoint exponent"),
        # about 1 % of ordinary Beta cases, all of them with a rough
        # endpoint (see known_defect)
        ("beta", "did not reach the requested tolerance"),
    )

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.shared = density.exp_tilt_density(0.0)
        self.cases = []
        for i in range(self.CASES):
            pos = i % self.CYCLE
            family = "edge-beta" if pos == self.CYCLE - 1 else \
                ("exp-tilt", "beta", "gamma")[pos % 3]
            alpha = float(rng.uniform(0.0, 1.0))
            if family == "exp-tilt":
                b1, b2, x = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
                case = dict(b1=b1, b2=b2, x=x,
                            ref=oracles.gauss_masses(b1, b2, alpha, x))
            elif family == "gamma":
                s1, s2 = (float(v) for v in rng.uniform(0.5, 8.0, 2))
                r1, r2 = (float(v) for v in rng.uniform(0.5, 4.0, 2))
                counts = tuple(int(k) for k in
                               rng.integers(0, 5, size=int(rng.integers(1, 4))))
                case = dict(s1=s1, s2=s2, r1=r1, r2=r2, counts=counts,
                            ref=oracles.gamma_poisson_masses(
                                s1, r1, s2, r2, alpha, sum(counts), len(counts)))
            else:
                if family == "beta":
                    a1 = float(rng.uniform(0.5, 8.0))
                else:
                    a1 = 0.001 * (1.0 - float(rng.uniform(0.0, 1.0)))
                b1, a2, b2 = (float(v) for v in rng.uniform(0.5, 8.0, 3))
                trials = int(rng.integers(1, 11))
                k = 0 if family == "edge-beta" else int(rng.integers(0, trials + 1))
                pa = alpha * a1 + (1.0 - alpha) * a2
                pb = alpha * b1 + (1.0 - alpha) * b2
                case = dict(a1=a1, b1=b1, a2=a2, b2=b2, k=k, trials=trials,
                            rough=min(a1, a2, pa) + k < 2.0 or
                            min(b1, b2, pb) + trials - k < 2.0,
                            ref=oracles.beta_binomial_masses(a1, b1, a2, b2, alpha,
                                                             k, trials))
            case.update(family=family, alpha=alpha)
            self.cases.append(case)
        self.exits = {}
        self.warm_up()

    def cycle(self, index):
        start = (index * self.CYCLE) % self.CASES
        return self.cases[start: start + self.CYCLE]

    def kind(self, op):
        return op["family"]

    def listed(self, op):
        return op["family"] == "edge-beta"

    def known_defect(self, op, note):
        # The tolerance exit is listed only where a posterior (of mu, of
        # nu or of the pool, itself a Beta) has a shape below 2, so that
        # its density or the density's slope is unbounded at an endpoint.
        # Measured at the commit that added the benchmark, on 7200 Beta
        # cases (seeds 11-16): 55 took the exit, 50 of them with a shape
        # below 1 and 5 with one in [1, 2); none of the 5835 cases with
        # every shape >= 2 did.
        if op["family"] == "beta" and not op["rough"]:
            return False
        return super().known_defect(op, note)

    def call(self, c):
        fam, alpha = c["family"], c["alpha"]
        if fam == "exp-tilt":
            mu = self.shared.with_log_values(c["b1"] * self.shared.nodes)
            nu = self.shared.with_log_values(c["b2"] * self.shared.nodes)
            lik = likelihoods.normal_location((c["x"],))
        elif fam == "gamma":
            s1, r1, s2, r2 = c["s1"], c["r1"], c["s2"], c["r2"]
            mu = density.halfline_density(lambda v: (s1 - 1.0) * np.log(v) - r1 * v)
            nu = density.halfline_density(lambda v: (s2 - 1.0) * np.log(v) - r2 * v)
            lik = likelihoods.poisson_counts(c["counts"])
        else:
            mu = density.beta_density(c["a1"], c["b1"])
            nu = density.beta_density(c["a2"], c["b2"])
            lik = likelihoods.binomial_counts(c["k"], c["trials"])
        rep = propriety.holder_check(mu, nu, alpha, lik)
        prob = pooling.PoolProblem((mu, nu), pooling.PoolWeights((alpha, 1.0 - alpha)))
        return rep, propriety.pooled_propriety(prob, lik)

    def check(self, c, result, error):
        if error is not None:
            key = f"{c['family']}: {_exit(error)}"
            self.exits[key] = self.exits.get(key, 0) + 1
            return 1, 1, key
        rep, pooled = result
        lhs, mu_mass, nu_mass = c["ref"]
        alpha = c["alpha"]
        rhs = mu_mass ** alpha * nu_mass ** (1.0 - alpha)
        worst = max(oracles.rel_err(rep.lhs, lhs),
                    oracles.rel_err(rep.mu_mass.mass.value, mu_mass),
                    oracles.rel_err(rep.nu_mass.mass.value, nu_mass),
                    oracles.rel_err(rep.rhs, rhs),
                    oracles.rel_err(pooled.pooled_mass.value, lhs),
                    oracles.rel_err(pooled.bound, rhs))
        mass = pooled.pooled_mass
        if not mass.converged and mass.value > 0:
            # the same exit holder_check raises for a component posterior
            return 1, 1, f"{c['family']}: pooled posterior mass did not reach the " \
                f"requested tolerance (relative error ~{mass.abs_error_estimate / mass.value:.1e})"
        if not (rep.holds and pooled.proper and pooled.bound_satisfied):
            return 1, 1, f"{c['family']}: verdict holds={rep.holds} proper={pooled.proper}"
        if worst > TOL:
            return 1, 1, f"{c['family']}: relative error {worst:.2e} > {TOL:g}"
        return 1, 0, ""


# ---------------------------------------------------------------------------


class PoolVerify(Workload):
    """verify_pool_optimality on the five criterion-02 pool problems.

    Every perturbation of one call shares the pool's grid, and the library
    spreads them over its thread pool. One operation is one call with
    PERTURBATIONS perturbations; the unit counted is the perturbation.
    """

    name = "pool-verify"
    unit = "perturbation"
    PERTURBATIONS = 20
    PROBLEMS = (
        (((0.5, 0.5), (1.5, 2.5)), (0.3, 0.7)),
        (((2.0, 2.0), (0.7, 1.2), (3.0, 1.0)), (0.2, 0.5, 0.3)),
        (((1.0, 1.0), (0.5, 8.0)), (0.5, 0.5)),
        (((5.0, 5.0), (0.9, 0.9), (2.0, 6.0)), (1 / 3, 1 / 3, 1 / 3)),
        (((0.6, 3.0), (4.0, 0.8)), (0.25, 0.75)),
    )

    def setup(self):
        self.problems = []
        for params, weights in self.PROBLEMS:
            prob = pooling.PoolProblem(tuple(density.beta_density(a, b) for a, b in params),
                                       pooling.PoolWeights(weights))
            self.problems.append((prob, oracles.pooled_beta(prob.weights.alphas, params)))
        self.warm_up()

    def cycle(self, index):
        return [(j, 10 + j + len(self.problems) * index) for j in range(len(self.problems))]

    def kind(self, op):
        return f"problem-{op[0]}"

    def call(self, op):
        j, stream_index = op
        return pooling.verify_pool_optimality(self.problems[j][0], self.PERTURBATIONS,
                                              RandomStream(self.seed, stream_index))

    def check(self, op, rep, error):
        k = self.PERTURBATIONS
        if error is not None:
            return k, k, _exit(error)
        a, b = self.problems[op[0]][1]
        sup = oracles.logpdf_sup_error(rep.pooled.nodes, rep.pooled.log_values, a, b)
        if sup > TOL:
            return k, k, f"problem-{op[0]}: pool log-pdf sup error {sup:.2e}"
        bad = int(np.count_nonzero(~(np.asarray(rep.margins) > 0.0)))
        return k, bad, f"problem-{op[0]}: {bad} margins <= 0" if bad else ""


def _compare_row_problem(row, n: int, m: int) -> str:
    """What is wrong with one compare_priors row of counts (n, m), or ''."""
    for col, (a, b) in oracles.cell_beta_params(row["count"], n, m).items():
        if abs(row[f"{col}_mean"] - a / (a + b)) > EXACT:
            return f"{row['cell']} {col}_mean off"
        if not oracles.beta_interval_ok(a, b, row[f"{col}_lo"], row[f"{col}_hi"]):
            return f"{row['cell']} {col} interval off"
    hier = [row[f"hierarchical_{k}"] for k in ("lo", "mean", "hi")]
    if hier[1] is not None and not oracles.interval_consistent(*hier):
        return f"{row['cell']} hierarchical interval inconsistent with its mean"
    return ""


# ---------------------------------------------------------------------------


class SparseMN(Workload):
    """compare_priors plus the v_summary_table row for every sweep config.

    The sweep is m in {100, 1000, 10000} x the 13 criterion-06 (n, r0)
    pairs x the three hyperpriors, 117 configs. It is split into three
    cycles of 39: cycle c holds every (hyperprior, n, r0) once, with
    m = MS[(pair index + c) % 3]. Each cycle then has the same share of
    listed defects and about the same cost (8.6 to 9.3 s at seed), so runs
    that fit one or two cycles see the same mix. The seed permutes each
    cycle and picks the first. Each config's "proper" verdict is checked
    against the endpoint-exponent rule (see oracles.v_posterior_proper).
    """

    name = "sparse-mn"
    unit = "config"
    KINDS = ("pareto-v", "flat-in-log-a", "flat-in-a")
    MS = (100, 1000, 10000)
    PAIRS = tuple((n, r0) for n in (3, 5, 10) for r0 in range(1, min(n, 5) + 1))
    # configs cost 8 ms to 500 ms, so a latency sample is a whole cycle's
    # mean time per config
    latency_group = 3 * len(PAIRS)
    # flat-hyperprior configs reported proper although the rule says
    # improper: (kind, m, n, r0)
    WRONG_PROPER = frozenset(
        [("flat-in-log-a", 100, 10, r0) for r0 in (2, 3, 4)]
        + [("flat-in-log-a", 1000, n, r0) for n, r0 in
           ((5, 2), (10, 2), (10, 3), (10, 4), (10, 5))]
        + [("flat-in-log-a", 10000, n, r0) for n, r0 in
           ((5, 2), (5, 3), (10, 2), (10, 3), (10, 4), (10, 5))]
        + [("flat-in-a", 100, 10, r0) for r0 in (1, 2)]
        + [("flat-in-a", 1000, 10, r0) for r0 in (1, 2, 3, 4)]
        + [("flat-in-a", 10000, n, r0) for n, r0 in
           ((5, 1), (5, 2), (10, 1), (10, 2), (10, 3), (10, 4), (10, 5))])
    # pareto-v configs whose mean_v is finite although E[v] diverges: every
    # one with r0 < n
    FINITE_MEAN = frozenset(("pareto-v", m, n, r0) for m, (n, r0)
                            in itertools.product(MS, PAIRS) if r0 < n)

    def setup(self):
        cycles = [[] for _ in self.MS]
        for c, cycle in enumerate(cycles):
            for p, (n, r0) in enumerate(self.PAIRS):
                m = self.MS[(p + c) % len(self.MS)]
                for kind in self.KINDS:
                    key = (kind, m, n, r0)
                    known = "exponent rule gives False" if key in self.WRONG_PROPER else \
                        "but E[v] diverges" if key in self.FINITE_MEAN else None
                    cycle.append(dict(
                        kind=kind, m=m, n=n, r0=r0, known=known,
                        data=smn.canonical_counts(m, n, r0),
                        hyper=smn.HyperPriorSpec(kind),
                        proper=oracles.v_posterior_proper(kind, r0),
                        mean_finite=oracles.v_posterior_mean_finite(kind),
                        cells={"observed": 1 if r0 > 1 else n, "unobserved": 0}))
        # configs differ in cost by 15x, so warm up on the same one every
        # seed before the seed permutes the order
        self.warm_up(cycles[0][0])
        rng = random.Random(self.seed)
        for cycle in cycles:
            rng.shuffle(cycle)
        self.cycles = cycles
        self.first = rng.randrange(len(cycles))

    def cycle(self, index):
        return self.cycles[(self.first + index) % len(self.cycles)]

    def kind(self, op):
        return op["kind"]

    def known_defect(self, op, note):
        return op["known"] is not None and op["known"] in note

    def listed(self, op):
        return op["known"] is not None

    def call(self, op):
        rows = smn.compare_priors(op["data"], op["hyper"])
        summary = smn.v_summary_table([(op["m"], op["n"], op["r0"])], op["hyper"])
        return rows, summary[0]

    def check(self, op, result, error):
        label = f"{op['kind']} m={op['m']} n={op['n']} r0={op['r0']}"
        if error is not None:
            return 1, 1, f"{label}: {_exit(error)}"
        rows, summary = result
        if summary["proper"] != op["proper"]:
            return 1, 1, f"{label}: reported proper={summary['proper']}, " \
                         f"exponent rule gives {op['proper']}"
        if len(rows) != 2:
            return 1, 1, f"{label}: expected 2 compare rows, got {len(rows)}"
        for row in rows:
            if row["count"] != op["cells"][row["cell"]]:
                return 1, 1, f"{label}: {row['cell']} count {row['count']}"
            if (row["hierarchical_mean"] is None) == summary["proper"]:
                return 1, 1, f"{label}: hierarchical columns disagree with the verdict"
            problem = _compare_row_problem(row, op["n"], op["m"])
            if problem:
                return 1, 1, f"{label}: {problem}"
        if summary["proper"]:
            q05, med, q95 = summary["q05_v"], summary["median_v"], summary["q95_v"]
            if not (0.0 < q05 < med < q95 and math.isfinite(summary["mode_v"])):
                return 1, 1, f"{label}: quantiles out of order"
            if math.isfinite(summary["mean_v"]) != op["mean_finite"]:
                return 1, 1, f"{label}: mean_v={summary['mean_v']} but E[v] " + \
                    ("is finite" if op["mean_finite"] else "diverges")
        return 1, 0, ""


# ---------------------------------------------------------------------------


def _csv_rows(text: str):
    """(comment lines, list of dict rows) of a prior-forge CSV table."""
    lines = text.splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    return comments, [dict(zip(header, ln.split(","))) for ln in body[1:]]


class CliCold(Workload):
    """The six README CLI examples, each a fresh `python -m prior_forge.cli`.

    Every process pays the package import, so this workload shows what a
    CLI user pays per call.
    """

    name = "cli-cold"
    unit = "call"
    POOL_SPEC = {"components": [{"family": "beta", "a": 0.5, "b": 0.5},
                                {"family": "beta", "a": 1.5, "b": 2.5}],
                 "weights": [0.3, 0.7]}

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        spec = self.workdir / "pool.json"
        spec.write_text(json.dumps(self.POOL_SPEC))
        s = str(self.seed)
        self.commands = [
            ("pool", ["pool", "--spec", str(spec)]),
            ("holder", ["holder", "--mu", "beta:a=0.5,b=0.5", "--nu", "beta:a=2,b=2",
                        "--alpha", "0.4", "--likelihood", "binomial", "--data", "3,10"]),
            ("sparse-mn", ["sparse-mn", "--m", "1000", "--n", "3", "--r0", "3"]),
            ("compare", ["compare", "--m", "1000", "--n", "3", "--r0", "3",
                         "--format", "json"]),
            ("poisson-equiv", ["poisson-equiv", "--a", "0.5", "--m", "4",
                               "--count", "100000"]),
            ("ordered-mn", ["ordered-mn", "--m", "10", "--count", "100000"]),
        ]
        self.commands = [(k, argv + ["--seed", s]) for k, argv in self.commands]
        self.refs = {
            "pool": oracles.pooled_beta((0.3, 0.7), ((0.5, 0.5), (1.5, 2.5))),
            "holder": oracles.beta_binomial_masses(0.5, 0.5, 2.0, 2.0, 0.4, 3, 10),
            "poisson-equiv": oracles.dirichlet_coordinate(0.5, 4),
            "ordered-mn": oracles.stick_breaking_moments(10),
        }
        self.first_bytes = {}
        self.traced_prefix = None
        self.max_rss_kb = 0
        self.warm_up()

    def cycle(self, index):
        return self.commands

    def kind(self, op):
        return op[0]

    def call(self, op):
        if self.traced_prefix is None:
            cmd = [sys.executable, "-m", "prior_forge.cli"] + op[1]
        else:
            cmd = self.traced_prefix() + op[1]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def check(self, op, result, error):
        name = op[0]
        if error is not None:
            raise error
        code, out, err = result
        if code != 0:
            return 1, 1, f"{name}: exit {code}: {err.decode(errors='replace').strip()[-200:]}"
        first = self.first_bytes.setdefault(name, out)
        if out != first:
            return 1, 1, f"{name}: output bytes differ from the first call in this run"
        problem = getattr(self, "_check_" + name.replace("-", "_"))(out.decode())
        return (1, 1, f"{name}: {problem}") if problem else (1, 0, "")

    def _check_pool(self, text):
        comments, rows = _csv_rows(text)
        if "domain=0,1 normalized=1" not in comments:
            return "pooled density not reported normalized on (0, 1)"
        nodes = np.array([float(r["abscissa"]) for r in rows])
        lv = np.array([float(r["log_density"]) for r in rows])
        sup = oracles.logpdf_sup_error(nodes, lv, *self.refs["pool"])
        return f"pool log-pdf sup error {sup:.2e}" if sup > TOL else ""

    def _check_holder(self, text):
        row = _csv_rows(text)[1][0]
        lhs, mu, nu = self.refs["holder"]
        worst = max(oracles.rel_err(float(row["lhs"]), lhs),
                    oracles.rel_err(float(row["mu_posterior_mass"]), mu),
                    oracles.rel_err(float(row["nu_posterior_mass"]), nu),
                    oracles.rel_err(float(row["rhs"]), mu ** 0.4 * nu ** 0.6))
        if row["holds"] != "true":
            return "inequality reported violated"
        return f"relative error {worst:.2e}" if worst > TOL else ""

    def _check_sparse_mn(self, text):
        row = _csv_rows(text)[1][0]
        if (row["proper"] == "true") != oracles.v_posterior_proper("pareto-v", 3):
            return f"proper={row['proper']} against the exponent rule"
        q05, med, q95 = (float(row[k]) for k in ("q05_v", "median_v", "q95_v"))
        if not 0.0 < q05 < med < q95:
            return "quantiles out of order"
        if math.isfinite(float(row["mean_v"])) != oracles.v_posterior_mean_finite("pareto-v"):
            return f"mean_v={row['mean_v']} against the exponent rule"
        return ""

    def _check_compare(self, text):
        for row in json.loads(text)["rows"]:
            if row["hierarchical_mean"] is None:
                return f"{row['cell']} hierarchical columns missing for a proper posterior"
            problem = _compare_row_problem(row, 3, 1000)
            if problem:
                return problem
        return ""

    def _check_poisson_equiv(self, text):
        comments, rows = _csv_rows(text)
        mean, var = self.refs["poisson-equiv"]
        sup = float(comments[1].split("=")[1])
        if sup > EXACT:
            return f"scale invariance sup {sup:.2e}"
        count = 100000
        crit = None
        for r in rows:
            if abs(float(r["analytic_mean"]) - mean) > EXACT or \
                    abs(float(r["analytic_var"]) - var) > EXACT:
                return "analytic moments off"
            se = math.sqrt(var / count)
            if abs(float(r["sample_mean"]) - mean) > 8.0 * se:
                return "sample mean beyond 8 standard errors"
            if (r["mean_ok"] == "true") != (abs(float(r["sample_mean"]) - mean)
                                           <= float(r["mean_tolerance"])):
                return "mean_ok flag disagrees with its numbers"
            if (r["ks_ok"] == "true") != (float(r["ks_statistic"]) < float(r["ks_critical"])):
                return "ks_ok flag disagrees with its numbers"
            crit = crit or float(r["ks_critical"])
            if float(r["ks_critical"]) != crit:
                return "KS critical value varies across scales"
        return ""

    def _check_ordered_mn(self, text):
        comments, rows = _csv_rows(text)
        means, variances = self.refs["ordered-mn"]
        count = 100000
        emp = [float(r["empirical_mean"]) for r in rows]
        for r, mean, var, e in zip(rows, means, variances, emp):
            if float(r["analytic_mean"]) != mean:
                return f"analytic mean of cell {r['k']} off"
            if abs(e - mean) > 8.0 * math.sqrt(var / count):
                return f"cell {r['k']} mean beyond 8 standard errors"
        mean_sum = float(comments[2].split("=")[1])
        if abs(mean_sum - 1.0) > EXACT:
            return f"cell means sum to 1 - {1.0 - mean_sum:.1e}"
        below = [k for k, e in enumerate(emp, start=1) if e < 1.0 / len(emp)]
        k_star = int(comments[1].split("=")[1])
        if k_star != (below[0] if below else len(emp) + 1):
            return "k_star disagrees with the means"
        return ""


WORKLOADS = {w.name: w for w in (CliCold, HolderBattery, PoolVerify, SparseMN)}
