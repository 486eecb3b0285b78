"""Compare the library results of a git revision with the working tree.

    python tools/result_check.py [REV]      (REV defaults to HEAD)

The library-level twin of `tools/byte_check.py`. Extracts REV's `src/`
with `git archive` into a temporary directory, then runs one fixed seeded
battery twice, each run in its own subprocess: once with REV's `src/` on
PYTHONPATH and once with the working tree's. The battery has CASES cases
of each kind:

  beta       Beta priors under binomial data;
  gamma      gamma-kernel half-line priors under Poisson counts;
  exp-tilt   exp(b * theta) priors on one real-line grid under a normal
             location likelihood;
  edge-beta  a Beta prior with first shape in (0, 0.001] under zero
             successes, whose finite mass sits next to the -1 endpoint
             exponent.

Each case calls, on the same two prior instances, `holder_check(mu, nu,
alpha, L)`, then `pooled_propriety` on the pool ((mu, nu), (alpha,
1 - alpha)), then `posterior_mass` of mu and of nu, and then the first two
again at a second weight.

A fifth kind, `integrate`, calls `quadrature.integrate` directly on fixed
densities that reach its rarer branches: the truncation ladder on a grid
whose doubling windows are exact, a -inf node in each cap and in the bulk
of a bounded and a half-line grid, a node mapped onto an endpoint, and
two innermost nodes whose distances from the endpoint share one log.

A sixth kind, `kernels`, records the bytes of arrays rather than the
results built from them: every builder's log values (a Beta shape sweep
down to 1e-4, gamma, flat, normal and exp-tilt densities, and one
component of each family built by the CLI, on a default grid and on a
grid read from a file), and the log kernel of every likelihood family
(binomial at k = 0, k = n and in between, Poisson with total 0 and > 0,
normal location and a table) on default bounded, half-line and real-line
grids and on grids built from nodes. Each kernel is taken twice: through
`propriety`'s grid path, as a posterior sees it, and through
`log_on` on a plain array of the same nodes. An array is recorded as the
sha256 of its bytes and `float.hex` of its two end values.

Every float is recorded as `float.hex`, next to the flags, the
diagnostics and the text of any exception raised. Every case whose record
differs is listed. Exit status: 0 when all cases agree, 1 when any differ,
2 when a run fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 20
CASES = 40
KINDS = ("beta", "gamma", "exp-tilt", "edge-beta")


def _encode(value):
    """A JSON form of a library result that keeps every bit of its floats."""
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    return float(value).hex()


def _cases():
    """(label, mu, nu, alpha, second alpha, likelihood) of the battery."""
    import numpy as np

    from prior_forge import density, likelihoods

    rng = np.random.default_rng(SEED)
    tilt = density.exp_tilt_density(0.0)
    for i in range(CASES):
        for kind in KINDS:
            alpha, alpha2 = (float(v) for v in rng.uniform(0.0, 1.0, 2))
            if kind == "exp-tilt":
                b1, b2, x = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
                mu = tilt.with_log_values(b1 * tilt.nodes)
                nu = tilt.with_log_values(b2 * tilt.nodes)
                lik = likelihoods.normal_location((x,))
            elif kind == "gamma":
                s1, s2 = (float(v) for v in rng.uniform(0.5, 8.0, 2))
                r1, r2 = (float(v) for v in rng.uniform(0.5, 4.0, 2))
                counts = rng.integers(0, 5, size=int(rng.integers(1, 4)))
                mu = density.halfline_density(
                    lambda v, s=s1, r=r1: (s - 1.0) * np.log(v) - r * v)
                nu = density.halfline_density(
                    lambda v, s=s2, r=r2: (s - 1.0) * np.log(v) - r * v)
                lik = likelihoods.poisson_counts(counts)
            else:
                a1 = (float(rng.uniform(0.5, 8.0)) if kind == "beta"
                      else 0.001 * (1.0 - float(rng.uniform(0.0, 1.0))))
                b1, a2, b2 = (float(v) for v in rng.uniform(0.5, 8.0, 3))
                trials = int(rng.integers(1, 11))
                k = 0 if kind == "edge-beta" else int(rng.integers(0, trials + 1))
                mu, nu = density.beta_density(a1, b1), density.beta_density(a2, b2)
                lik = likelihoods.binomial_counts(k, trials)
            yield f"{i:03d}-{kind}", mu, nu, alpha, alpha2, lik


def _integrate_cases():
    """(label, density) of the direct `integrate` cases."""
    import numpy as np

    from prior_forge import density

    GridDensity = density.GridDensity
    # the ladder: x = 2**(k/8), the innermost node pulled down so that the
    # cap fit is steep; 1/x, x**-1/2, and 1/x below 2**-24 only
    x = 2.0 ** (np.arange(-320, 0) / 8.0)
    lx, knee = np.log(x), -24.0 * np.log(2.0)
    for name, lv in (("1/x", -lx), ("x^-1/2", -0.5 * lx),
                     ("knee", np.where(lx < knee, -lx, -0.5 * (lx + knee)))):
        lv = lv.copy()
        lv[0] -= 5.0
        yield f"ladder-{name}", GridDensity(0.0, 1.0, x, lv)
    # a -inf node in each cap and in the bulk; node 2 is the cap's third,
    # which its refit reads
    for grid, base in (("bounded", density.beta_density(2.5, 3.5)),
                       ("halfline", density.gamma_density(2.5))):
        for at in (0, 2, len(base.nodes) // 2, -1):
            lv = base.log_values.copy()
            lv[at] = -np.inf
            yield f"zero-{grid}-{at}", base.with_log_values(lv)
    # the last node maps to t = 1, where the half-line's log Jacobian is +inf
    y = np.append(np.geomspace(1e-3, 1e3, 100), 1e20)
    with np.errstate(divide="ignore"):
        yield "endpoint-node", GridDensity(0.0, np.inf, y, -3.0 * np.log1p(y))
    # the two innermost distances one ulp apart: equal logs, no exponent fit
    x = density.bounded_nodes(0.0, 1.0)
    x[1] = np.nextafter(x[0], 1.0)
    beta22 = np.log(x) + np.log1p(-x)
    yield "equal-log-lower", GridDensity(0.0, 1.0, x, beta22)
    yield "equal-log-upper", GridDensity(-1.0, 0.0, -x[::-1], beta22[::-1])
    for name, second in (("flat", 0.0), ("rise", 1.0), ("drop", -1.0)):
        lv = np.zeros_like(x)
        lv[1] = second
        yield f"equal-log-{name}", GridDensity(0.0, 1.0, x, lv)


def _kernel_arrays(tmp):
    """(label, array) of the `kernels` kind; tmp is a directory for the
    grid file."""
    import numpy as np

    from prior_forge import cli, density, likelihoods, propriety

    shapes = (1e-4, 1e-3, 0.3, 0.5, 1.0, 2.5, 7.0, 50.0)
    for a in shapes:
        for b in shapes:
            yield f"beta-{a}-{b}", density.beta_density(a, b).log_values
    for shape in (1e-3, 0.5, 1.0, 2.5, 9.0):
        for scale in (0.1, 1.0, 20.0):
            yield f"gamma-{shape}-{scale}", density.gamma_density(shape, scale).log_values
    for lo, hi in ((0.0, 1.0), (-2.0, 5.0)):
        yield f"flat-{lo}-{hi}", density.flat_density(lo, hi).log_values
    for mean, sd in ((0.0, 1.0), (3.0, 0.2)):
        yield f"normal-{mean}-{sd}", density.normal_density(mean, sd).log_values
    for b in (-1.5, 0.0, 2.0):
        yield f"exp-tilt-{b}", density.exp_tilt_density(b).log_values
    # a user grid on (0, 1), its nodes read back from a file, as the CLI does
    x = np.geomspace(1e-9, 0.5, 600)
    x = np.concatenate([x, 1.0 - x[::-1][1:]])
    user = density.GridDensity(0.0, 1.0, x, np.zeros_like(x))
    path = os.path.join(tmp, "grid.csv")
    density.write_density(user, path)
    for grid, specs in (
            ("bounded", ["beta:a=0.5,b=2", "beta:a=3e-4,b=0.7", "flat:lo=0,hi=1"]),
            ("halfline", ["gamma:shape=2.5,scale=3", "gamma:shape=0.4", "flat:lo=0"]),
            ("realline", ["normal:mean=1,sd=2", "exp-tilt:b=0.5", "flat"]),
            ("file", [f"grid-file:{path}", "beta:a=0.5,b=2", "beta:a=2e-4,b=3"])):
        for i, comp in enumerate(cli._build_components(specs)):
            yield f"cli-{grid}-{i}", comp.log_values
    half_x = np.geomspace(1e-6, 1e3, 500)
    grids = {
        "bounded": density.beta_density(2.0, 3.0),
        "halfline": density.gamma_density(2.0),
        "realline": density.normal_density(),
        "user-bounded": user,
        "user-halfline": density.GridDensity(0.0, np.inf, half_x, np.zeros_like(half_x)),
    }
    table = likelihoods.tabulated_likelihood(
        np.geomspace(1e-12, 1e5, 50), np.linspace(-3.0, 1.0, 50), 0.0, np.inf)
    models = {
        "binomial-0-7": likelihoods.binomial_counts(0, 7),
        "binomial-7-7": likelihoods.binomial_counts(7, 7),
        "binomial-3-7": likelihoods.binomial_counts(3, 7),
        "poisson-0": likelihoods.poisson_counts((0, 0)),
        "poisson-9": likelihoods.poisson_counts((2, 0, 7)),
        "normal-location": likelihoods.normal_location((0.3, -1.2)),
        "grid": table,
    }
    for name, lik in models.items():
        for grid_name, grid in grids.items():
            if not lik.contains(grid.domain_lo, grid.domain_hi):
                continue
            fresh = grid.with_log_values(grid.log_values)  # an empty memo
            yield f"log-on-{name}-{grid_name}-grid", propriety._log_likelihood_on(fresh, lik)
            yield f"log-on-{name}-{grid_name}-array", lik.log_on(np.array(grid.nodes))


def _array_record(arr):
    return [hashlib.sha256(arr.tobytes()).hexdigest(), arr.dtype.str, list(arr.shape),
            float(arr[0]).hex(), float(arr[-1]).hex()]


def _attempt(fn, *args):
    try:
        return _encode(fn(*args))
    except Exception as exc:  # the exception text is part of the record
        return {"raised": f"{type(exc).__name__}: {exc}"}


def record() -> dict:
    """Case label -> record of every call the case makes."""
    from prior_forge import pooling, propriety, quadrature

    def pooled(mu, nu, alpha, lik):
        problem = pooling.PoolProblem((mu, nu), pooling.PoolWeights((alpha, 1.0 - alpha)))
        return propriety.pooled_propriety(problem, lik)

    out = {}
    for label, mu, nu, alpha, alpha2, lik in _cases():
        out[label] = [
            _attempt(propriety.holder_check, mu, nu, alpha, lik),
            _attempt(pooled, mu, nu, alpha, lik),
            _attempt(propriety.posterior_mass, mu, lik),
            _attempt(propriety.posterior_mass, nu, lik),
            _attempt(propriety.holder_check, mu, nu, alpha2, lik),
            _attempt(pooled, mu, nu, alpha2, lik),
        ]
    for label, dens in _integrate_cases():
        out[f"integrate-{label}"] = [_attempt(quadrature.integrate, dens)]
    with tempfile.TemporaryDirectory() as tmp:
        for label, arr in _kernel_arrays(tmp):
            out[f"kernels-{label}"] = _array_record(arr)
    return out


def _run(src: Path) -> dict:
    """The battery's records, run in a subprocess that imports from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, "--record"], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"the battery failed on {src}:\n{proc.stderr}")
        sys.exit(2)
    return json.loads(proc.stdout)


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive.stdout, check=True)
        old = _run(tmp / "src")
    new = _run(ROOT / "src")
    differ = [label for label in old if old[label] != new.get(label)]
    for label in differ:
        print(f"differs: {label}")
    print(f"{len(differ)} of {len(old)} cases differ between {rev} and the "
          f"working tree")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        json.dump(record(), sys.stdout, indent=0)
        sys.exit(0)
    if len(sys.argv) > 2:
        sys.exit("usage: result_check.py [REV]")
    sys.exit(main(sys.argv[1] if len(sys.argv) == 2 else "HEAD"))
