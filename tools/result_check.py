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
again at a second weight. Every float is recorded as `float.hex`, next to
the flags, the diagnostics and the text of any exception raised. Every
case whose record differs is listed. Exit status: 0 when all cases agree,
1 when any differ, 2 when a run fails.
"""

from __future__ import annotations

import dataclasses
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


def _attempt(fn, *args):
    try:
        return _encode(fn(*args))
    except Exception as exc:  # the exception text is part of the record
        return {"raised": f"{type(exc).__name__}: {exc}"}


def record() -> dict:
    """Case label -> record of every call the case makes."""
    from prior_forge import pooling, propriety

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
