"""Time `holder-battery` cases in process: a git revision against the tree.

    python tools/case_time.py [REV] [--seed N] [--cases N] [--rounds N]

REV defaults to HEAD. Extracts REV's `src/` with `git archive` into a
temporary directory, as `tools/result_check.py` does, and starts two
subprocesses: one imports prior_forge from REV's `src/`, the other from the
working tree's. Each builds the same seeded cases with the benchmark's own
`HolderBattery` workload (`bench/workloads.py`, read only) and times its
`call`, the part of a case the benchmark times. In a round, each side
passes over the first CASES cases REPEATS times and keeps each case's best
time; the two sides take turns pass by pass, the first of each pair
alternating, so that a change in the machine's load reaches both alike.
Per round and side, the report takes the median of those best times per
family and over the whole mix ("mixed"), and their mean, which is what a
throughput such as `ops_per_s` follows. It prints each round, then the
medians over the rounds, the ratio REV / tree (above 1 means the tree is
faster) and the rounds the tree won on the mixed median.

Both sides run on the same machine at the same time of day, so a ratio is
comparable where a benchmark run's absolute figures are not; the spread
between rounds is the machine's noise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 7
FAMILIES = ("exp-tilt", "beta", "gamma", "edge-beta")


def child(seed: int, cases: int) -> None:
    """Build the cases, then answer each line on stdin with one pass over
    them: each case's time in microseconds, as a JSON line."""
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        battery = workloads.HolderBattery(seed, Path(tmp))
        battery.setup()
    ops = battery.cases[:cases]
    print(json.dumps([op["family"] for op in ops]), flush=True)
    clock = time.perf_counter_ns
    for _ in sys.stdin:
        times = []
        for op in ops:
            start = clock()
            try:
                battery.call(op)
            except Exception:  # a listed exit is part of the case's time
                pass
            times.append((clock() - start) / 1e3)
        print(json.dumps(times), flush=True)


def _start(src: Path, seed: int, cases: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), str(ROOT / "bench"), os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, __file__, "--child", str(seed), str(cases)], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def _read(proc: subprocess.Popen):
    """The next JSON line a child writes; exit 2 when it wrote none."""
    line = proc.stdout.readline()
    if not line:
        sys.stderr.write("a timing subprocess ended early\n")
        sys.exit(2)
    return json.loads(line)


def _summary(families, times) -> dict:
    out = {fam: statistics.median(t for f, t in zip(families, times) if f == fam)
           for fam in FAMILIES if fam in families}
    out["mixed"] = statistics.median(times)
    out["mean"] = statistics.fmean(times)
    return out


def main(rev: str, seed: int, cases: int, rounds: int) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = {rev: _start(Path(tmp) / "src", seed, cases),
                 "tree": _start(ROOT / "src", seed, cases)}
        try:
            families = [_read(proc) for proc in sides.values()]
            if not families[0] or families[0] != families[1]:
                sys.stderr.write("the two sides did not build the same cases\n")
                return 2
            families = families[0]
            per_round = {name: [] for name in sides}
            order = list(sides)
            for r in range(rounds):
                best = {name: [math.inf] * len(families) for name in sides}
                for k in range(REPEATS):  # the sides take turns pass by pass
                    for name in order if (r + k) % 2 == 0 else order[::-1]:
                        proc = sides[name]
                        proc.stdin.write("pass\n")
                        proc.stdin.flush()
                        best[name] = list(map(min, best[name], _read(proc)))
                for name in sides:
                    per_round[name].append(_summary(families, best[name]))
                old, new = per_round[rev][-1], per_round["tree"][-1]
                print(f"round {r + 1}: mixed median {old['mixed']:.1f} -> "
                      f"{new['mixed']:.1f} us ({old['mixed'] / new['mixed']:.3f}x), "
                      f"mean {old['mean']:.1f} -> {new['mean']:.1f} us", flush=True)
        finally:
            for proc in sides.values():
                proc.stdin.close()
                proc.wait()
    print(f"{cases} seed-{seed} cases, best of {REPEATS} per round, "
          f"median over {rounds} rounds (us):")
    for key in per_round[rev][0]:
        old = statistics.median(s[key] for s in per_round[rev])
        new = statistics.median(s[key] for s in per_round["tree"])
        print(f"  {key:10s} {old:8.1f} -> {new:8.1f}  {old / new:.3f}x")
    wins = sum(new["mixed"] < old["mixed"]
               for old, new in zip(per_round[rev], per_round["tree"]))
    print(f"the tree won {wins} of {rounds} rounds on the mixed median")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]), int(sys.argv[3]))
        sys.exit(0)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=1500)
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args()
    sys.exit(main(args.rev, args.seed, args.cases, args.rounds))
