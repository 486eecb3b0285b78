#!/usr/bin/env python3
"""prior-forge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) from the root of a checkout,
checks every operation against a closed-form reference, prints a report
and, as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. `failed` counts the units that failed
their check and are not a library defect the workload lists; the listed
ones are reported beside it and lower `ok_ratio`. `--trace 0` reports
the end-to-end metrics of BENCHMARK.json; `--trace 1` runs the workload once untraced and once
under the span tracer and reports the per-layer metrics. Uses the standard
library plus the packages prior_forge itself needs; builds nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cli-cold", "holder-battery", "pool-verify", "sparse-mn")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
MAX_NOTES = 12
# Speed probes. The two-core host the benchmark was written on is shared
# with other work, and its speed changes by up to 1.4x for seconds to
# minutes at a time. Two probes that use no prior_forge code follow it: a
# fixed numpy kernel (3.2 to 7.4 ms there) and a fresh interpreter that
# imports numpy (about 0.17 s). Between operations a timed run takes the
# kernel probe at most every PROBE_EVERY_S seconds and the import probe at
# most every IMPORT_PROBE_EVERY_S seconds. It divides every time metric by
# the slowdown: the geometric mean, over the two probes, of the median
# probe time over its reference, the median during benchmark runs on that
# host. Either probe alone followed the workloads' times less closely
# (bench/README.md). The unscaled figures are in the report.
PROBE_REF_S = 4.6e-3
PROBE_EVERY_S = 0.5
IMPORT_PROBE_REF_S = 0.17
IMPORT_PROBE_EVERY_S = 5.0


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (0 <= args.seed < 2 ** 64):
        p.error("--seed must fit in an unsigned 64-bit integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# measurement


class Measurement:
    """Per-operation samples (kind, seconds, units, failed) of whole cycles.

    `unexpected` counts failed units that are not a listed library defect;
    `listed_passed` counts units listed as failing that passed their check.
    With `probing` set the speed probes run between operations.
    """

    def __init__(self, probing=False):
        self.samples = []
        self.notes = {}
        self.unexpected = {}
        self.listed_passed = 0
        self.cycles = 0
        self.probing = probing
        self.probes = []
        self.last_probe = -math.inf
        self.import_probes = []
        self.last_import_probe = -math.inf

    def maybe_probe(self):
        if self.probing and time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.last_probe = time.perf_counter()
        if (self.probing and
                time.perf_counter() - self.last_import_probe >= IMPORT_PROBE_EVERY_S):
            self.import_probes.append(import_probe())
            self.last_import_probe = time.perf_counter()

    @property
    def units(self):
        return sum(s[2] for s in self.samples)

    @property
    def failed(self):
        return sum(s[3] for s in self.samples)

    @property
    def op_seconds(self):
        return sum(s[1] for s in self.samples)


def run_cycle(wl, index, out: Measurement, tracer=None):
    """Run cycle `index` of the workload, appending its samples to `out`."""
    for op in wl.cycle(index):
        out.maybe_probe()
        attrs = {}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.call(op)
            else:
                with tracer.span("bench.op", attrs):
                    result = wl.call(op)
            error = None
        except Exception as exc:  # an operation that raises has failed
            result, error = None, exc
        dt = time.perf_counter() - t0
        units, failed, note = wl.check(op, result, error)
        attrs.update(units=units, failed=failed)
        out.samples.append((wl.kind(op), dt, units, failed))
        if note:
            out.notes[note] = out.notes.get(note, 0) + 1
        if failed and not wl.known_defect(op, note):
            out.unexpected[note] = out.unexpected.get(note, 0) + failed
        elif not failed and wl.listed(op):
            out.listed_passed += units
    out.cycles += 1


_PROBE_X = []


def probe() -> float:
    """Seconds a fixed numpy kernel takes, best of three passes."""
    import numpy as np

    if not _PROBE_X:
        _PROBE_X.append(np.linspace(1e-3, 1 - 1e-3, 200_001))
    x = _PROBE_X[0]
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        float(np.exp(1.5 * np.log(x)).sum() + np.log1p(-x).sum())
        best = min(best, time.perf_counter() - t0)
    return best


def import_probe() -> float:
    """Seconds a fresh interpreter takes to start and import numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def slowdown(kernel_s, import_s) -> float:
    """How many times slower than at the reference speed the host ran."""
    return math.sqrt(kernel_s / PROBE_REF_S * import_s / IMPORT_PROBE_REF_S)


def measure(seconds, step):
    """Call step(cycle index) for whole cycles while the next one is
    expected to fit in `seconds` (at least one)."""
    start = time.perf_counter()
    done = 0
    while True:
        step(done)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that has
    at least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(wl, m: Measurement, setups):
    k = wl.latency_group
    groups = [m.samples[i: i + k] for i in range(0, len(m.samples), k)]
    per_unit = [1e3 * sum(s[1] for s in g) / sum(s[2] for s in g) for g in groups]
    tail_ms, pct, beyond = tail(per_unit)
    if wl.name == "cli-cold":
        rss_kb = wl.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unscaled = {
        "setup_s": statistics.median(t for t, _, _ in setups),
        "ops_per_s": m.units / m.op_seconds,
        "op_p50_ms": statistics.median(per_unit),
        "op_tail_ms": tail_ms,
    }
    kernel_s, import_s = statistics.median(m.probes), statistics.median(m.import_probes)
    slow = slowdown(kernel_s, import_s)
    metrics = {name: value * slow if name == "ops_per_s" else value / slow
               for name, value in unscaled.items()}
    # a set-up is scaled by the probes taken right after it
    metrics["setup_s"] = statistics.median(t / slowdown(k, i) for t, k, i in setups)
    metrics.update(ok_ratio=(m.units - m.failed) / m.units, peak_rss_mb=rss_kb / 1024.0)
    kinds = {}
    for kind, dt, units, _ in m.samples:
        kinds.setdefault(kind, []).append(1e3 * dt / units)
    extra = {
        "unit": wl.unit,
        "probe_ms": 1e3 * kernel_s,
        "probes": len(m.probes),
        "import_probe_ms": 1e3 * import_s,
        "import_probes": len(m.import_probes),
        "time_scale": 1.0 / slow,
        "unscaled": unscaled,
        "cycles": m.cycles,
        "operations": len(m.samples),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "samples": len(per_unit),
        "latency_ms": [(kind, 1e3 * dt / units) for kind, dt, units, _ in m.samples],
        "setup_samples_s": [t for t, _, _ in setups],
        "setup_probe_ms": [1e3 * p for _, p, _ in setups],
        "setup_import_probe_ms": [1e3 * p for _, _, p in setups],
        "p50_ms_by_kind": {k: statistics.median(v) for k, v in kinds.items()},
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# per-layer figures


COUNTED = (
    "quadrature.integrate", "quadrature.normalize", "quadrature.quantile",
    "likelihoods.log_on",
    "propriety.holder_check", "propriety.pooled_propriety", "propriety.posterior_mass",
    "pooling.kl_objective", "pooling.geometric_pool", "pooling.verify_pool_optimality",
    "sparse_multinomial.compare_priors", "sparse_multinomial.v_posterior",
    "sparse_multinomial.v_summary_table", "sparse_multinomial.dm_log_marginal",
    "reparam.dirichlet_equivalence_report", "reparam.ordered_prior_diagnostics",
    "cli.main",
)
CLI_SUBCOMMANDS = ("pool", "holder", "sparse_mn", "compare", "poisson_equiv", "ordered_mn")


def import_times():
    """Median cumulative import times (ms) of prior_forge and of the scipy
    modules it pulls in, from `python -X importtime` in fresh processes."""
    pf, sp = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import prior_forge"],
                              capture_output=True, text=True, check=True)
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            level = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((level, name.strip(), int(cumulative)))
        stack, scipy_us, pf_us = [], 0, 0
        for level, name, cumulative in reversed(entries):  # parents first
            del stack[level:]
            if name == "prior_forge":
                pf_us = cumulative
            if name.split(".")[0] == "scipy" and not any(
                    a.split(".")[0] == "scipy" for a in stack):
                scipy_us += cumulative
            stack.append(name)
        pf.append(pf_us / 1e3)
        sp.append(scipy_us / 1e3)
    return statistics.median(pf), statistics.median(sp)


def layer_metrics(spans, overhead, imports):
    from tracer import DENSITY_BUILDERS, LAYERS, analyse, median_or_zero

    by_name, by_layer, self_of = analyse(spans)
    out = {"trace_overhead_ratio": overhead,
           "import.prior_forge_ms": imports[0], "import.scipy_ms": imports[1]}
    for name in COUNTED:
        entry = by_name.get(name, {"calls": 0, "self_ms": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_ms"] = entry["self_ms"]
    names = {s["id"]: s["name"] for s in spans}
    builders = [s for s in spans if s["name"] in DENSITY_BUILDERS]
    out["density.build.calls"] = sum(1 for s in builders
                                     if names.get(s["parent"]) not in DENSITY_BUILDERS)
    out["density.build.self_ms"] = 1e3 * sum(self_of[s["id"]] for s in builders)

    integrate = [s for s in spans if s["name"] == "quadrature.integrate"]
    for kind in ("bounded", "halfline", "realline"):
        out[f"quadrature.integrate.{kind}_us"] = 1e6 * median_or_zero(
            [s["end"] - s["start"] for s in integrate if s["attrs"]["kind"] == kind])
    out["quadrature.integrate.converged_ratio"] = (
        sum(s["attrs"]["converged"] for s in integrate) / len(integrate) if integrate else 0.0)
    vpost = [s for s in spans if s["name"] == "sparse_multinomial.v_posterior"]
    out["sparse_multinomial.v_posterior.proper_ratio"] = (
        sum(s["attrs"]["proper"] for s in vpost) / len(vpost) if vpost else 0.0)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}_ms"] = 1e3 * median_or_zero(by_name.get(
            f"cli.main.{sub}", {"durations": []})["durations"])
    for layer in LAYERS:
        figures = by_layer.get(layer, {"busy_ms": 0.0, "wall_ms": 0.0})
        out[f"{layer}.busy_ms"] = figures["busy_ms"]
        out[f"{layer}.wall_ms"] = figures["wall_ms"]

    # exact integrate counts per operation, from the benchmark's own op spans
    parent = {s["id"]: s["parent"] for s in spans}
    ops = {s["id"]: s for s in spans if s["name"] == "bench.op"}
    per_op = dict.fromkeys(ops, 0)
    for s in integrate:
        node = s["parent"]
        while node is not None and node not in ops:
            node = parent.get(node)
        if node is not None:
            per_op[node] += 1
    clean = [i for i, s in ops.items() if s["attrs"]["failed"] == 0]
    holder = "propriety.holder_check" in by_name
    out["propriety.integrate_per_case"] = (
        sum(per_op[i] for i in clean) / len(clean) if holder and clean else 0.0)
    verify = "pooling.verify_pool_optimality" in by_name
    units = sum(ops[i]["attrs"]["units"] for i in clean)
    out["pooling.integrate_per_perturbation"] = (
        sum(per_op[i] for i in clean) / units if verify and units else 0.0)
    return out


def traced_run(wl, seconds):
    """Alternate untraced and traced passes over the same cycles; returns
    both measurements, the spans and the per-layer metrics."""
    from tracer import Tracer

    base, traced, tracer = Measurement(), Measurement(), Tracer()
    span_files = []

    def traced_cli():
        path = wl.workdir / f"spans-{len(span_files)}.json"
        span_files.append(path)
        return [sys.executable, str(BENCH / "traced_cli.py"), str(path)]

    def step(index):
        run_cycle(wl, index, base)
        if wl.name == "cli-cold":
            wl.traced_prefix = traced_cli
            run_cycle(wl, index, traced)
            wl.traced_prefix = None
        else:
            tracer.install()
            try:
                run_cycle(wl, index, traced, tracer)
            finally:
                tracer.uninstall()

    measure(seconds, step)
    spans = tracer.export()
    for i, path in enumerate(span_files):
        for s in json.loads(path.read_text()):
            s["id"] = f"{i}:{s['id']}"
            s["parent"] = None if s["parent"] is None else f"{i}:{s['parent']}"
            spans.append(s)
    overhead = traced.op_seconds / base.op_seconds
    return base, traced, spans, layer_metrics(spans, overhead, import_times())


# ---------------------------------------------------------------------------


def environment():
    import numpy
    import scipy
    from prior_forge.util import thread_cap

    return {"cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_cap": thread_cap(),
            "PRIOR_FORGE_THREADS": os.environ.get("PRIOR_FORGE_THREADS")}


def child_setup(args):
    """(set-up seconds, kernel and import probe seconds right after it) in a
    fresh process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["probe_s"], result["import_probe_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path.name} not found at the checkout root")
    if not (SRC / "prior_forge" / "__init__.py").is_file():
        fail("src/prior_forge not found: run from the root of a prior-forge checkout")
    spec = json.loads(spec_path.read_text())
    os.environ.pop("PRIOR_FORGE_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    sys.path.insert(0, str(SRC))
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workdir) -> int:
    t0 = time.perf_counter()
    import prior_forge

    if Path(prior_forge.__file__).resolve().parent != (SRC / "prior_forge").resolve():
        fail(f"imported prior_forge from {prior_forge.__file__}, not from src/")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    setup_s = time.perf_counter() - t0
    setup_probe = statistics.median(probe() for _ in range(3))
    setup_import_probe = statistics.median(import_probe() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe,
                          "import_probe_s": setup_import_probe}))
        return 0
    setups = [(setup_s, setup_probe, setup_import_probe)]
    setups += [child_setup(args) for _ in range(SETUP_REPEATS - 1)]

    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace:
        base, traced, spans, values = traced_run(wl, args.seconds)
        names = spec["per_layer"]
        attempted, failed_all = base.units + traced.units, base.failed + traced.failed
        notes, unexpected = ({k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}
                             for a, b in ((base.notes, traced.notes),
                                          (base.unexpected, traced.unexpected)))
        listed_passed = base.listed_passed + traced.listed_passed
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(spans))
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["spans"] = len(spans)
    else:
        m = Measurement(probing=True)
        measure(args.seconds, lambda index: run_cycle(wl, index, m))
        values, extra = end_to_end(wl, m, setups)
        names = spec["end_to_end"]
        attempted, failed_all, notes = m.units, m.failed, m.notes
        unexpected, listed_passed = m.unexpected, m.listed_passed
        report.update(extra)
    missing = [n["name"] for n in names if n["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    metrics = {n["name"]: {"value": values[n["name"]], "unit": n["unit"]} for n in names}
    # a failure is allowed only when it is a listed library defect; those
    # are counted apart from `failed` and lower ok_ratio
    failed = sum(unexpected.values())
    listed_failed = failed_all - failed
    report.update(attempted=attempted, failed=failed, listed_defects_failed=listed_failed,
                  failure_notes=notes,
                  unexpected_failures=unexpected, listed_defects_passed=listed_passed,
                  metrics=metrics)
    if getattr(wl, "exits", None):
        report["divergence_exits"] = wl.exits
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} {wl.unit}s attempted, {failed_all} failed their check: "
          f"{listed_failed} as a listed library defect, {failed} otherwise")
    print("environment " + json.dumps(report["environment"]))
    for key in ("cycles", "op_tail_percentile", "op_tail_samples_beyond",
                "p50_ms_by_kind", "setup_samples_s", "probe_ms", "import_probe_ms",
                "time_scale",
                "unscaled", "divergence_exits"):
        if key in report:
            print(f"{key} {json.dumps(report[key])}")
    for note, count in sorted(unexpected.items())[:MAX_NOTES]:
        print(f"UNEXPECTED failure x{count}: {note}")
    if listed_passed:
        print(f"{listed_passed} {wl.unit}s listed as a library defect passed their "
              "check: the defect list in workloads.py is stale")
    for note, count in sorted(notes.items())[:MAX_NOTES]:
        print(f"failure x{count}: {note}")
    if len(notes) > MAX_NOTES:
        print(f"... {len(notes) - MAX_NOTES} more failure notes in the results file")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    # every attempted operation went through its reference check
    correct = attempted >= 1 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
