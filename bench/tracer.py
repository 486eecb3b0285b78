"""Outside-in span tracer for prior_forge.

`Tracer.install()` replaces the public functions of the package's modules
with timing wrappers, in every module that binds them (including names
brought in by `from .quadrature import integrate`), so nothing under
`src/` changes. Each thread keeps its own span stack; work submitted to the
library's thread pools inherits the submitting thread's open span as its
parent, so pool workers attach to the call that started them.

A span's self time is its duration minus the part of that interval its
children cover (the union of their intervals, clipped), so parallel
children can never drive a parent's self time below zero. Busy time sums
self times over threads; wall time is the length of the union of self
intervals, which is shorter than busy time when a layer runs on two
threads at once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (module, function) pairs that get a span. Methods are "Class.method".
TRACED = {
    "quadrature": ("integrate", "normalize", "quantile", "cdf_at", "mode"),
    "density": ("beta_density", "gamma_density", "normal_density",
                "flat_density", "improper_flat", "exp_tilt_density",
                "halfline_density", "realline_density", "bounded_density"),
    "likelihoods": ("LikelihoodModel.log_on",),
    "pooling": ("geometric_pool", "arithmetic_pool", "kl_objective",
                "verify_pool_optimality"),
    "propriety": ("posterior_mass", "holder_check", "pooled_propriety"),
    "sparse_multinomial": ("v_posterior", "v_summary_table", "compare_priors",
                           "dm_log_marginal", "large_m_stability"),
    "reparam": ("dirichlet_equivalence_report", "ordered_prior_diagnostics"),
    "cli": ("main", "_cmd_pool", "_cmd_holder", "_cmd_sparse_mn",
            "_cmd_compare", "_cmd_poisson_equiv", "_cmd_ordered_mn"),
}
# modules whose ThreadPoolExecutor binding is swapped for one that hands
# the submitting thread's open span to the worker
POOLED_MODULES = ("pooling", "sparse_multinomial")

LAYERS = tuple(TRACED)
DENSITY_BUILDERS = frozenset(f"density.{f}" for f in TRACED["density"])


def _domain_kind(density) -> str:
    lo, hi = density.domain_lo, density.domain_hi
    if math.isfinite(lo) and math.isfinite(hi):
        return "bounded"
    if math.isfinite(lo) or math.isfinite(hi):
        return "halfline"
    return "realline"


def _span_name(module: str, fn: str) -> str:
    if fn.startswith("_cmd_"):
        return "cli.main." + fn[len("_cmd_"):]
    return f"{module}.{fn.rsplit('.', 1)[-1]}"


class Tracer:
    """Collects spans as tuples (id, name, start, end, parent, attrs)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            with self.span(name, attrs):
                result = fn(*args, **kwargs)
            attrs.update(_attributes(name, args, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name, attrs):
        """A span opened by the benchmark itself; attrs may be filled in
        after it closes."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, attrs))

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run(*a, **kw):
                    saved = getattr(tracer._local, "stack", None)
                    tracer._local.stack = [parent] if parent is not None else []
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.stack = saved

                return super().submit(run, *args, **kwargs)

        return TracedExecutor

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a prior_forge module binds it."""
        traced = {short: importlib.import_module(f"prior_forge.{short}") for short in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "prior_forge" or n.startswith("prior_forge."))]
        for short, fns in TRACED.items():
            mod = traced[short]
            for fn in fns:
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._wrap(_span_name(short, fn), cls.__dict__[meth]))
                    continue
                original = getattr(mod, fn)
                wrapper = self._wrap(_span_name(short, fn), original)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, attr, wrapper)
        executor = self._executor_class()
        for short in POOLED_MODULES:
            if traced[short].ThreadPoolExecutor is ThreadPoolExecutor:
                self._set(traced[short], "ThreadPoolExecutor", executor)
        return self

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- export ----------------------------------------------------------

    def export(self):
        """Spans as JSON-ready dicts, ordered by start time."""
        return [
            {"id": sid, "name": name, "start": t0, "end": t1,
             "parent": parent, "attrs": attrs}
            for sid, name, t0, t1, parent, attrs in sorted(self.spans, key=lambda s: s[2])
        ]


def _attributes(name, args, result):
    if name == "quadrature.integrate":
        return {"kind": _domain_kind(args[0]), "converged": bool(result.converged)}
    if name == "sparse_multinomial.v_posterior":
        return {"proper": bool(result.proper)}
    return {}


# ---------------------------------------------------------------------------
# analysis


def _union(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return merged


def _self_intervals(start, end, children):
    """[start, end] minus the union of the children's intervals."""
    out, cursor = [], start
    for lo, hi in _union((max(c0, start), min(c1, end)) for c0, c1 in children
                         if c1 > start and c0 < end):
        if lo > cursor:
            out.append((cursor, lo))
        cursor = max(cursor, hi)
    if end > cursor:
        out.append((cursor, end))
    return out


def analyse(spans):
    """Per-name calls, busy and self figures from exported spans.

    Returns (by_name, by_layer, self_of): by_name maps a span name to a
    dict with calls, self_ms (summed over threads) and the list of
    inclusive durations; by_layer maps a layer to busy_ms and wall_ms;
    self_of maps a span id to its self seconds.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    by_name, layer_intervals, self_of = {}, {}, {}
    for s in spans:
        pieces = _self_intervals(s["start"], s["end"], children.get(s["id"], ()))
        self_s = sum(hi - lo for lo, hi in pieces)
        self_of[s["id"]] = self_s
        entry = by_name.setdefault(s["name"], {"calls": 0, "self_ms": 0.0,
                                               "durations": []})
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * self_s
        entry["durations"].append(s["end"] - s["start"])
        layer_intervals.setdefault(s["name"].split(".")[0], []).extend(pieces)
    by_layer = {}
    for layer, pieces in layer_intervals.items():
        busy = sum(hi - lo for lo, hi in pieces)
        wall = sum(hi - lo for lo, hi in _union(pieces))
        by_layer[layer] = {"busy_ms": 1e3 * busy, "wall_ms": 1e3 * wall}
    return by_name, by_layer, self_of


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
