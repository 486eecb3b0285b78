"""The names the benchmark harness reads from the package.

bench/tracer.py wraps the functions in its TRACED table and swaps the
ThreadPoolExecutor binding of each POOLED_MODULES module, and bench/run.py
reports util.thread_cap(). A removal in the package that drops one of
these breaks a traced benchmark run, so each is checked here.
"""

import importlib
import importlib.util
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from prior_forge.util import thread_cap

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    # tracer.py imports only the standard library; loading it runs nothing
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve_in_the_package():
    tracer = _tracer()
    for short, names in tracer.TRACED.items():
        module = importlib.import_module(f"prior_forge.{short}")
        for name in names:
            # a method is looked up in its class's own namespace
            cls, _, attr = name.rpartition(".")
            target = vars(getattr(module, cls))[attr] if cls else getattr(module, attr)
            assert callable(target), f"{short}.{name}"
    for short in tracer.POOLED_MODULES:
        module = importlib.import_module(f"prior_forge.{short}")
        assert module.ThreadPoolExecutor is ThreadPoolExecutor, short
    cap = thread_cap()
    assert isinstance(cap, int) and cap > 0
