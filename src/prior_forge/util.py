"""Small shared helpers: the thread-pool worker count, value formatting,
atomic text output, a median and a quantile of sorted values."""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np


def thread_cap() -> int:
    """Worker count for parallel sweeps: the CPU count, at most 8."""
    return min(os.cpu_count() or 1, 8)


def write_text_atomic(path: str, payload: str) -> None:
    """Write a text file via a temp file and rename, so readers never see
    a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_value(value) -> str:
    """Text form of an output value: floats at 17 significant digits with
    inf/-inf/nan spelled out, booleans as true/false, None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return format(value, ".17g")
    return str(value)


def median(a, axis=0):
    """np.median of a NaN-free array along an axis, bit for bit, without
    the numpy.ma import np.median makes on first use. An even count
    averages the two middle values as (lo + hi) / 2, which is the
    arithmetic of np.median's mean."""
    n = a.shape[axis]
    k = n // 2
    if n % 2:
        return np.partition(a, k, axis=axis).take(k, axis=axis)
    part = np.partition(a, [k - 1, k], axis=axis)
    return (part.take(k - 1, axis=axis) + part.take(k, axis=axis)) / 2.0


def sorted_quantile(a, q: float) -> float:
    """np.quantile(a, q) of a sorted NaN-free 1-D array, bit for bit, by its
    interpolation at index (len(a) - 1) * q, without its numpy.ma import."""
    pos = (len(a) - 1) * q
    i = min(math.floor(pos), len(a) - 2)
    lo, hi, t = float(a[i]), float(a[i + 1]), pos - i
    return hi - (hi - lo) * (1.0 - t) if t >= 0.5 else lo + (hi - lo) * t
