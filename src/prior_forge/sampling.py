"""Gamma and Dirichlet sampling on deterministic streams."""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .streams import RandomStream


def sample_gamma(shape: float, scale: float, count: int,
                 stream: RandomStream) -> np.ndarray:
    """Draw `count` Gamma(shape, scale) variates (shape-scale convention).

    The scale multiplies standard draws explicitly, so two calls with the
    same stream and different scales return proportional arrays.
    """
    if shape <= 0 or scale <= 0:
        raise InputError("gamma shape and scale must be positive")
    if count <= 0:
        raise InputError("count must be positive")
    rng = stream.generator()
    return rng.standard_gamma(shape, size=count) * scale


def sample_dirichlet(alphas, count: int, stream: RandomStream) -> np.ndarray:
    """Draw `count` Dirichlet vectors by gamma normalization.

    Returns an array of shape (count, len(alphas)); each row sums to 1
    within accumulated rounding (well under 1e-12).
    """
    al = np.asarray(alphas, dtype=float)
    if al.ndim != 1 or len(al) < 2:
        raise InputError("alphas must be a 1-D vector with at least 2 entries")
    if np.any(al <= 0) or not np.all(np.isfinite(al)):
        raise InputError("alphas must be finite and strictly positive")
    if count <= 0:
        raise InputError("count must be positive")
    return _normalized_gamma(stream.generator(), al, (count, len(al)))


def _normalized_gamma(rng: np.random.Generator, shape, size,
                      scale: float = 1.0) -> np.ndarray:
    """Rows of independent Gamma(shape, scale) draws, each divided by its
    sum. The scale multiplies the standard draws explicitly, so it cancels
    up to rounding."""
    g = rng.standard_gamma(shape, size=size) * scale
    return g / g.sum(axis=1, keepdims=True)
