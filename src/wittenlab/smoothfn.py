"""Smooth cutoff building blocks.

All functions here are C-infinity with *flat* junctions: every derivative
vanishes where a piece meets a constant region, so gluing them onto exact
linear or quadratic caps keeps the glued function C-infinity.  That is what
preserves the spectral accuracy of the Fourier discretization downstream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["smooth_step", "smooth_plateau"]


def _exp_flat(x):
    """exp(-1/x) for x > 0, zero otherwise (vectorized, overflow-safe)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-12
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly increasing between."""
    a = _exp_flat(x)
    b = _exp_flat(1.0 - np.asarray(x, dtype=float))
    with np.errstate(invalid="ignore"):
        s = np.where(a + b > 0.0, a / np.where(a + b > 0.0, a + b, 1.0), 0.0)
    return s


def smooth_plateau(x, rise, fall):
    """C-infinity plateau on [0, 1]: ramps up on [0, rise], down on [1-fall, 1]."""
    x = np.asarray(x, dtype=float)
    up = smooth_step(x / rise)
    down = smooth_step((1.0 - x) / fall)
    return up * down
