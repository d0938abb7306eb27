"""Smooth cutoff building blocks.

All functions here are C-infinity with *flat* junctions: every derivative
vanishes where a piece meets a constant region, so gluing them onto exact
linear or quadratic caps keeps the glued function C-infinity.  That is what
preserves the spectral accuracy of the Fourier discretization downstream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["smooth_step", "smooth_plateau", "SMOOTH_STEP_MOMENT"]


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


def _smooth_step_moment():
    """C = integral of u S(u) over [0, 1], S = :func:`smooth_step`.

    Every derivative of S vanishes at both ends, so by Euler-Maclaurin the
    trapezoidal sum of u S(u) with step h = 1/n differs from C by h^2/12
    (from (u S)'(1) - (u S)'(0) = 1) plus a term that decays faster than any
    power of h; n = 1024 reaches double precision.
    """
    n = 1024
    u = np.linspace(0.0, 1.0, n + 1)
    f = u * smooth_step(u)
    h = 1.0 / n
    return h * (np.sum(f) - 0.5 * (f[0] + f[-1])) - h * h / 12.0


#: First moment C of :func:`smooth_step` on [0, 1]; with S(t) + S(1-t) = 1
#: it gives every integral of a smooth step against a linear function.
SMOOTH_STEP_MOMENT = _smooth_step_moment()
