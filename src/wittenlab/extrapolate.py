"""Richardson extrapolation in powers of sqrt(t) on geometric t-sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["RichardsonResult", "default_t_sequence", "richardson_sqrt"]


def default_t_sequence(t0=1.0, steps=12):
    """Geometric sequence t0 * 2^-j, j = 0..steps-1."""
    return tuple(t0 * 0.5**j for j in range(steps))


@dataclass(frozen=True)
class RichardsonResult:
    value: complex
    raw: tuple
    column: tuple  # the extrapolated column


def richardson_sqrt(ts, values) -> RichardsonResult:
    """Extrapolate t -> 0 assuming corrections c_1 sqrt(t) + c_2 t + ...

    ``ts`` must decrease geometrically with ratio 2; one elimination step
    removes the sqrt(t) term.  The value is the column's last entry; the
    column's tail is what :func:`oscillating` inspects.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=complex)
    if ts.size != vals.size or ts.size < 2:
        raise DomainError("need at least two matching samples")
    if np.any(np.abs(ts[:-1] / ts[1:] - 2.0) > 1e-9):
        raise DomainError("t-sequence must be geometric with ratio 2")
    kappa = 2.0**0.5
    col = (kappa * vals[1:] - vals[:-1]) / (kappa - 1.0)
    return RichardsonResult(value=complex(col[-1]), raw=tuple(vals), column=tuple(col))


def oscillating(result: RichardsonResult) -> bool:
    """True when the final column is non-finite or its increments alternate
    in sign with non-decreasing magnitude (a genuinely unstable tail);
    monotone slow approach does not count as oscillation."""
    col = np.asarray(result.column)
    if not np.all(np.isfinite(col)):
        return True
    inc = np.diff(col)
    if inc.size < 3:
        return False
    tail = inc[-3:]
    signs = np.sign(np.real(tail))
    mags = np.abs(tail)
    alternating = signs[0] != 0 and np.all(signs[:-1] == -signs[1:])
    return bool(alternating and mags[-1] >= mags[0])
