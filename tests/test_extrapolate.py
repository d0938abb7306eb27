import numpy as np
import pytest

from wittenlab.errors import DomainError
from wittenlab.extrapolate import (
    RichardsonResult,
    default_t_sequence,
    oscillating,
    richardson_sqrt,
)


def column(*values):
    return RichardsonResult(value=complex(values[-1]), raw=(), column=values)


def test_richardson_removes_the_sqrt_term():
    ts = default_t_sequence(steps=6)
    res = richardson_sqrt(ts, [2.0 - 3.0 * np.sqrt(t) for t in ts])
    assert res.value == pytest.approx(2.0, abs=1e-14)
    assert len(res.column) == len(ts) - 1
    assert res.raw == tuple(complex(2.0 - 3.0 * np.sqrt(t)) for t in ts)


def test_richardson_rejects_bad_sequences():
    with pytest.raises(DomainError):
        richardson_sqrt([1.0], [0.0])
    with pytest.raises(DomainError):
        richardson_sqrt([1.0, 0.5], [0.0])
    with pytest.raises(DomainError):
        richardson_sqrt([1.0, 0.4], [0.0, 0.0])


def test_oscillating_alternating_growing_tail():
    assert oscillating(column(0.0, 1.0, -1.0, 2.0, -2.0))


def test_oscillating_ignores_monotone_and_damped_tails():
    assert not oscillating(column(1.0, 0.5, 0.25, 0.125, 0.0625))
    assert not oscillating(column(0.0, 1.0, 0.5, 0.75, 0.625))


def test_oscillating_non_finite_column():
    assert oscillating(column(1.0, np.nan, 2.0))
    assert oscillating(column(1.0, 2.0, 3.0, np.inf))


def test_oscillating_needs_three_increments():
    assert not oscillating(column(0.0, 1.0, -1.0))
