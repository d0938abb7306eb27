"""Tempered-distribution pairings of heat supertraces with test functions.

For a circle system at deformation strength mu, the pairing integrates the
coexact heat supertrace against the Fourier transform of a Schwartz test
function, with the heat-time integral innermost or outermost.  The two
orders coincide by construction: per eigenpair the heat-time integral over
(t, infinity) is e^{-t lambda}/lambda, which telescopes to the regularized
trace as t -> 0, so the inner integral at each frequency node is the zeta
invariant that the outer order takes first.  Both orders therefore run one
quadrature of :func:`~wittenlab.circle.zeta_invariant`.  As mu grows the
pairing converges to the limit invariant times the test function's value at
zero.

Only the centered Gaussian family is implemented; its transform decays fast
enough that the frequency truncation error is certifiable in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .circle import zeta_invariant
from .errors import DomainError

__all__ = [
    "GaussianTestFunction",
    "PairingResult",
    "pair_inner_first",
    "pair_outer_first",
    "delta_limit_report",
]

_GL_NODES = 129
_R_SCALE = 8.0


@dataclass(frozen=True)
class GaussianTestFunction:
    """f(x) = amplitude * exp(-x^2 / (2 sigma^2)); transform in closed form."""

    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")

    @property
    def at_zero(self):
        return self.amplitude

    def hat(self, nu):
        nu = np.asarray(nu, dtype=float)
        return (
            self.amplitude
            * self.sigma
            * np.sqrt(2.0 * np.pi)
            * np.exp(-0.5 * (self.sigma * nu) ** 2)
        )

    @property
    def truncation_radius(self):
        return _R_SCALE / self.sigma

    def tail_bound(self, radius):
        """Bound on the omitted mass (1/2pi) * integral over |nu| > radius."""
        return (
            abs(self.amplitude)
            * erfc(self.sigma * radius / np.sqrt(2.0))
        )


def _components(spec):
    if isinstance(spec, GaussianTestFunction):
        return (spec,)
    return tuple(spec)


def _nodes(specs):
    radius = max(s.truncation_radius for s in specs)
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    return radius * x, radius * w, radius


@dataclass(frozen=True)
class PairingResult:
    value: complex
    mu: float
    order: str  # label only: both orders evaluate the same quadrature
    radius: float
    tail_bound: float
    node_count: int


def _pair(system, mu, spec, order) -> PairingResult:
    """Gauss-Legendre frequency quadrature of the zeta invariant."""
    specs = _components(spec)
    nodes, weights, radius = _nodes(specs)
    total = 0.0 + 0.0j
    for nu, w in zip(nodes, weights):
        res = zeta_invariant(system, complex(mu, nu))
        fhat = sum(s.hat(nu) for s in specs)
        total += w * fhat * res.value
    tail = sum(s.tail_bound(radius) for s in specs)
    return PairingResult(
        value=total / (2.0 * np.pi),
        mu=float(mu),
        order=order,
        radius=radius,
        tail_bound=float(tail),
        node_count=len(nodes),
    )


def pair_inner_first(system, mu, spec) -> PairingResult:
    """Heat-time integral innermost, frequency quadrature outermost.

    Per eigenpair the heat-time integral telescopes to the regularized
    trace, so each node carries the zeta invariant and the value coincides
    with :func:`pair_outer_first` by construction."""
    return _pair(system, mu, spec, "inner")


def pair_outer_first(system, mu, spec) -> PairingResult:
    """Heat-time limit first (zeta invariant per frequency node), then the
    frequency quadrature."""
    return _pair(system, mu, spec, "outer")


@dataclass(frozen=True)
class DeltaLimitRow:
    mu: float
    sigma: float
    order: str
    value: complex
    deviation: float


@dataclass(frozen=True)
class DeltaLimitReport:
    rows: tuple
    target: float
    extrapolated: dict  # sigma -> limit estimate from the 1/mu fit

    def csv_rows(self):
        return [
            (r.mu, r.sigma, r.order, r.value.real, r.value.imag, r.deviation)
            for r in self.rows
        ]


def delta_limit_report(system, mu_sweep, specs, target, order="outer"):
    """Deviation table |pairing - target * f(0)| across the strength sweep,
    one test function per entry of ``specs``; includes the 1/mu-extrapolated
    limit estimate per test function."""
    pair = pair_outer_first if order == "outer" else pair_inner_first
    rows = []
    extrapolated = {}
    for spec in specs:
        values = []
        for mu in mu_sweep:
            res = pair(system, mu, spec)
            dev = abs(res.value - target * spec.at_zero)
            rows.append(
                DeltaLimitRow(float(mu), spec.sigma, order, res.value, float(dev))
            )
            values.append(res.value.real / spec.at_zero)
        inv_mu = 1.0 / np.asarray(mu_sweep, dtype=float)
        coeffs = np.polyfit(inv_mu, np.asarray(values), 1)
        extrapolated[spec.sigma] = float(coeffs[1])
    return DeltaLimitReport(tuple(rows), float(target), extrapolated)
