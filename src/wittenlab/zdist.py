"""Tempered-distribution pairings of heat supertraces with test functions.

For a circle system at deformation strength mu, the pairing integrates the
coexact heat supertrace against the Fourier transform of one Gaussian test
function, with the heat-time integral innermost or outermost.  The two
orders coincide by construction: per eigenpair the heat-time integral over
(t, infinity) is e^{-t lambda}/lambda, which telescopes to the regularized
trace as t -> 0, so the inner integral at each frequency node is the zeta
invariant that the outer order takes first.  One function, under both
names, serves both orders.  As mu grows the pairing converges to the limit
invariant times the test function's value at zero.

The frequency quadrature is the 65-node Gauss-Kronrod rule on the test
function's truncation radius; the 32-node Gauss rule embedded in it reads
the same zeta values, and |Kronrod - Gauss| is the error estimate (as in
QUADPACK, Piessens et al. 1983).  A pairing whose estimate exceeds
``_QUAD_RTOL`` of the integrand mass raises ``ConvergenceError`` instead of
returning an uncertified value.

Only the centered Gaussian family is implemented.  Its transform's mass
beyond the truncation radius is a closed form; times the sup of |zeta|
there it bounds the frequency truncation error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circle import zeta_invariant
from .errors import ConvergenceError, DomainError

__all__ = [
    "GaussianTestFunction",
    "PairingResult",
    "pair_inner_first",
    "pair_outer_first",
    "delta_limit_report",
]

_R_SCALE = 8.0
#: Bound on the quadrature error estimate relative to the integrand mass.
_QUAD_RTOL = 1e-9


@functools.cache
def _kronrod(n):
    """Gauss-Kronrod rule on [-1, 1] that extends the n-point Gauss-Legendre
    rule; exact for polynomials of degree 3n + 1 (n even) or 3n + 2 (n odd).

    Returns ``(x, wk, wg)``: the 2n + 1 nodes ascending, their Kronrod
    weights, and the Gauss weights of the Gauss nodes ``x[1::2]``.  The
    n + 1 new nodes are the roots of the Stieltjes polynomial E_{n+1}, which
    is orthogonal to P_n x^k for k <= n (Kronrod 1965; D. P. Laurie, Math.
    Comp. 66, 1997, builds the same rule from a Jacobi matrix).  In the
    Legendre basis E_{n+1} = P_{n+1} + sum_j c_j P_j over j of the
    parity of n + 1, and the conditions are linear in c with the triple
    products of P_n P_j P_k, exact under a (2n + 2)-point Gauss rule.  The
    weights make the rule interpolatory on all 2n + 1 nodes.  Nodes and
    weights are symmetrized, as in ``leggauss``, so that rules on different
    radii share the node 0.
    """
    leg = np.polynomial.legendre
    xg, wg = leg.leggauss(n)
    xq, wq = leg.leggauss(2 * n + 2)
    vq = leg.legvander(xq, n + 1)
    triple = (vq * (wq * vq[:, n])[:, None]).T @ vq
    k = np.arange(1, n + 1, 2)  # for even k, P_n E_{n+1} P_k is odd
    j = np.arange((n + 1) % 2, n + 1, 2)
    c = np.zeros(n + 2)
    c[n + 1] = 1.0
    c[j] = np.linalg.solve(triple[np.ix_(k, j)], -triple[k, n + 1])
    roots = leg.legroots(c)
    roots -= leg.legval(roots, c) / leg.legval(roots, leg.legder(c))
    x = np.sort(np.concatenate([xg, roots]))
    x = 0.5 * (x - x[::-1])  # symmetric, with the middle node exactly 0
    moments = np.zeros(2 * n + 1)
    moments[0] = 2.0
    wk = np.linalg.solve(leg.legvander(x, 2 * n).T, moments)
    return x, 0.5 * (wk + wk[::-1]), wg


@dataclass(frozen=True)
class GaussianTestFunction:
    """f(x) = amplitude * exp(-x^2 / (2 sigma^2)); transform in closed form."""

    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise DomainError("sigma must be positive and finite")

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
        """Omitted mass (1/2pi) * integral of |f-hat| over |nu| > radius of
        the test function alone; a pairing's truncation error is at most
        this times the sup of |zeta(1, mu + i nu)| over |nu| > radius."""
        return (
            abs(self.amplitude)
            * math.erfc(self.sigma * radius / math.sqrt(2.0))
        )


@dataclass(frozen=True)
class PairingResult:
    value: complex
    mu: float
    radius: float  # the test function's truncation radius
    tail_bound: float  # omitted f-hat mass; error <= it x sup |zeta| beyond
    node_count: int
    quadrature_error: float  # |Kronrod - Gauss|


def pair_outer_first(system, mu, spec) -> PairingResult:
    """Heat-time limit first (zeta invariant per frequency node), then the
    Gauss-Kronrod frequency quadrature of the Gaussian ``spec`` on its
    truncation radius.  :func:`pair_inner_first` is this function: with the
    heat-time integral innermost, each node carries the same zeta invariant."""
    x, wk, wg = _kronrod(32)  # built by the first pairing, not at import
    radius = spec.truncation_radius
    nodes = radius * x
    zeta = np.array([zeta_invariant(system, complex(mu, nu)).value for nu in nodes])
    terms = radius * spec.hat(nodes) * zeta
    kronrod = wk @ terms
    error = abs(kronrod - wg @ terms[1::2]) / (2.0 * np.pi)
    mass = wk @ np.abs(terms)
    if error > _QUAD_RTOL * mass / (2.0 * np.pi):
        raise ConvergenceError(
            f"frequency quadrature estimate {error:.3e} exceeds {_QUAD_RTOL:g} "
            f"of the integrand mass at mu={mu:g}",
            data=error,
        )
    return PairingResult(
        value=kronrod / (2.0 * np.pi), mu=float(mu), radius=radius,
        tail_bound=float(spec.tail_bound(radius)), node_count=len(x),
        quadrature_error=float(error),
    )


pair_inner_first = pair_outer_first


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
    extrapolated: dict  # sigma -> limit estimate from the 1/mu fit

    def csv_rows(self):
        return [
            (r.mu, r.sigma, r.order, r.value.real, r.value.imag, r.deviation)
            for r in self.rows
        ]


def delta_limit_report(system, mu_sweep, specs, target, order="outer"):
    """Deviation table |pairing - target * f(0)| across the strength sweep,
    one test function per entry of ``specs``; includes the 1/mu-extrapolated
    limit estimate per test function.  Both orders take the same
    quadrature, so ``order`` only tags the rows."""
    rows = []
    extrapolated = {}
    for spec in specs:
        values = []
        for mu in mu_sweep:
            res = pair_outer_first(system, mu, spec)
            dev = abs(res.value - target * spec.at_zero)
            rows.append(
                DeltaLimitRow(float(mu), spec.sigma, order, res.value, float(dev))
            )
            values.append(res.value.real / spec.at_zero)
        inv_mu = 1.0 / np.asarray(mu_sweep, dtype=float)
        coeffs = np.polyfit(inv_mu, np.asarray(values), 1)
        extrapolated[spec.sigma] = float(coeffs[1])
    return DeltaLimitReport(tuple(rows), extrapolated)
