"""Model Laplacian attached to a nondegenerate zero of index k on R^n.

The local model near an index-k zero is the harmonic-oscillator family

    L = sum_j ( -d^2/dx_j^2 + mu^2 x_j^2 + mu eps_j [dx_j interior, dx_j wedge] )

with eps_j = -1 for j <= k and +1 for j > k.  Its spectrum on d-forms is the
set of values  mu * sum_j (1 + 2 u_j + eps_j v_j)  over occupation numbers
u_j >= 0 and signs v_j = +-1 with exactly d of the v_j equal to +1.  This
module enumerates that spectrum, evaluates the cutoff normalization
constant, and validates the n = 1 case against a finite-difference
discretization.

The cutoff normalization is a trapezoidal sum: its integrand is C-infinity
with every derivative vanishing at the ends of its support, where the
trapezoidal rule converges faster than any power of the step (Trefethen and
Weideman, SIAM Review 56(3), 2014).  Only the finite-difference check loads
SciPy (its tridiagonal eigensolver), and only when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .errors import DomainError, NumericalError
from .smoothfn import smooth_step

__all__ = [
    "MorseModelSpec",
    "ModelEigenvalue",
    "ModelCheckReport",
    "model_spectrum",
    "cutoff_normalization",
    "default_cutoff",
    "numeric_model_check",
]

DEFAULT_MAX_QUANTA = 6
_MAX_RECORDS = 10**6  # model_spectrum's bound; the benchmark's n = 3 needs 1029
_FD_COUNT = 10  # lowest eigenvalues compared by numeric_model_check
_FD_REL_TOL = 1e-4  # largest two-grid drift numeric_model_check accepts
_CUTOFF_PANELS = 1024  # trapezoid panels on the half support of the integrand
#: e^{-mu x^2} < e^{-40} beyond the cut x = sqrt(40 / mu) of the support.
_CUTOFF_GAUSS_EXPONENT = 40.0


@dataclass(frozen=True)
class MorseModelSpec:
    """Dimension n and index k of the model zero."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("dimension must be positive")
        if not 0 <= self.k <= self.n:
            raise DomainError(f"index must lie in [0, {self.n}]")

    @property
    def signs(self):
        """eps_j = -1 for j <= k (1-based), +1 for j > k."""
        return tuple(-1 if j < self.k else 1 for j in range(self.n))


@dataclass(frozen=True)
class ModelEigenvalue:
    value: float
    quanta: tuple
    signs: tuple
    degree: int


def model_spectrum(spec, degree, mu, max_quanta=DEFAULT_MAX_QUANTA):
    """All model eigenvalues on ``degree``-forms with u_j <= max_quanta.

    Returns the sorted multiset as ModelEigenvalue records; zero appears
    exactly once, and only when degree equals the index.  Raises DomainError,
    before any record is built, when there would be over ``_MAX_RECORDS``.
    """
    if not 0 <= degree <= spec.n:
        raise DomainError(f"degree must lie in [0, {spec.n}]")
    if mu <= 0:
        raise DomainError("mu must be positive")
    if max_quanta < 0:
        raise DomainError("max_quanta must be nonnegative")
    count = (max_quanta + 1) ** spec.n * comb(spec.n, degree)
    if count > _MAX_RECORDS:
        raise DomainError(f"{count} eigenvalue records exceed the bound {_MAX_RECORDS}")
    eps = spec.signs
    out = []
    for plus in combinations(range(spec.n), degree):
        v = np.full(spec.n, -1, dtype=int)
        v[list(plus)] = 1
        base = sum(1 + eps[j] * v[j] for j in range(spec.n))
        for u in product(range(max_quanta + 1), repeat=spec.n):
            out.append(
                ModelEigenvalue(
                    value=mu * (base + 2 * sum(u)),
                    quanta=tuple(u),
                    signs=tuple(int(x) for x in v),
                    degree=degree,
                )
            )
    out.sort(key=lambda e: e.value)
    return out


def default_cutoff(r):
    """Even C-infinity profile: 1 on [-r, r], supported in [-2r, 2r]."""
    if r <= 0:
        raise DomainError("cutoff radius must be positive")

    def rho(x):
        t = (2.0 * r - np.abs(np.asarray(x, dtype=float))) / r
        return smooth_step(t)

    return rho


def cutoff_normalization(mu, r):
    """Normalization a_mu = (integral rho^2 e^{-mu x^2} dx)^{1/2} of the
    one-dimensional cutoff ground state, with rho the :func:`default_cutoff`
    of radius r, and its relative deviation from (pi/mu)^{1/4}.

    The deviation is exponentially small in mu.  The even integrand is
    summed by the trapezoidal rule on [0, b], b = min(2r, sqrt(40/mu)).  At
    2r every derivative of rho vanishes, and beyond sqrt(40/mu) the Gaussian
    is below e^{-40} of its peak, so the sum converges faster than any power
    of the step, whatever the width of the Gaussian against the support.
    The error estimate is the gap to the sum on every other node; above
    1e-10 of the value it raises NumericalError.
    """
    if mu <= 0:
        raise DomainError("mu must be positive")
    rho = default_cutoff(r)
    b = min(2.0 * r, np.sqrt(_CUTOFF_GAUSS_EXPONENT / mu))
    h = b / _CUTOFF_PANELS
    x = h * np.arange(_CUTOFF_PANELS + 1)
    f = rho(x) ** 2 * np.exp(-mu * x * x)
    ends = 0.5 * (f[0] + f[-1])
    val = float(2.0 * h * (np.sum(f) - ends))
    err = abs(val - float(4.0 * h * (np.sum(f[::2]) - ends)))
    if err > 1e-10 * max(val, 1e-300):
        raise NumericalError(f"cutoff quadrature error {err:.3e} too large")
    a_mu = val**0.5
    target = (np.pi / mu) ** 0.25
    return a_mu, (a_mu - target) / target


@dataclass(frozen=True)
class ModelCheckReport:
    mu: float
    degree: int
    index: int
    formula: tuple
    numeric: tuple
    rel_errors: tuple

    @property
    def max_rel_error(self):
        return max(self.rel_errors)


def _fd_spectrum(mu, eps_term, L, m, count):
    """Lowest eigenvalues of -u'' + mu^2 x^2 + eps_term on (-L, L), Dirichlet."""
    from scipy.linalg import eigh_tridiagonal

    h = 2.0 * L / (m + 1)
    x = -L + h * np.arange(1, m + 1)
    diag = 2.0 / h**2 + mu**2 * x**2 + eps_term
    off = np.full(m - 1, -1.0 / h**2)
    vals = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, count - 1), eigvals_only=True
    )
    return vals


def numeric_model_check(spec, mu, degree, grid_points=3000):
    """Compare the finite-difference model spectrum with the closed form.

    n = 1 only.  The interval half-width follows the Gaussian decay bound
    L = max(6/sqrt(mu), 4); second-order central differences.  Resolution is
    estimated by re-solving on half the grid, which must hold the compared
    eigenvalues, so a grid of fewer than 2 * _FD_COUNT points raises
    DomainError; an unresolved grid raises NumericalError rather than
    returning silently degraded values.
    """
    if spec.n != 1:
        raise DomainError("finite-difference check is one-dimensional")
    if not 0 <= degree <= 1:
        raise DomainError("degree must be 0 or 1")
    if mu <= 0:
        raise DomainError("mu must be positive")
    if grid_points < 2 * _FD_COUNT:
        raise DomainError(
            f"grid_points must be at least {2 * _FD_COUNT}: the half grid "
            f"must hold the {_FD_COUNT} compared eigenvalues"
        )
    L = max(6.0 / np.sqrt(mu), 4.0)
    # [dx interior, dx wedge] is -1 on functions, +1 on one-forms.
    commutator = -1.0 if degree == 0 else 1.0
    eps_term = mu * spec.signs[0] * commutator
    numeric = _fd_spectrum(mu, eps_term, L, grid_points, _FD_COUNT)
    coarse = _fd_spectrum(mu, eps_term, L, grid_points // 2, _FD_COUNT)
    formula = [
        e.value for e in model_spectrum(spec, degree, mu, max_quanta=_FD_COUNT + 2)
    ][:_FD_COUNT]
    scale = mu
    # second-order stencil: the two-grid drift is about 3x the fine-grid error
    resolution = float(
        np.max(np.abs(numeric - coarse) / (np.abs(numeric) + scale)) / 3.0
    )
    rel = tuple(
        float(abs(nv - fv) / max(abs(fv), scale)) for nv, fv in zip(numeric, formula)
    )
    report = ModelCheckReport(
        mu=mu,
        degree=degree,
        index=spec.k,
        formula=tuple(formula),
        numeric=tuple(float(v) for v in numeric),
        rel_errors=rel,
    )
    if resolution > _FD_REL_TOL:
        raise NumericalError(
            f"grid unresolved: two-grid drift {resolution:.2e} exceeds "
            f"{_FD_REL_TOL:.0e}"
        )
    return report
