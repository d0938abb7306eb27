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
Weideman, SIAM Review 56(3), 2014).  The sign term
mu eps_j [dx_j interior, dx_j wedge] is the constant +-mu in one dimension,
so the check solves -u'' + mu^2 x^2 once per strength and grid and shifts
the eigenvalues; a bounded cache shares those solves between the index and
degree cases.  Each solve is a Rayleigh-Ritz in the grid's lowest sine
modes, certified on the tridiagonal operator by its Ritz residuals and an
inertia count (numpy alone).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, product

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
_FD_RITZ_TOL = 1e-7  # largest Ritz residual, relative to max(|theta|, mu)
#: Sine modes per unit of L sqrt(mu) in the first Rayleigh-Ritz basis: they
#: reach frequency 3 pi sqrt(mu), where the tenth oscillator state is about
#: 1e-12 of its peak.  Where the walls are far, the certificate needs about
#: 5.1 per unit (mu = 4 to 128).
_FD_MODES_PER_WIDTH = 6.0
#: Base spectra kept, one per (mu, grid): the fine and coarse grids of two
#: strengths.  The four index/degree cases of one strength share two.
_FD_CACHE_SIZE = 4
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
    count = (max_quanta + 1) ** spec.n * math.comb(spec.n, degree)
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


def _sine_transform(coeffs, m):
    """Orthonormal DST-I of length m along the last axis of ``coeffs``, whose
    entries are the leading sine modes k = 1, 2, ...: grid values from sine
    coefficients.  The transform is its own inverse."""
    pad = np.zeros(coeffs.shape[:-1] + (2 * (m + 1),))
    pad[..., 1 : coeffs.shape[-1] + 1] = coeffs
    return -np.sqrt(2.0 / (m + 1)) * np.fft.rfft(pad).imag[..., 1 : m + 1]


def _count_below(diag, off, cut):
    """Eigenvalues below ``cut`` of the symmetric tridiagonal matrix with
    diagonal ``diag`` and constant off-diagonal ``off``: the negative pivots
    of the LDL^T factorization of T - cut I (Sylvester's law of inertia;
    Barth, Martin and Wilkinson, Numer. Math. 9, 1967)."""
    off2 = off * off
    below = 0
    pivot = -math.inf  # no coupling into the first row
    for a in (diag - cut).tolist():
        pivot = a - off2 / pivot if pivot else -math.inf
        below += pivot < 0.0
    return below


def _sine_ritz(lap, cosines, K, n):
    """The n lowest Ritz values of Laplacian + potential in the sine modes
    k = 1..K, with their vectors (rows of K sine coefficients) and the
    parity of their modes (1 odd, 0 even).  The Laplacian is diagonal there
    (``lap``), and the potential is c_|k-l| - c_{k+l}, with c_j its
    ``cosines``.  The grid is symmetric and the potential even, so the odd
    and the even modes decouple and are solved as two blocks."""
    values, vectors, parity = [], [], []
    for first in (1, 2):
        k = np.arange(first, K + 1, 2)
        block = cosines[np.abs(k[:, None] - k)] - cosines[k[:, None] + k]
        block[np.diag_indices(len(k))] += lap[k - 1]
        w, y = np.linalg.eigh(block)
        embedded = np.zeros((min(n, len(k)), K))
        embedded[:, k - 1] = y[:, :n].T
        values.append(w[:n])
        vectors.append(embedded)
        parity.append(np.full(len(embedded), first % 2))
    values = np.concatenate(values)
    order = np.argsort(values)[:n]
    return values[order], np.vstack(vectors)[order], np.concatenate(parity)[order]


@functools.lru_cache(maxsize=_FD_CACHE_SIZE)
def _fd_base_spectrum(mu, L, m, count):
    """Lowest ``count`` eigenvalues of the finite-difference operator T of
    -u'' + mu^2 x^2 on the m interior points of (-L, L), Dirichlet,
    certified and read-only.

    Rayleigh-Ritz in the lowest K sine modes of the grid: the second
    difference is diagonal there, 4/h^2 sin^2(k pi / 2(m+1)), and the
    potential's cosine coefficients come from one FFT of length 2(m+1).
    The result is certified on T itself, or NumericalError is raised:
    every value lies within its Ritz residual ||T v - theta v|| (at most
    ``_FD_RITZ_TOL`` of max(|theta|, mu)) of an eigenvalue of its parity
    block (the grid's reflection splits T into an even and an odd block,
    and a coarse grid pairs their states to rounding), the intervals of one
    parity are disjoint, and an LDL^T inertia count puts exactly ``count``
    eigenvalues below a cut above every interval, midway between the
    count-th Ritz value and the next.  So each interval holds its own
    eigenvalue.  The values themselves are closer still, by the square of
    the residual over the gap (Kato-Temple).

    K starts where the sine modes reach frequency 3 pi sqrt(mu) and grows
    until the certificate holds; K = m is the whole basis.  The growth
    assumes the slowest decay the residual can have: (x^2 u)'' does not
    vanish at the walls, so the sine coefficients of u fall like k^-5 and
    the residual like K^-5/2.
    """
    h = 2.0 * L / (m + 1)
    x = -L + h * np.arange(1, m + 1)
    potential = (mu * x) ** 2
    diag = 2.0 / h**2 + potential
    lap = (2.0 / h * np.sin(np.pi / (2 * (m + 1)) * np.arange(1, m + 1))) ** 2
    padded = np.zeros(2 * (m + 1))
    padded[1 : m + 1] = potential
    cosines = np.fft.rfft(padded).real / (m + 1)  # c_0 .. c_{m+1}
    cosines = np.concatenate([cosines, cosines[m:0:-1]])  # c_j = c_{2(m+1)-j}
    n = min(count + 1, m)
    K = min(m, max(n, math.ceil(_FD_MODES_PER_WIDTH * L * math.sqrt(mu))))
    while True:
        theta, coeffs, parity = _sine_ritz(lap, cosines, K, n)
        v = _sine_transform(coeffs[:count], m)
        tv = diag * v
        tv[:, 1:] -= v[:, :-1] / h**2
        tv[:, :-1] -= v[:, 1:] / h**2
        vals = theta[:count]
        resid = np.linalg.norm(tv - vals[:, None] * v, axis=1)
        excess = float(np.max(resid / (_FD_RITZ_TOL * np.maximum(np.abs(vals), mu))))
        certified = excess <= 1.0 and all(
            np.all(vals[same][1:] - resid[same][1:] > vals[same][:-1] + resid[same][:-1])
            for same in (parity[:count] == 0, parity[:count] == 1)
        )
        if certified and count < K:
            cut = 0.5 * (theta[count - 1] + theta[count])
            certified = (np.all(vals + resid < cut)
                         and _count_below(diag, -1.0 / h**2, cut) == count)
        if certified:
            vals = vals.copy()
            vals.flags.writeable = False
            return vals
        if K == m:
            raise NumericalError(
                f"finite-difference spectrum not certified in the whole sine "
                f"basis (m = {m}): Ritz residuals up to {excess:.2e} times "
                f"their bound, or overlapping or miscounted eigenvalues"
            )
        K = min(m, math.ceil(K * max(2.0, 1.25 * excess**0.4)))


def _fd_spectrum(mu, eps_term, L, m, count):
    """Lowest eigenvalues of -u'' + mu^2 x^2 + eps_term on (-L, L), Dirichlet:
    the cached base spectrum shifted by the constant eps_term."""
    return _fd_base_spectrum(mu, L, m, count) + eps_term


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
