"""Discretized Witten-Novikov complex on the circle, and separable tori.

A system is a closed one-form eta = (h' + c) d(theta) on the flat circle,
sampled on a uniform grid of power-of-two size, together with its zeros and
(for standard-form systems) the cap radius within which eta is exactly linear
in the arc-length coordinate.  The deformed differential at parameter
z = mu + i nu is the Fourier pseudospectral derivative plus z times
multiplication by the eta coefficient; the codifferential is its conjugate
transpose in the flat metric.  All spectral quantities of the two Laplacians
are derived from the singular values of that single matrix, which keeps
exponentially small eigenvalues meaningful relative to the matrix scale.
Quantities that pair eigenvectors with weights (zeta invariants, trace
identities, cell integrals, tori) read the full singular value
decomposition; the kernel count and the spectral-gap sweep read the
singular values alone, from a values-only bidiagonal SVD that keeps small
values to high relative accuracy (Demmel-Kahan 1990).  Both apply one
kernel rule, and a system keeps either in one bounded cache keyed by the
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DomainError,
    GeometryError,
    LyapunovError,
    StateError,
    UnsupportedError,
)
from .extrapolate import default_t_sequence, oscillating, richardson_sqrt
from .model import cutoff_normalization, default_cutoff
from .morse import InstantonGraph, tightness_check
from .smoothfn import SMOOTH_STEP_MOMENT, smooth_plateau, smooth_step
from .spectral import GradedMatrixComplex, kernel_threshold, warn_ambiguous_kernel

__all__ = [
    "CircleZero",
    "CircleWittenSystem",
    "CircleInstantonData",
    "ZetaInvariantResult",
    "make_standard_profile",
    "assemble_circle_complex",
    "betti_novikov",
    "zeta_invariant",
    "continuum_zeta",
    "exact_identity_residual",
    "instanton_data_circle",
    "mathai_quillen_1d",
    "phi_map_circle",
    "cutoff_state",
    "phi_psi_matrix",
    "torus_zeta_exact",
    "spectral_gap_report",
    "sobolev_constant_probe",
]

TWO_PI = 2.0 * np.pi
_DENSE_MIN = 4096
#: Parameters kept in a system's one spectral cache, shared by
#: :meth:`CircleWittenSystem.zeta_data` and
#: :meth:`CircleWittenSystem.singular_values` and evicted oldest first: room
#: for six 65-node Gauss-Kronrod pairings.  Pairings seldom repeat a
#: parameter: in a delta_limit_report sweep the two test-function widths
#: share only the nu = 0 node at each strength, so a seed-1 ``pairing``
#: benchmark trace finds 3 hits in 845 lookups.
_ZETA_CACHE_SIZE = 6 * 65

_diff_matrix_cache = {}


# --------------------------------------------------------------------------
# Fourier helpers


def _check_grid_size(N):
    if N < 8 or (N & (N - 1)) != 0:
        raise ConfigError(f"grid size must be a power of two >= 8, got {N}")


def grid(N):
    _check_grid_size(N)
    return TWO_PI * np.arange(N) / N


def _wavenumbers(N):
    """Lattice wavenumbers of the N-point grid.  The Nyquist mode gets +N/2
    rather than 0: the symmetric convention would annihilate the alternating
    grid vector and hand every deformed derivative a spurious second kernel
    direction."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = N / 2.0
    return k


def differentiation_matrix(N):
    """Dense Fourier differentiation matrix (anti-Hermitian)."""
    _check_grid_size(N)
    if N not in _diff_matrix_cache:
        k = _wavenumbers(N)
        F = np.fft.fft(np.eye(N), axis=0)
        D = np.fft.ifft(1j * k[:, None] * F, axis=0)
        _diff_matrix_cache[N] = 0.5 * (D - D.conj().T)
    return _diff_matrix_cache[N]


def _fourier_coeffs(samples):
    return np.fft.fft(samples) / len(samples)


def _eval_series(coeffs, theta):
    n = len(coeffs)
    k = np.fft.fftfreq(n, d=1.0 / n)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return np.exp(1j * np.outer(theta, k)) @ coeffs


# --------------------------------------------------------------------------
# Standard one-forms: exact linear caps joined by smooth single-signed arcs


@dataclass(frozen=True)
class CircleZero:
    position: float
    index: int


class _ArcShape:
    """Magnitude profile on one arc [a, b]: (x - a) and (b - x) on the caps,
    a smooth strictly positive fill in between, prescribed total integral.

    The fill is a flat-top plateau, so the profile never dips between the
    cap fade-out and the interior; all junctions are flat to every order.
    Both masses between the caps are closed forms in the smooth step S,
    using S(t) + S(1 - t) = 1 (so S has mean 1/2) and the moment
    C = integral of u S(u) over [0, 1]: the plateau holds inner (1 - rise),
    and the two cap fade-outs of width w hold w r + w^2 (1 - 2C).
    """

    _CHI_FRAC = 0.2  # fraction of the inner length used to fade the caps out
    _RISE = 0.3  # plateau ramp fraction

    def __init__(self, a, b, r, target):
        self.a, self.b, self.r = a, b, r
        length = b - a
        if length <= 2.0 * r + 0.5 * r:
            raise GeometryError(
                f"arc of length {length:.4f} too short for cap radius {r}"
            )
        self.inner = length - 2.0 * r
        base_caps = r * r  # two caps, r^2/2 each
        w = self._CHI_FRAC * self.inner
        self.fade_mass = w * r + w * w * (1.0 - 2.0 * SMOOTH_STEP_MOMENT)
        self.plateau_mass = self.inner * (1.0 - self._RISE)
        self.amp = (target - base_caps - self.fade_mass) / self.plateau_mass
        if self.amp <= 0:
            raise GeometryError(
                f"arc integral {target:.4f} below the geometric floor "
                f"{base_caps + self.fade_mass:.4f} for cap radius {r}"
            )
        xs = np.linspace(a + r, b - r, 2001)
        vals = self(xs)
        if vals.min() <= 1e-3 * min(r, vals.max()):
            raise GeometryError(
                "arc profile degenerates between the caps; increase the "
                "arc integral or decrease the cap radius"
            )

    def _chi_left(self, x):
        return 1.0 - smooth_step(
            (x - (self.a + self.r)) / (self._CHI_FRAC * self.inner)
        )

    def _chi_right(self, x):
        start = self.b - self.r - self._CHI_FRAC * self.inner
        return smooth_step((x - start) / (self._CHI_FRAC * self.inner))

    def _plateau(self, x):
        xi = (np.asarray(x, dtype=float) - (self.a + self.r)) / self.inner
        return smooth_plateau(xi, self._RISE, self._RISE)

    def _base_mid(self, x):
        x = np.asarray(x, dtype=float)
        return (x - self.a) * self._chi_left(x) + (self.b - x) * self._chi_right(x)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        left = (x >= self.a) & (x < self.a + self.r)
        right = (x > self.b - self.r) & (x <= self.b)
        mid = (x >= self.a + self.r) & (x <= self.b - self.r)
        out[left] = x[left] - self.a
        out[right] = self.b - x[right]
        out[mid] = self._base_mid(x[mid]) + self.amp * self._plateau(x[mid])
        return out


class StandardOneForm:
    """Closed one-form with prescribed zeros, exact linear caps, and
    prescribed arc integrals; callable on angles."""

    def __init__(self, positions, indices, weights, r):
        positions = [float(p) % TWO_PI for p in positions]
        order = np.argsort(positions)
        positions = [positions[i] for i in order]
        indices = [int(indices[i]) for i in order]
        weights = [float(weights[i]) for i in order]
        m = len(positions)
        if m < 2 or m % 2 != 0:
            raise GeometryError("need an even number (>= 2) of zeros")
        for i in range(m):
            if indices[i] not in (0, 1):
                raise GeometryError("circle zero index must be 0 or 1")
            if indices[i] == indices[(i + 1) % m]:
                raise GeometryError("zero indices must alternate around the circle")
        self.zeros = tuple(CircleZero(p, k) for p, k in zip(positions, indices))
        self.r = float(r)
        self.arcs = []
        for i in range(m):
            a = positions[i]
            b = positions[(i + 1) % m] + (TWO_PI if i == m - 1 else 0.0)
            w = weights[i]
            # descending from an index-1 zero: eta < 0; ascending: eta > 0
            sign = -1.0 if indices[i] == 1 else 1.0
            if w * sign <= 0:
                raise GeometryError(
                    f"arc {i} from index-{indices[i]} zero needs weight of sign "
                    f"{int(sign)}, got {w}"
                )
            self.arcs.append((a, b, sign, _ArcShape(a, b, self.r, abs(w))))
        self.circulation = sum(weights) / TWO_PI

    def __call__(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        base = self.arcs[0][0]
        x = np.mod(theta - base, TWO_PI) + base
        out = np.zeros_like(x)
        for a, b, sign, shape in self.arcs:
            mask = (x >= a) & (x <= b)
            out[mask] = sign * shape(x[mask])
        return out


def make_standard_profile(zero_spec, r=0.35, N=256):
    """Morse profile samples with exact quadratic caps at the given zeros.

    ``zero_spec`` is a list of (position, value, index) triples; indices must
    alternate around the circle and values must be consistent with the
    alternation (drop when leaving a maximum).  Returns the h samples on the
    N-point grid; the derivative has exact linear caps of radius r.
    """
    system = CircleWittenSystem.from_standard_zeros(zero_spec, r=r, N=N)
    position, value, _ = min(
        (float(p) % TWO_PI, float(v), int(k)) for p, v, k in zero_spec
    )
    return system.h + (value - system.h_at(position))


# --------------------------------------------------------------------------
# The system


class CircleWittenSystem:
    """Grid data of a circle system plus cached spectral quantities.

    The one construction path takes a callable ``eta_fn`` that evaluates the
    eta coefficient at angles; :meth:`from_standard_zeros`,
    :meth:`from_arc_weights`, :meth:`from_callable_profile` and
    :meth:`from_profile` build it.  The grid data never change after
    construction; the spectral cache keyed by the deformation parameter
    does, unsynchronised, so one system is not to be shared between
    threads.
    """

    def __init__(self, eta_fn, N=256, c=None, zeros=None, r=None):
        _check_grid_size(N)
        self.N = N
        self.theta = grid(N)
        self._eta_fn = eta_fn
        self.eta = np.asarray(eta_fn(self.theta), dtype=float)
        m = max(_DENSE_MIN, 8 * N)
        dense_theta = TWO_PI * np.arange(m) / m
        dense = np.asarray(eta_fn(dense_theta), dtype=float)
        self._dense = dense
        mean = float(np.mean(dense))
        if isinstance(eta_fn, StandardOneForm):
            self.c = eta_fn.circulation
        elif c is not None:
            self.c = float(c)
        else:
            self.c = mean
        if abs(mean - self.c) > 1e-8 * (1.0 + abs(self.c)):
            raise ConfigError(
                f"circulation {self.c} inconsistent with sample mean {mean}"
            )
        coeffs = _fourier_coeffs(dense - self.c)
        k = np.fft.fftfreq(m, d=1.0 / m)
        anti = np.zeros_like(coeffs)
        nz = k != 0
        anti[nz] = coeffs[nz] / (1j * k[nz])
        self._anti_coeffs = anti
        if isinstance(eta_fn, StandardOneForm):
            self.zeros = eta_fn.zeros
            self.r = eta_fn.r
        else:
            self.zeros = tuple(zeros) if zeros else self._locate_zeros()
            self.r = r
        # the grid is every (m/N)-th point of the dense grid, so one inverse
        # FFT evaluates the primitive's series there
        self._dense_h = m * np.real(np.fft.ifft(anti))
        self.h = self._dense_h[:: m // N].copy()
        self._validate()
        self._spectra = {}  # z -> _ZetaData, or the values-only sigma

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arc_weights(cls, positions, indices, weights, r=0.35, N=256):
        """Standard-form system with prescribed descent-path integrals."""
        form = StandardOneForm(positions, indices, weights, r)
        return cls(form, N=N)

    @classmethod
    def from_standard_zeros(cls, zero_spec, r=0.35, N=256, c=0.0):
        """System from (position, value, index) triples; optional circulation
        c shifts the one-form, displacing zeros inside the caps."""
        spec = sorted(((float(p) % TWO_PI, float(v), int(k)) for p, v, k in zero_spec))
        positions = [s[0] for s in spec]
        values = [s[1] for s in spec]
        indices = [s[2] for s in spec]
        weights = [v1 - v0 for v0, v1 in zip(values, values[1:] + values[:1])]
        form = StandardOneForm(positions, indices, weights, r)
        if c == 0.0:
            return cls(form, N=N)
        if abs(c) >= 0.5 * r:
            raise GeometryError(
                f"|c| = {abs(c)} must be below half the cap radius {r}"
            )
        shifted = lambda theta: form(theta) + c
        return cls(shifted, N=N, r=r)

    @classmethod
    def from_profile(cls, h_samples, c=0.0, r=None):
        """Generic Morse profile sampled on the grid of the samples' length;
        eta = h' + c, with h' the spectral derivative of the samples carried
        off the grid by its trigonometric interpolant; zeros located
        numerically."""
        h_samples = np.asarray(h_samples, dtype=float)
        if h_samples.ndim != 1:
            raise ConfigError("profile samples must be one-dimensional")
        N = len(h_samples)
        coeffs = _fourier_coeffs(np.real(differentiation_matrix(N) @ h_samples))
        eta = lambda t: np.real(_eval_series(coeffs, t)) + c
        return cls(eta, N=N, c=c, r=r)

    @classmethod
    def from_callable_profile(cls, dh_fn, c=0.0, N=256, r=None):
        """Profile given by its derivative h'; eta = h' + c."""
        return cls(lambda t: dh_fn(t) + c, N=N, c=c, r=r)

    # -- basic geometry ------------------------------------------------------

    def _locate_zeros(self):
        from scipy.optimize import brentq

        dense = self._dense
        m = len(dense)
        dt = TWO_PI / m
        fn = self._eta_fn
        f = lambda t: float(np.asarray(fn(np.atleast_1d(t))).ravel()[0])
        zeros = []
        for i in range(m):
            a, b = dense[i], dense[(i + 1) % m]
            if a == 0.0:
                t0 = i * dt
            elif a * b < 0:
                t0 = brentq(f, i * dt, (i + 1) * dt, xtol=1e-14)
            else:
                continue
            slope = (f(t0 + 1e-6) - f(t0 - 1e-6)) / 2e-6
            if abs(slope) < 1e-8:
                raise GeometryError(f"degenerate zero near theta = {t0:.6f}")
            zeros.append(CircleZero(t0 % TWO_PI, 0 if slope > 0 else 1))
        return tuple(sorted(zeros, key=lambda z: z.position))

    def _validate(self):
        if len(self.zeros) < 2 or len(self.zeros) % 2 != 0:
            raise GeometryError("a Morse system needs an even number of zeros >= 2")
        idx = [z.index for z in self.zeros]
        for i in range(len(idx)):
            if idx[i] == idx[(i + 1) % len(idx)]:
                raise GeometryError("zero indices must alternate")
        # simple sign changes only: count circular sign flips of the samples
        s = self.eta[np.abs(self.eta) > 1e-13]
        if s.size:
            flips = int(np.count_nonzero(s * np.roll(s, -1) < 0))
            if flips != len(self.zeros):
                raise GeometryError(
                    f"{flips} grid sign changes for {len(self.zeros)} zeros; "
                    "the one-form is not Morse on this grid"
                )

    @property
    def counts(self):
        """(|X_0|, |X_1|): zeros per Morse index."""
        n1 = sum(1 for z in self.zeros if z.index == 1)
        return (len(self.zeros) - n1, n1)

    @property
    def exact(self):
        return abs(self.c) < 1e-12

    def h_at(self, theta):
        return float(np.real(_eval_series(self._anti_coeffs, theta))[0])

    def primitive(self, t0, t1):
        """Integral of eta over the oriented segment t0 -> t1 (unwrapped)."""
        vals = np.real(_eval_series(self._anti_coeffs, [t0, t1]))
        return float(vals[1] - vals[0] + self.c * (t1 - t0))

    def total_variation(self):
        """Integral of |eta| around the circle (sum of arc integrals)."""
        total = 0.0
        m = len(self.zeros)
        for i in range(m):
            a = self.zeros[i].position
            b = self.zeros[(i + 1) % m].position
            if i == m - 1:
                b += TWO_PI
            total += abs(self.primitive(a, b))
        return total

    def negated(self):
        """The system driven by -eta (indices flip, circulation negates)."""
        flipped = tuple(CircleZero(z.position, 1 - z.index) for z in self.zeros)
        fn = self._eta_fn
        return CircleWittenSystem(
            lambda t: -np.asarray(fn(t)), N=self.N, c=-self.c,
            zeros=flipped, r=self.r,
        )

    # -- spectral data -------------------------------------------------------

    def differential(self, z):
        """Matrix of the deformed derivative on 0-forms."""
        z = complex(z)
        return differentiation_matrix(self.N) + z * np.diag(self.eta.astype(complex))

    def spectrum(self, z):
        """Singular triples of the differential, sigma ascending.

        Returns (sigma, U, V) with d v_j = sigma_j u_j; U spans the 1-form
        side (left), V the 0-form side (right).
        """
        u, s, vh = np.linalg.svd(self.differential(z))
        order = np.argsort(s)
        return s[order], u[:, order], vh.conj().T[:, order]

    def singular_values(self, z):
        """Singular values of the differential, ascending, without singular
        vectors.

        There is one array per parameter: a cached :meth:`zeta_data` entry
        hands out its own ``sigma``; otherwise the values-only result is
        kept in the system's spectral cache."""
        z = complex(z)
        entry = self._spectra.get(z)
        if entry is None:
            _make_room(self._spectra)
            s = np.linalg.svd(self.differential(z), compute_uv=False)
            entry = self._spectra[z] = np.sort(s)
        return entry.sigma if isinstance(entry, _ZetaData) else entry

    def sigma_tolerance(self, sigma):
        return _kernel_split(sigma)[0]

    def zeta_data(self, z):
        """Cached small payload per parameter: singular values, the diagonal
        pairings needed by traces (eta, h, and identity insertions), the
        kernel contribution of the h-weight, and the one kernel threshold
        with the kernel count and nonzero/small masks every consumer reads.

        The system's spectral cache keeps at most ``_ZETA_CACHE_SIZE``
        parameters and evicts the oldest first.  This entry replaces a
        values-only entry for the same parameter and goes to the end, so
        :meth:`singular_values` returns this entry's sigma."""
        z = complex(z)
        entry = self._spectra.get(z)
        if isinstance(entry, _ZetaData):
            return entry
        if entry is None:
            _make_room(self._spectra)
        else:
            del self._spectra[z]
        sigma, u, v = self.spectrum(z)
        wv = self.eta[:, None] * v
        coeffs = np.einsum("ij,ij->j", u.conj(), wv)
        h0 = np.real(np.einsum("ij,ij->j", v.conj(), self.h[:, None] * v))
        h1 = np.real(np.einsum("ij,ij->j", u.conj(), self.h[:, None] * u))
        id_diag = np.einsum("ij,ij->j", u.conj(), v)
        tol, ker, nonzero, small = _kernel_split(sigma)
        if ker.any():
            k0, k1 = v[:, ker], u[:, ker]
            kernel_term = complex(
                np.einsum("ij,ij->", k0.conj(), self.h[:, None] * k0)
                - np.einsum("ij,ij->", k1.conj(), self.h[:, None] * k1)
            )
        else:
            kernel_term = 0.0 + 0.0j
        entry = self._spectra[z] = _ZetaData(
            sigma, coeffs, h0, h1, id_diag, kernel_term, tol, nonzero, small,
        )
        return entry


def _make_room(cache):
    """Evict the oldest entry of a system's spectral cache when full."""
    if len(cache) >= _ZETA_CACHE_SIZE:
        del cache[next(iter(cache))]


def _kernel_split(sigma):
    """The one kernel rule on ascending singular values of the differential:
    the kernel threshold tol, and the kernel (sigma < tol), nonzero
    (sigma > tol) and small-branch (sigma^2 <= 1) masks."""
    tol = kernel_threshold(sigma[-1] if len(sigma) else 0.0)
    return tol, sigma < tol, sigma > tol, sigma**2 <= 1.0


@dataclass(frozen=True)
class _ZetaData:
    sigma: np.ndarray
    eta_diag: np.ndarray  # <(eta .) v_j, u_j>
    h0: np.ndarray  # <h v_j, v_j>
    h1: np.ndarray  # <h u_j, u_j>
    id_diag: np.ndarray  # <v_j, u_j>
    kernel_term: complex  # degree-alternating h-expectation over the kernels
    tol: float  # kernel threshold from _kernel_split
    nonzero: np.ndarray  # sigma > tol
    small: np.ndarray  # sigma^2 <= 1, the small branch of the spectrum


# --------------------------------------------------------------------------
# Operations


def assemble_circle_complex(system, z) -> GradedMatrixComplex:
    """Graded complex with degree sizes (N, N) and the single differential."""
    return GradedMatrixComplex([system.differential(z)], (system.N, system.N))


def betti_novikov(system, z):
    """Numeric kernel dimensions per degree at parameter z.

    Thresholding happens on singular values relative to the matrix norm, so
    genuinely tiny nonzero eigenvalues are kept out of the kernel for as
    long as double precision can represent them.
    """
    sigma = system.singular_values(z)
    tol, ker, _, _ = _kernel_split(sigma)
    warn_ambiguous_kernel(sigma, tol)
    count = int(ker.sum())
    return (count, count)


def rotation_reference_sum(N, z, c):
    """Sum of inverse eigenvalues of the uniform-rotation comparison operator
    (derivative plus z c), over the N lattice wavenumbers."""
    lam = 1j * _wavenumbers(N) + complex(z) * c
    return -complex(np.sum(1.0 / lam))


def continuum_zeta(system, z) -> complex:
    """Closed-form continuum value of zeta(1, z), Re z > 0, for the system's
    one-form.

    For c != 0 the differential has no kernel and the value is
    -pi c coth(pi z c), whatever h is.  For c = 0 the kernels are e^{-zh}
    and e^{conj(z) h}, and the value is <h>_{e^{-2 mu h}} - <h>_{e^{+2 mu h}},
    independent of nu; the two weighted means are taken by the trapezoid
    rule on the dense grid, which is spectrally accurate for periodic
    integrands.
    """
    z = complex(z)
    if not system.exact:
        c = system.c
        return complex(-np.pi * c / np.tanh(np.pi * z * c))
    h = system._dense_h
    two_mu = 2.0 * z.real
    down = np.exp(-two_mu * (h - h.min()))
    up = np.exp(two_mu * (h - h.max()))
    return complex(np.sum(h * down) / np.sum(down) - np.sum(h * up) / np.sum(up))


@dataclass(frozen=True)
class ZetaInvariantResult:
    z: complex
    value: complex
    zeta_sm: complex
    zeta_la: complex
    ts: tuple
    raw: tuple  # raw regularized trace samples at each t (diagnostics)
    kernel_term: complex
    small_counts: tuple
    converged: bool
    kernel_margin: float  # min_j max(sigma_j / tol, tol / sigma_j)

    def csv_rows(self):
        rows = []
        for t, val in zip(self.ts, self.raw):
            rows.append(
                (
                    self.z.real,
                    self.z.imag,
                    t,
                    val.real,
                    val.imag,
                    self.value.real,
                    self.value.imag,
                    self.zeta_sm.real,
                    self.zeta_la.real,
                )
            )
        return rows


def zeta_invariant(system, z) -> ZetaInvariantResult:
    """Regularized supertrace of (eta wedge) d_z^{-1} P^1 in the vanishing
    heat-time limit, with the discretization bias of the raw eigen-sum
    removed.

    The raw spectral sum carries a coherent O(mu/N) high-frequency tail (the
    diagonal of the inverse decays only quadratically in the wavenumber), so
    its plain t -> 0 value misses the continuum limit.  Splitting the weight
    as eta = dh + c dtheta gives two channels that are exact at matrix
    scale: the h-channel telescopes to the kernel expectation of h (the
    degree-alternating trace of h itself vanishes identically), and the
    circulation channel equals the uniform-rotation value, for which the
    periodic Green kernel gives -pi coth(pi z c) in the continuum; the
    residual difference of lattice sums against the rotation reference is
    measured and included.  Raw heat-trace samples on the t-sequence are
    returned as diagnostics, and a Richardson extrapolation of the h-channel
    that oscillates raises ConvergenceError; the small part is the exact
    finite sum over the small nonzero spectrum.  A singular value within 10x
    of the kernel threshold makes the value depend on rounding and warns
    ``AmbiguousKernel``; ``kernel_margin`` records how close the nearest one
    comes.
    """
    z = complex(z)
    ts = default_t_sequence()
    data = system.zeta_data(z)
    margin = warn_ambiguous_kernel(data.sigma, data.tol)
    sigma, nz = data.sigma, data.nonzero
    small_count = int(np.count_nonzero(data.small))
    counts = system.counts
    if small_count != counts[0]:
        raise StateError(
            f"small spectrum has {small_count} states per degree, expected "
            f"{counts[0]}; increase mu"
        )
    small_nz = nz & data.small
    amp = np.zeros_like(data.eta_diag)
    amp[nz] = data.eta_diag[nz] / sigma[nz]
    zeta_sm = -complex(np.sum(amp[small_nz]))
    raw = [
        -complex(np.sum(np.exp(-t * sigma[nz] ** 2) * amp[nz])) for t in ts
    ]

    # h-channel diagnostic: the heat trace of the h-weight off the kernel
    # telescopes exactly to the kernel term at t = 0; its extrapolation from
    # the t-window approaches that value from above (the window sits above
    # the lattice resolution at desk scale).  Genuine oscillation aborts.
    hdiff = (data.h0 - data.h1)[nz]
    fluct = [
        -complex(np.sum(np.exp(-t * sigma[nz] ** 2) * hdiff)) for t in ts
    ]
    extra = richardson_sqrt(ts, fluct)
    stable = not oscillating(extra)
    if not stable:
        raise ConvergenceError(
            "h-channel heat trace oscillates on the t-sequence", data=extra
        )

    circ_term = 0.0 + 0.0j
    if not system.exact:
        c = system.c
        t2_d = -complex(np.sum(data.id_diag[nz] / sigma[nz]))
        t2_r = rotation_reference_sum(system.N, z, c)
        residual = t2_d - t2_r
        circ_term = c * (-np.pi / np.tanh(np.pi * z * c) + residual)
    value = data.kernel_term + circ_term
    return ZetaInvariantResult(
        z=z,
        value=value,
        zeta_sm=zeta_sm,
        zeta_la=value - zeta_sm,
        ts=ts,
        raw=tuple(raw),
        kernel_term=data.kernel_term,
        small_counts=(small_count, small_count),
        converged=stable,
        kernel_margin=margin,
    )


def exact_identity_residual(system, z, t):
    """Residual of the exact-form trace identity at heat time t.

    For eta = dh the regularized trace equals minus the supertrace of h
    against the heat kernel off the harmonic space; the discrete residual
    measures pure aliasing and decays spectrally with the grid size.
    Returns (residual, lhs, rhs).
    """
    if not system.exact:
        raise UnsupportedError("identity requires an exact system (c = 0)")
    if t <= 0:
        raise DomainError("heat time must be positive")
    data = system.zeta_data(complex(z))
    sigma, nz = data.sigma, data.nonzero
    heat = np.exp(-t * sigma[nz] ** 2)
    lhs = -complex(np.sum(heat * data.eta_diag[nz] / sigma[nz]))
    rhs = -complex(np.sum(heat * (data.h0[nz] - data.h1[nz])))
    return abs(lhs - rhs), lhs, rhs


# -- instanton data ---------------------------------------------------------


@dataclass(frozen=True)
class CircleInstantonData:
    arcs: tuple  # the GraphEdge edges of circle_graph(system)
    index_cost: float
    tight: bool

    @property
    def a1(self):
        if not self.tight:
            raise StateError("per-index cost undefined: data is not tight")
        return self.index_cost


def instanton_data_circle(system) -> CircleInstantonData:
    """Descending arcs with signs and weights, the index-1 escape cost and
    tightness, all read off :func:`circle_graph` by ``tightness_check``."""
    graph = circle_graph(system)
    report = tightness_check(graph)
    return CircleInstantonData(graph.edges, report.index_costs[0], report.tight)


def circle_graph(system) -> InstantonGraph:
    """Instanton graph of the system: vertex ``x{i}`` is ``system.zeros[i]``,
    and each index-1 zero has its two descending arcs, weighted by the
    integral of eta along them.

    Orientation convention: every unstable cell is oriented
    counterclockwise, so the arc toward the next zero carries +1 and the
    arc toward the previous zero carries -1.
    """
    zs = system.zeros
    m = len(zs)
    edges = []
    for i, zp in enumerate(zs):
        if zp.index != 1:
            continue
        t_prev, t_next = _cell_bounds(system, i)
        w_next = system.primitive(zp.position, t_next)
        w_prev = -system.primitive(t_prev, zp.position)
        for w, which in ((w_next, "forward"), (w_prev, "backward")):
            if w >= -1e-13:
                raise LyapunovError(
                    f"{which} arc from zero {i} has nonnegative integral {w}"
                )
        edges.append((f"x{i}", f"x{(i + 1) % m}", +1, w_next))
        edges.append((f"x{i}", f"x{(i - 1) % m}", -1, w_prev))
    verts = [(f"x{i}", z.index) for i, z in enumerate(zs)]
    return InstantonGraph(verts, edges)


# -- the one-dimensional transgression pullback -----------------------------

_MQ_SIGN = -1.0  # global sign of the pullback; see mathai_quillen_1d


@dataclass(frozen=True)
class MathaiQuillenResult:
    samples: np.ndarray
    value: float  # integral of eta wedge pullback


def mathai_quillen_1d(system) -> MathaiQuillenResult:
    """Pullback of the angular transgression current by the descent field.

    On the circle the pullback is s/2 times the sign of eta, so its pairing
    with eta is s/2 times the total variation TV.  The sign s = ``_MQ_SIGN``
    = -1 is fixed by algebra: for eta = dh the index-1 zeros are the maxima
    of h, each arc joins a maximum M to a minimum m with |integral of eta| =
    h(M) - h(m), and every zero ends two arcs, so the exact-form value
    sum_k (-1)^k h(x_k) = sum_min h - sum_max h is -TV/2.
    """
    samples = _MQ_SIGN * 0.5 * np.sign(system.eta)
    value = _MQ_SIGN * 0.5 * system.total_variation()
    return MathaiQuillenResult(samples, float(value))


# -- integration over unstable cells ----------------------------------------


def _cell_bounds(system, i):
    zs = system.zeros
    m = len(zs)
    nxt = (i + 1) % m
    prv = (i - 1) % m
    t_next = zs[nxt].position + (TWO_PI if nxt < i else 0.0)
    t_prev = zs[prv].position - (TWO_PI if prv > i else 0.0)
    return t_prev, t_next


def phi_map_circle(system, z, omega, p_idx) -> complex:
    """Integrate a graded form over the unstable cell of one zero, weighted
    by the exponential of z times the descent primitive based at the zero.

    ``omega`` is a pair (omega0, omega1) of grid samples.  Index-0 zeros
    evaluate the 0-form component at the zero; index-1 zeros integrate the
    1-form component over the open arc between the neighbouring zeros
    (counterclockwise orientation).  Sampled integrands must be negligible
    near the cell boundary for full accuracy; descent weights guarantee
    this for the states used in the asymptotic checks.
    """
    z = complex(z)
    try:
        omega0, omega1 = omega
        omega0 = np.asarray(omega0, dtype=complex)
        omega1 = np.asarray(omega1, dtype=complex)
    except (TypeError, ValueError):
        raise DataError("omega must be a pair of sample arrays")
    if omega0.shape != (system.N,) or omega1.shape != (system.N,):
        raise DataError("omega samples must match the grid size")
    zp = system.zeros[p_idx]
    if zp.index == 0:
        return complex(_eval_series(_fourier_coeffs(omega0), zp.position)[0])
    t_prev, t_next = _cell_bounds(system, p_idx)
    # unwrapped grid copies covering the cell
    base = np.concatenate([system.theta - TWO_PI, system.theta, system.theta + TWO_PI])
    vals = np.tile(omega1, 3)
    mask = (base > t_prev) & (base < t_next)
    h_rel = _primitive_from(
        system, zp.position, np.tile(system.h, 3)[mask], base[mask]
    )
    integrand = np.exp(z * h_rel) * vals[mask]
    return complex(np.sum(integrand) * (TWO_PI / system.N))


def _primitive_from(system, p, h_grid, t):
    """system.primitive(p, t) for unwrapped copies t of grid points whose
    grid values of h are ``h_grid``: h is periodic, so only the circulation
    term sees the unwrapping."""
    return h_grid - system.h_at(p) + system.c * (t - p)


def cutoff_state(system, z, p_idx):
    """Unit-normalized cutoff ground state attached to one zero, as grid
    samples (omega0, omega1); lives in the degree equal to the zero's index.

    The normalizer is the exact continuum norm of the cut-off Gaussian, so
    the state frame is orthonormal up to exponentially small overlaps; the
    cell-integration asymptotics then carry the constant
    (pi/mu)^{k/2} (mu/pi)^{1/4}.  The cutoff radius is half the cap radius.
    """
    z = complex(z)
    return _cutoff_state(system, z, p_idx, *_cutoff_profile(system, z))


def _cutoff_profile(system, z):
    """(cutoff radius, cutoff function, normalizer) shared by the cutoff
    states of every zero at one parameter."""
    if system.r is None:
        raise StateError("cutoff states need a standard-form system (cap radius)")
    mu = z.real
    if mu <= 0:
        raise DomainError("cutoff states require mu > 0")
    r_hat = 0.5 * system.r
    a_mu, _ = cutoff_normalization(mu, r_hat)
    # norm^2 of rho * (mu/pi)^{1/4} e^{-mu x^2/2} is (mu/pi)^{1/2} a_mu^2
    return r_hat, default_cutoff(r_hat), (mu / np.pi) ** 0.25 * a_mu


def _cutoff_state(system, z, p_idx, r_hat, rho, normalizer):
    mu, nu = z.real, z.imag
    zp = system.zeros[p_idx]
    x = np.mod(system.theta - zp.position + np.pi, TWO_PI) - np.pi
    supp = np.abs(x) <= 2.0 * r_hat
    h_loc = _primitive_from(
        system, zp.position, system.h[supp], zp.position + x[supp]
    )
    vals = np.zeros(system.N, dtype=complex)
    vals[supp] = (
        (mu / np.pi) ** 0.25
        * rho(x[supp])
        / normalizer
        * np.exp(-1j * nu * h_loc - 0.5 * mu * x[supp] ** 2)
    )
    zero = np.zeros(system.N, dtype=complex)
    return (vals, zero) if zp.index == 0 else (zero, vals)


def phi_psi_matrix(system, z):
    """Matrix of the cell-integration map composed with the projected cutoff
    states, plus the per-zero asymptotic targets (pi/mu)^{k/2} (mu/pi)^{1/4}."""
    z = complex(z)
    mu = z.real
    profile = _cutoff_profile(system, z)
    nzeros = len(system.zeros)
    mat = np.zeros((nzeros, nzeros), dtype=complex)
    sigma, u, v = system.spectrum(z)
    small = _kernel_split(sigma)[3]
    vs, us = v[:, small], u[:, small]
    for p in range(nzeros):
        omega0, omega1 = _cutoff_state(system, z, p, *profile)
        proj = (vs @ (vs.conj().T @ omega0), us @ (us.conj().T @ omega1))
        for q in range(nzeros):
            mat[q, p] = phi_map_circle(system, z, proj, q)
    targets = np.array(
        [
            (np.pi / mu) ** (zp.index / 2.0) * (mu / np.pi) ** 0.25
            for zp in system.zeros
        ]
    )
    return mat, targets


# -- separable torus ---------------------------------------------------------


def _torus_heat_traces(sys_a, sys_b, z, ts):
    """Unsigned traces of (h_a + h_b) e^{-t Lap_k} off the kernel, per heat
    time t (rows) and torus degree k = 0, 1, 2 (columns), from one SVD per
    factor (Kunneth).

    With d_a v_i = s_i u_i, every torus Laplacian is block diagonal with
    eigenvalues s_i^2 + s'_j^2 and eigenvectors v (x) v' in degree 0,
    u (x) v' and v (x) u' in degree 1, and u (x) u' in degree 2; the weight
    diagonal on x (x) y is <h_a x, x> + <h_b y, y>.  The kernel threshold
    is the dense one, the kernel_threshold of the largest torus eigenvalue.
    """
    if not (sys_a.exact and sys_b.exact):
        raise UnsupportedError("torus product requires exact factors")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise DomainError("heat time t must be positive")
    da, db = sys_a.zeta_data(z), sys_b.zeta_data(z)
    lam_a, lam_b = da.sigma**2, db.sigma**2
    lam = np.add.outer(lam_a, lam_b)
    tol = kernel_threshold(lam_a.max() + lam_b.max())
    heat = np.exp(-ts[:, None, None] * lam) * (lam >= tol)
    rows, cols = heat.sum(axis=2), heat.sum(axis=1)  # sums over j, over i

    def trace(x, y):  # sum_ij heat_ij (x_i + y_j)
        return rows @ x + cols @ y

    return np.stack(
        [
            trace(da.h0, db.h0),
            trace(da.h1, db.h0) + trace(da.h0, db.h1),
            trace(da.h1, db.h1),
        ],
        axis=1,
    )


def torus_zeta_exact(sys_a, sys_b, z):
    """Zeta invariant of the exact torus via the trace identity: minus the
    t -> 0 limit of the supertrace of (h_a + h_b) e^{-t Lap} off the kernel.

    The supertrace is the alternating sum of the per-degree traces of
    :func:`_torus_heat_traces`, so the cost is one SVD per factor and
    O(N^2) per heat time; the Kronecker product complex is never built.
    """
    ts = default_t_sequence(t0=0.5, steps=8)
    traces = _torus_heat_traces(sys_a, sys_b, complex(z), ts)
    samples = [-complex(t0 - t1 + t2) for t0, t1, t2 in traces]
    extra = richardson_sqrt(ts, samples)
    return extra.value, extra


# -- sweeps and probes --------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    mu_values: tuple
    nu: float
    max_small: tuple
    min_large: tuple
    small_counts: tuple
    slope_log_small: float
    min_large_over_mu: tuple


def spectral_gap_report(system, mu_sweep, nu=0.0) -> GapReport:
    """Per-mu extremes of the two spectral branches, with the decay fit of
    the small branch and the linear lower bound of the large branch.

    ``small_counts`` counts the whole small branch.  ``max_small`` and the
    slope leave out the topological kernel, the Novikov Betti number per
    degree (1 for exact forms, 0 otherwise), taken as the smallest values:
    its eigenvalues are rounding noise, so an exact two-zero system reports
    ``max_small`` 0 and slope -inf (no decay fit)."""
    kernel = 1 if system.exact else 0
    max_small, min_large, counts = [], [], []
    for mu in mu_sweep:
        sigma = system.singular_values(complex(mu, nu))
        small = _kernel_split(sigma)[3]
        lam = sigma**2
        tunnelling = lam[small][kernel:]
        large = lam[~small]
        max_small.append(float(tunnelling.max()) if tunnelling.size else 0.0)
        min_large.append(float(large.min()) if large.size else np.inf)
        counts.append(int(np.count_nonzero(small)))
    ms = np.asarray(max_small)
    if np.all(ms > 0):
        slope = float(np.polyfit(np.asarray(mu_sweep, float), np.log(ms), 1)[0])
    else:
        slope = -np.inf
    return GapReport(
        tuple(float(m) for m in mu_sweep),
        nu,
        tuple(max_small),
        tuple(min_large),
        tuple(counts),
        slope,
        tuple(l / m for l, m in zip(min_large, mu_sweep)),
    )


def sobolev_constant_probe(system, m, nu_sweep, trials=16, seed=0):
    """Largest observed ratio sup-norm / graded Sobolev norm across random
    forms band-limited to |k| <= N/4, per oscillation value.

    The deformed Sobolev norm sums L^2 norms of repeated applications of the
    symmetric first-order operator at purely imaginary parameter; the probed
    ratio should show no growth trend across the sweep.
    """
    if m <= 0.5:
        raise DomainError("need Sobolev order m > 1/2 on the circle")
    m = int(m)
    N = system.N
    rng = np.random.default_rng(seed)
    band = N // 4
    out = {}
    weight = TWO_PI / N
    for nu in nu_sweep:
        d = system.differential(complex(0.0, nu))
        delta = d.conj().T
        ratios = []
        for trial in range(trials):
            comps = []
            for _c in range(2):
                spec = np.zeros(N, dtype=complex)
                idx = np.fft.fftfreq(N, d=1.0 / N).astype(int)
                keep = np.abs(idx) <= band
                spec[keep] = rng.normal(size=keep.sum()) + 1j * rng.normal(
                    size=keep.sum()
                )
                comps.append(np.fft.ifft(spec) * N / np.sqrt(N))
            a0, a1 = comps
            if trial % 2 == 1:
                # twist-compensated candidates: these keep the deformed norm
                # bounded as nu grows and probe the sharp constant
                phase = np.exp(-1j * nu * system.h)
                a0, a1 = phase * a0, phase * a1
            sup = float(np.max(np.sqrt(np.abs(a0) ** 2 + np.abs(a1) ** 2)))
            total = 0.0
            b0, b1 = a0.copy(), a1.copy()
            for k in range(m + 1):
                total += np.sqrt(weight * (np.sum(np.abs(b0) ** 2)
                                           + np.sum(np.abs(b1) ** 2)))
                b0, b1 = delta @ b1, d @ b0
            ratios.append(sup / total)
        out[float(nu)] = max(ratios)
    return out
