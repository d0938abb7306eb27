"""Discretized Witten-Novikov complex on the circle, and separable tori.

A system is a closed one-form eta = (h' + c) d(theta) on the flat circle,
sampled on a uniform grid of power-of-two size, together with its zeros and
(for standard-form systems) the cap radius within which eta is exactly linear
in the arc-length coordinate.  The deformed differential at parameter
z = mu + i nu is the Fourier pseudospectral derivative plus z times
multiplication by the eta coefficient; the codifferential is its conjugate
transpose in the flat metric.  All spectral quantities of the two Laplacians
are derived from the singular value decomposition of that single matrix,
which keeps exponentially small eigenvalues meaningful relative to the
matrix scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousKernel,
    ConfigError,
    ConventionError,
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
from .morse import InstantonGraph
from .smoothfn import smooth_plateau, smooth_step
from .spectral import GradedMatrixComplex, assemble_laplacians, heat_supertrace

__all__ = [
    "CircleZero",
    "CircleWittenSystem",
    "CircleInstantonData",
    "ZetaInvariantResult",
    "make_standard_profile",
    "assemble_circle_complex",
    "betti_novikov",
    "zeta_invariant",
    "exact_identity_residual",
    "instanton_data_circle",
    "mathai_quillen_1d",
    "phi_map_circle",
    "cutoff_state",
    "phi_psi_matrix",
    "torus_tensor",
    "torus_function_weight",
    "torus_zeta_exact",
    "spectral_gap_report",
    "sobolev_constant_probe",
]

TWO_PI = 2.0 * np.pi
_SIGMA_TOL_FACTOR = 1e-9
_DENSE_MIN = 4096

_diff_matrix_cache = {}


# --------------------------------------------------------------------------
# Fourier helpers


def _check_grid_size(N):
    if N < 8 or (N & (N - 1)) != 0:
        raise ConfigError(f"grid size must be a power of two >= 8, got {N}")


def grid(N):
    _check_grid_size(N)
    return TWO_PI * np.arange(N) / N


def differentiation_matrix(N):
    """Dense Fourier differentiation matrix (anti-Hermitian).

    The Nyquist mode is assigned wavenumber +N/2 rather than 0: the symmetric
    convention would annihilate the alternating grid vector and hand every
    deformed derivative a spurious second kernel direction.
    """
    _check_grid_size(N)
    if N not in _diff_matrix_cache:
        k = np.fft.fftfreq(N, d=1.0 / N)
        k[N // 2] = N / 2.0
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


def _resample(samples, m):
    """Trigonometric resampling of real samples onto an m-point grid."""
    n = len(samples)
    if m == n:
        return np.asarray(samples, dtype=float)
    c = np.fft.fft(samples)
    out = np.zeros(m, dtype=complex)
    h = n // 2
    out[:h] = c[:h]
    out[-h:] = c[-h:]
    return np.real(np.fft.ifft(out)) * (m / n)


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
    """

    _CHI_FRAC = 0.2  # fraction of the inner length used to fade the caps out
    _RISE = 0.3  # plateau ramp fraction

    def __init__(self, a, b, r, target):
        from scipy.integrate import quad

        self.a, self.b, self.r = a, b, r
        length = b - a
        if length <= 2.0 * r + 0.5 * r:
            raise GeometryError(
                f"arc of length {length:.4f} too short for cap radius {r}"
            )
        self.inner = length - 2.0 * r
        base_caps = r * r  # two caps, r^2/2 each
        mid, _ = quad(self._base_mid, a + r, b - r, limit=200)
        plateau_mass, _ = quad(self._plateau, a + r, b - r, limit=200)
        self.amp = (target - base_caps - mid) / plateau_mass
        if self.amp <= 0:
            raise GeometryError(
                f"arc integral {target:.4f} below the geometric floor "
                f"{base_caps + mid:.4f} for cap radius {r}"
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
        self.weights = tuple(weights)
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

    Construct via :meth:`from_standard_zeros`, :meth:`from_arc_weights`, or
    :meth:`from_profile`.  Instances are immutable after construction apart
    from internal caches keyed by the deformation parameter.
    """

    def __init__(self, eta_fn_or_samples, N=256, c=None, zeros=None, r=None, label=""):
        _check_grid_size(N)
        self.N = N
        self.theta = grid(N)
        if callable(eta_fn_or_samples):
            self._eta_fn = eta_fn_or_samples
            self.eta = np.asarray(self._eta_fn(self.theta), dtype=float)
        else:
            self._eta_fn = None
            self.eta = np.asarray(eta_fn_or_samples, dtype=float)
            if self.eta.shape != (N,):
                raise ConfigError("eta samples must match the grid size")
        self.label = label
        m = max(_DENSE_MIN, 8 * N)
        dense_theta = TWO_PI * np.arange(m) / m
        if self._eta_fn is not None:
            dense = np.asarray(self._eta_fn(dense_theta), dtype=float)
        else:
            dense = _resample(self.eta, m)
        self._dense = dense
        mean = float(np.mean(dense))
        if isinstance(eta_fn_or_samples, StandardOneForm):
            self.c = eta_fn_or_samples.circulation
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
        if isinstance(eta_fn_or_samples, StandardOneForm):
            self.zeros = eta_fn_or_samples.zeros
            self.r = eta_fn_or_samples.r
        else:
            self.zeros = tuple(zeros) if zeros else self._locate_zeros()
            self.r = r
        self.h = np.real(_eval_series(anti, self.theta))
        self._validate()
        self._zeta_cache = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arc_weights(cls, positions, indices, weights, r=0.35, N=256, label=""):
        """Standard-form system with prescribed descent-path integrals."""
        form = StandardOneForm(positions, indices, weights, r)
        return cls(form, N=N, label=label or "arc weights")

    @classmethod
    def from_standard_zeros(cls, zero_spec, r=0.35, N=256, c=0.0, label=""):
        """System from (position, value, index) triples; optional circulation
        c shifts the one-form, displacing zeros inside the caps."""
        spec = sorted(((float(p) % TWO_PI, float(v), int(k)) for p, v, k in zero_spec))
        positions = [s[0] for s in spec]
        values = [s[1] for s in spec]
        indices = [s[2] for s in spec]
        weights = []
        m = len(spec)
        for i in range(m):
            weights.append(values[(i + 1) % m] - values[i])
        form = StandardOneForm(positions, indices, weights, r)
        if c == 0.0:
            return cls(form, N=N, label=label or "standard zeros")
        if abs(c) >= 0.5 * r:
            raise GeometryError(
                f"|c| = {abs(c)} must be below half the cap radius {r}"
            )
        shifted = lambda theta: form(theta) + c
        sys = cls(shifted, N=N, c=None, zeros=None, r=r, label=label or "shifted")
        return sys

    @classmethod
    def from_profile(cls, h_samples, c=0.0, N=None, r=None, label=""):
        """Generic Morse profile given by samples; eta = h' + c with the
        derivative taken spectrally.  Zeros are located numerically."""
        h_samples = np.asarray(h_samples, dtype=float)
        N = N or len(h_samples)
        if h_samples.shape != (N,):
            raise ConfigError("profile samples must match the grid size")
        eta = differentiation_matrix(N) @ h_samples + c
        return cls(eta, N=N, c=c, r=r, label=label or "profile samples")

    @classmethod
    def from_callable_profile(cls, h_fn, dh_fn, c=0.0, N=256, r=None, label=""):
        return cls(lambda t: dh_fn(t) + c, N=N, c=c, r=r, label=label or "callable")

    # -- basic geometry ------------------------------------------------------

    def _locate_zeros(self):
        from scipy.optimize import brentq

        dense = self._dense
        m = len(dense)
        dt = TWO_PI / m
        if self._eta_fn is not None:
            fn = self._eta_fn
            f = lambda t: float(np.asarray(fn(np.atleast_1d(t))).ravel()[0])
        else:
            coeffs = _fourier_coeffs(dense)
            f = lambda t: float(np.real(_eval_series(coeffs, t))[0])
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
        if self._eta_fn is not None:
            fn = self._eta_fn
            return CircleWittenSystem(
                lambda t: -np.asarray(fn(t)), N=self.N, c=-self.c,
                zeros=flipped, r=self.r, label=f"-({self.label})",
            )
        return CircleWittenSystem(
            -self.eta, N=self.N, c=-self.c, zeros=flipped, r=self.r,
            label=f"-({self.label})",
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

    def sigma_tolerance(self, sigma):
        return _SIGMA_TOL_FACTOR * (1.0 + (sigma[-1] if len(sigma) else 0.0))

    def zeta_data(self, z):
        """Cached small payload per parameter: singular values, the diagonal
        pairings needed by traces (eta, h, and identity insertions), the
        kernel contribution of the h-weight, and the one kernel threshold
        with the kernel count and nonzero/small masks every consumer reads."""
        z = complex(z)
        if z not in self._zeta_cache:
            sigma, u, v = self.spectrum(z)
            wv = self.eta[:, None] * v
            coeffs = np.einsum("ij,ij->j", u.conj(), wv)
            h0 = np.real(np.einsum("ij,ij->j", v.conj(), self.h[:, None] * v))
            h1 = np.real(np.einsum("ij,ij->j", u.conj(), self.h[:, None] * u))
            id_diag = np.einsum("ij,ij->j", u.conj(), v)
            tol = self.sigma_tolerance(sigma)
            ker = sigma < tol
            if ker.any():
                k0, k1 = v[:, ker], u[:, ker]
                kernel_term = complex(
                    np.einsum("ij,ij->", k0.conj(), self.h[:, None] * k0)
                    - np.einsum("ij,ij->", k1.conj(), self.h[:, None] * k1)
                )
            else:
                kernel_term = 0.0 + 0.0j
            self._zeta_cache[z] = _ZetaData(
                sigma, coeffs, h0, h1, id_diag, kernel_term, int(ker.sum()),
                tol, sigma > tol, sigma**2 <= 1.0,
            )
        return self._zeta_cache[z]


@dataclass(frozen=True)
class _ZetaData:
    sigma: np.ndarray
    eta_diag: np.ndarray  # <(eta .) v_j, u_j>
    h0: np.ndarray  # <h v_j, v_j>
    h1: np.ndarray  # <h u_j, u_j>
    id_diag: np.ndarray  # <v_j, u_j>
    kernel_term: complex  # degree-alternating h-expectation over the kernels
    kernel_count: int  # sigma < tol
    tol: float  # kernel threshold from CircleWittenSystem.sigma_tolerance
    nonzero: np.ndarray  # sigma > tol
    small: np.ndarray  # sigma^2 <= 1, the small branch of the spectrum


# --------------------------------------------------------------------------
# Operations


def assemble_circle_complex(system, z) -> GradedMatrixComplex:
    """Graded complex with degree sizes (N, N) and the single differential."""
    return GradedMatrixComplex(
        [system.differential(z)],
        (system.N, system.N),
        label=f"{system.label} z={complex(z)}",
    )


def betti_novikov(system, z):
    """Numeric kernel dimensions per degree at parameter z.

    Thresholding happens on singular values relative to the matrix norm, so
    genuinely tiny nonzero eigenvalues are kept out of the kernel for as
    long as double precision can represent them.
    """
    data = system.zeta_data(z)
    sigma, tol = data.sigma, data.tol
    near = np.count_nonzero((sigma >= tol / 10.0) & (sigma <= tol * 10.0))
    if near:
        warnings.warn(
            f"{near} singular value(s) within 10x of the kernel threshold",
            AmbiguousKernel,
            stacklevel=2,
        )
    return (data.kernel_count, data.kernel_count)


def rotation_reference_sum(N, z, c):
    """Sum of inverse eigenvalues of the uniform-rotation comparison operator
    (derivative plus z c), over the N lattice wavenumbers."""
    k = np.fft.fftfreq(N, d=1.0 / N) * 1.0
    k[N // 2] = N / 2.0
    lam = 1j * k + complex(z) * c
    return -complex(np.sum(1.0 / lam))


@dataclass(frozen=True)
class ZetaInvariantResult:
    z: complex
    value: complex
    zeta_sm: complex
    zeta_la: complex
    ts: tuple
    raw: tuple  # raw regularized trace samples at each t (diagnostics)
    kernel_term: complex
    circulation_term: complex
    discretization_residual: complex  # measured reference-sum difference
    fluct_extrapolated: complex  # Richardson check of the h-channel
    small_counts: tuple
    converged: bool

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


def zeta_invariant(system, z, t_sequence=None, order=1) -> ZetaInvariantResult:
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
    measured and included.  Raw heat-trace samples on the t-sequence and a
    Richardson cross-check of the h-channel limit are returned as
    diagnostics; the small part is the exact finite sum over the small
    nonzero spectrum.
    """
    z = complex(z)
    ts = tuple(t_sequence) if t_sequence is not None else default_t_sequence()
    data = system.zeta_data(z)
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
    extra = richardson_sqrt(ts, fluct, order=order)
    stable = not oscillating(extra)
    if not stable:
        raise ConvergenceError(
            "h-channel heat trace oscillates on the t-sequence", data=extra
        )

    if system.exact:
        circ_term = 0.0 + 0.0j
        residual = 0.0 + 0.0j
    else:
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
        circulation_term=circ_term,
        discretization_residual=residual,
        fluct_extrapolated=extra.value,
        small_counts=(small_count, small_count),
        converged=stable,
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
class CircleArc:
    source: int  # zero index into system.zeros (index-1 zero)
    target: int  # zero index into system.zeros (index-0 zero)
    sign: int
    weight: float


@dataclass(frozen=True)
class CircleInstantonData:
    arcs: tuple
    vertex_cost: dict  # per index-1 zero position in system.zeros
    index_cost: float
    tight: bool

    @property
    def a1(self):
        if not self.tight:
            raise StateError("per-index cost undefined: data is not tight")
        return self.index_cost


def instanton_data_circle(system, tol=1e-9) -> CircleInstantonData:
    """Descending arcs from each index-1 zero with signs and weights.

    Orientation convention: every unstable cell is oriented
    counterclockwise, so the arc toward the next zero carries +1 and the
    arc toward the previous zero carries -1.
    """
    zs = system.zeros
    m = len(zs)
    arcs = []
    cost = {}
    for i, zp in enumerate(zs):
        if zp.index != 1:
            continue
        nxt = (i + 1) % m
        prv = (i - 1) % m
        t_next = zs[nxt].position + (TWO_PI if nxt < i else 0.0)
        t_prev = zs[prv].position - (TWO_PI if prv > i else 0.0)
        w_next = system.primitive(zp.position, t_next)
        w_prev = -system.primitive(t_prev, zp.position)
        for w, which in ((w_next, "forward"), (w_prev, "backward")):
            if w >= -1e-13:
                raise LyapunovError(
                    f"{which} arc from zero {i} has nonnegative integral {w}"
                )
        arcs.append(CircleArc(i, nxt, +1, w_next))
        arcs.append(CircleArc(i, prv, -1, w_prev))
        cost[i] = -max(w_next, w_prev)
    costs = list(cost.values())
    index_cost = min(costs)
    tight = max(costs) - index_cost <= tol * (1.0 + abs(index_cost))
    return CircleInstantonData(tuple(arcs), cost, index_cost, tight)


def circle_graph(system) -> InstantonGraph:
    """Instanton graph of the system (vertex ids mirror the zero order)."""
    data = instanton_data_circle(system)
    verts = [(f"x{i}", z.index) for i, z in enumerate(system.zeros)]
    edges = [(f"x{a.source}", f"x{a.target}", a.sign, a.weight) for a in data.arcs]
    return InstantonGraph(verts, edges)


# -- the one-dimensional transgression pullback -----------------------------

_mq_sign_cache = {}


def _calibrate_mq_sign():
    """Fix the global sign of the pullback once, against the exact-form
    limit on a reference system: the invariant must equal the alternating
    sum of critical values."""
    if "sign" in _mq_sign_cache:
        return _mq_sign_cache["sign"]
    ref = CircleWittenSystem.from_standard_zeros(
        [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=128
    )
    oracle = sum(
        (-1.0) ** z.index * ref.h_at(z.position) for z in ref.zeros
    )
    half_tv = 0.5 * ref.total_variation()
    for s in (+1.0, -1.0):
        if abs(s * half_tv - oracle) <= 1e-6 * (1.0 + abs(oracle)):
            _mq_sign_cache["sign"] = s
            _mq_sign_cache["reference"] = (oracle, half_tv)
            return s
    raise ConventionError(
        f"neither sign of the half total variation matches the exact-form "
        f"oracle {oracle}"
    )


@dataclass(frozen=True)
class MathaiQuillenResult:
    samples: np.ndarray
    value: float  # integral of eta wedge pullback
    sign: float
    reference: tuple


def mathai_quillen_1d(system) -> MathaiQuillenResult:
    """Pullback of the angular transgression current by the descent field.

    On the circle the pullback is the half-integer sign function of the eta
    coefficient, up to a global sign fixed once by calibration against the
    exact-form value of the invariant; the pairing with eta is then half the
    total variation, with that sign.
    """
    s = _calibrate_mq_sign()
    samples = s * 0.5 * np.sign(system.eta)
    value = s * 0.5 * system.total_variation()
    return MathaiQuillenResult(samples, float(value), s, _mq_sign_cache["reference"])


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
    pts = base[mask]
    h_rel = np.array([system.primitive(zp.position, t) for t in pts])
    integrand = np.exp(z * h_rel) * vals[mask]
    return complex(np.sum(integrand) * (TWO_PI / system.N))


def cutoff_state(system, z, p_idx, rho_radius=None):
    """Unit-normalized cutoff ground state attached to one zero, as grid
    samples (omega0, omega1); lives in the degree equal to the zero's index.

    The normalizer is the exact continuum norm of the cut-off Gaussian, so
    the state frame is orthonormal up to exponentially small overlaps; the
    cell-integration asymptotics then carry the constant
    (pi/mu)^{k/2} (mu/pi)^{1/4}.
    """
    if system.r is None:
        raise StateError("cutoff states need a standard-form system (cap radius)")
    z = complex(z)
    mu, nu = z.real, z.imag
    if mu <= 0:
        raise DomainError("cutoff states require mu > 0")
    r_hat = rho_radius if rho_radius is not None else 0.5 * system.r
    rho = default_cutoff(r_hat)
    a_mu, _ = cutoff_normalization(mu, r_hat, rho, n=1)
    # norm^2 of rho * (mu/pi)^{1/4} e^{-mu x^2/2} is (mu/pi)^{1/2} a_mu^2
    normalizer = (mu / np.pi) ** 0.25 * a_mu
    zp = system.zeros[p_idx]
    x = np.mod(system.theta - zp.position + np.pi, TWO_PI) - np.pi
    supp = np.abs(x) <= 2.0 * r_hat
    h_loc = np.zeros(system.N)
    h_loc[supp] = [
        system.primitive(zp.position, zp.position + xi) for xi in x[supp]
    ]
    vals = np.zeros(system.N, dtype=complex)
    vals[supp] = (
        (mu / np.pi) ** 0.25
        * rho(x[supp])
        / normalizer
        * np.exp(-1j * nu * h_loc[supp] - 0.5 * mu * x[supp] ** 2)
    )
    zero = np.zeros(system.N, dtype=complex)
    return (vals, zero) if zp.index == 0 else (zero, vals)


def phi_psi_matrix(system, z, rho_radius=None):
    """Matrix of the cell-integration map composed with the projected cutoff
    states, plus the per-zero asymptotic targets (pi/mu)^{k/2} (mu/pi)^{1/4}."""
    z = complex(z)
    mu = z.real
    nzeros = len(system.zeros)
    mat = np.zeros((nzeros, nzeros), dtype=complex)
    sigma, u, v = system.spectrum(z)
    small = sigma**2 <= 1.0
    vs, us = v[:, small], u[:, small]
    for p in range(nzeros):
        omega0, omega1 = cutoff_state(system, z, p, rho_radius)
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


def torus_tensor(sys_a, sys_b, z) -> GradedMatrixComplex:
    """Product complex of two exact circle systems, degrees 0..2.

    Degree sizes (N^2, 2 N^2, N^2) for equal grids; the graded sign rule
    makes the square vanish identically.
    """
    if not (sys_a.exact and sys_b.exact):
        raise UnsupportedError("torus product requires exact factors")
    z = complex(z)
    da = sys_a.differential(z)
    db = sys_b.differential(z)
    ia = np.eye(sys_a.N)
    ib = np.eye(sys_b.N)
    d0 = np.vstack([np.kron(da, ib), np.kron(ia, db)])
    d1 = np.hstack([-np.kron(ia, db), np.kron(da, ib)])
    return GradedMatrixComplex(
        [d0, d1],
        (sys_a.N * sys_b.N, 2 * sys_a.N * sys_b.N, sys_a.N * sys_b.N),
        label=f"torus z={z}",
    )


def torus_function_weight(sys_a, sys_b):
    """Per-degree diagonal weights of multiplication by h_a + h_b."""
    h = np.add.outer(sys_a.h, sys_b.h).ravel()
    return [np.diag(h), np.diag(np.concatenate([h, h])), np.diag(h)]


def torus_zeta_exact(sys_a, sys_b, z, t_sequence=None, order=1):
    """Zeta invariant of the exact torus via the trace identity: minus the
    t -> 0 limit of the supertrace of (h_a + h_b) e^{-t Lap} off the kernel."""
    ts = tuple(t_sequence) if t_sequence is not None else default_t_sequence(
        t0=0.5, steps=8
    )
    family = assemble_laplacians(torus_tensor(sys_a, sys_b, z))
    weight = torus_function_weight(sys_a, sys_b)
    samples = [-heat_supertrace(family, weight, t, "perp") for t in ts]
    extra = richardson_sqrt(ts, samples, order=order)
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
    the small branch and the linear lower bound of the large branch."""
    max_small, min_large, counts = [], [], []
    for mu in mu_sweep:
        data = system.zeta_data(complex(mu, nu))
        lam = data.sigma**2
        small = lam[data.small]
        large = lam[~data.small]
        max_small.append(float(small.max()) if small.size else 0.0)
        min_large.append(float(large.min()) if large.size else np.inf)
        counts.append(int(small.size))
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


def sobolev_constant_probe(system, m, nu_sweep, trials=16, seed=0, band=None):
    """Largest observed ratio sup-norm / graded Sobolev norm across random
    band-limited forms, per oscillation value.

    The deformed Sobolev norm sums L^2 norms of repeated applications of the
    symmetric first-order operator at purely imaginary parameter; the probed
    ratio should show no growth trend across the sweep.
    """
    if m <= 0.5:
        raise DomainError("need Sobolev order m > 1/2 on the circle")
    m = int(m)
    N = system.N
    rng = np.random.default_rng(seed)
    band = band or N // 4
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
