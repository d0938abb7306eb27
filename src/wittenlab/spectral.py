"""Generic engines for graded matrix complexes.

A graded complex is a finite sequence of complex matrices d_k mapping degree-k
coefficient vectors to degree-(k+1) vectors with d_{k+1} d_k = 0.  This module
assembles the associated Laplacians, decomposes them, and evaluates spectral
zeta sums and heat supertraces, the latter over all eigenvalues or off the
numeric kernel.

Each check runs once: d^2 = 0 when a complex is built (it also bounds
d_k D_k - D_{k+1} d_k), Hermitian symmetry when a family is built, and the
residuals of each eigendecomposition.

Everything is dense and exact at desk scale.  A Laplacian whose exact
nonzero pattern splits into blocks, as the multidegrees of a tensor complex
do (the cross-multidegree entries cancel to exact zeros), is decomposed one
block at a time: the entries between blocks are exact zeros, so this is a
decomposition of the whole matrix, and its residual checks, summed over the
blocks, are those of the whole matrix.  A complex never changes after
construction.  A Laplacian family's matrices never change either, but
:func:`eigendecompose` (and every function that needs spectra) writes the
spectra onto the family, unsynchronised: decompose a family once before
sharing it between threads.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    AmbiguousKernel,
    DomainError,
    NotAComplex,
    NumericalError,
    ShapeError,
)

__all__ = [
    "GradedMatrixComplex",
    "GradedLaplacianFamily",
    "assemble_laplacians",
    "eigendecompose",
    "heat_supertrace",
    "zeta_via_spectrum",
    "betti_numbers",
    "warn_ambiguous_kernel",
    "kernel_threshold",
]

#: Relative scale for treating an eigenvalue or a singular value as zero, in
#: every kernel threshold and rank of the package: :func:`kernel_threshold`
#: adds it as an absolute floor, and graph ranks (``morse``) scale it by the
#: largest singular value alone.
KERNEL_TOL_FACTOR = 1e-9
#: A kernel count is ambiguous when some value lies within this factor of the
#: kernel threshold, on either side.
AMBIGUITY_MARGIN = 10.0

#: Default relative tolerance factor for d^2 residuals of discretized sources.
COMPLEX_TOL_FACTOR = 1e-10

#: Tolerance factor for combinatorially exact (graph-built) differentials.
EXACT_COMPLEX_TOL_FACTOR = 1e-13

_TOL_PSD = 1e-8
_TOL_EIG = 1e-12
_TOL_UNITARY = 1e-10

SUBSETS = ("all", "perp")


def kernel_threshold(largest) -> float:
    """Scale-aware numeric-zero threshold for the eigenvalues or singular
    values of one spectrum whose largest value is ``largest``."""
    return KERNEL_TOL_FACTOR * (1.0 + largest)


def _norm2_lower_bound(m) -> float:
    """Largest column or row 2-norm of m, which never exceeds ||m||_2.

    Used as the scale of a relative check before any decomposition is
    available: a smaller scale makes the check stricter.
    """
    a2 = m.real**2 + m.imag**2
    return float(np.sqrt(max(a2.sum(axis=0).max(), a2.sum(axis=1).max())))


class GradedMatrixComplex:
    """Per-degree differentials d_k of shape N_{k+1} x N_k with d^2 = 0.

    Parameters
    ----------
    differentials:
        Sequence of complex matrices; entry k maps degree k to degree k+1.
        May be empty for a complex concentrated in one degree.
    degrees:
        Dimensions N_0..N_n; each d_k must have shape (N_{k+1}, N_k).
    exact:
        Combinatorially exact source (graph-built): a much tighter d^2
        tolerance applies.  Bitwise zero is not required because BLAS
        summation order is unspecified; exactness of graph sources is
        certified separately at the graph level.
    """

    def __init__(self, differentials, degrees, exact=False):
        mats = [np.asarray(d, dtype=complex) for d in differentials]
        degrees = tuple(int(n) for n in degrees)
        if any(n < 0 for n in degrees):
            raise ShapeError("degree dimensions must be nonnegative")
        if len(mats) != max(len(degrees) - 1, 0):
            raise ShapeError(
                f"expected {max(len(degrees) - 1, 0)} differentials for "
                f"{len(degrees)} degrees, got {len(mats)}"
            )
        for k, d in enumerate(mats):
            if d.shape != (degrees[k + 1], degrees[k]):
                raise ShapeError(
                    f"d_{k} has shape {d.shape}, expected "
                    f"({degrees[k + 1]}, {degrees[k]})"
                )
        self.degrees = degrees
        self.differentials = tuple(mats)
        self.exact = bool(exact)
        self._check_square()

    @property
    def top_degree(self) -> int:
        return len(self.degrees) - 1

    @property
    def tol_complex(self) -> float:
        """d^2 tolerance: the tolerance factor times max_k ||d_k||_2^2.

        The 2-norms are exact (one SVD per differential) and are recomputed
        on every access; the constructor reads this only when there are two
        or more differentials, the only case with a d^2 to check.
        """
        norm = max(
            (np.linalg.norm(d, 2) for d in self.differentials if d.size),
            default=0.0,
        )
        factor = EXACT_COMPLEX_TOL_FACTOR if self.exact else COMPLEX_TOL_FACTOR
        return factor * max(norm**2, 1e-300)

    def _check_square(self):
        """Raise NotAComplex when ||d_{k+1} d_k||_F exceeds tol_complex.

        The Frobenius norm is never below the 2-norm, so this is at least
        as strict as a 2-norm check against the same tolerance.
        """
        if len(self.differentials) < 2:
            return
        tol = self.tol_complex
        for k in range(len(self.differentials) - 1):
            a, b = self.differentials[k + 1], self.differentials[k]
            if a.size == 0 or b.size == 0:
                continue
            residual = np.linalg.norm(a @ b)
            if residual > tol:
                raise NotAComplex(
                    f"||d_{k + 1} d_{k}|| = {residual:.3e} exceeds "
                    f"tol {tol:.3e}"
                )

    def differential(self, k) -> np.ndarray:
        """d_k as a matrix, including the zero maps below/above the range."""
        if 0 <= k < len(self.differentials):
            return self.differentials[k]
        if k == -1:
            return np.zeros((self.degrees[0], 0), dtype=complex)
        if k == self.top_degree:
            return np.zeros((0, self.degrees[-1]), dtype=complex)
        raise ShapeError(f"degree {k} outside range 0..{self.top_degree - 1}")


class GradedLaplacianFamily:
    """Hermitian Laplacians D_k = d_k^* d_k + d_{k-1} d_{k-1}^* per degree,
    and their spectra once :func:`eigendecompose` has run; nothing else.

    The matrices never change after construction.  The constructor raises
    ShapeError when a Hermitian defect ||m - m*||_F exceeds 1e-8 (1 + s),
    with s the lower bound :func:`_norm2_lower_bound` of ||m||_2.
    """

    def __init__(self, laplacians):
        self.laplacians = tuple(np.asarray(m, dtype=complex) for m in laplacians)
        self.eigenvalues = None
        self.eigenframes = None
        for k, m in enumerate(self.laplacians):
            if m.shape[0] != m.shape[1]:
                raise ShapeError(f"Laplacian {k} is not square")
            if m.size and np.linalg.norm(m - m.conj().T) > _TOL_PSD * (
                1.0 + _norm2_lower_bound(m)
            ):
                raise ShapeError(f"Laplacian {k} is not Hermitian")

    @property
    def degrees(self):
        return tuple(m.shape[0] for m in self.laplacians)

    def require_spectra(self) -> "GradedLaplacianFamily":
        if self.eigenvalues is None:
            eigendecompose(self)
        return self

    def max_eigenvalue(self) -> float:
        self.require_spectra()
        return max((v[-1] for v in self.eigenvalues if v.size), default=0.0)

    def kernel_tolerance(self) -> float:
        """Scale-aware numeric-zero threshold for eigenvalues."""
        return kernel_threshold(self.max_eigenvalue())


def assemble_laplacians(complex_: GradedMatrixComplex) -> GradedLaplacianFamily:
    """Build the per-degree Laplacians D_k = d_k^* d_k + d_{k-1} d_{k-1}^*.

    Two products per differential and no check: the intertwining residual
    ||d_k D_k - D_{k+1} d_k|| is at most ||d_k d_{k-1}|| ||d_{k-1}|| +
    ||d_{k+1}|| ||d_{k+1} d_k||, which the complex's d^2 check bounds.
    """
    laps = []
    for k in range(complex_.top_degree + 1):
        dk = complex_.differential(k)
        dkm1 = complex_.differential(k - 1)
        lap = np.zeros((complex_.degrees[k], complex_.degrees[k]), dtype=complex)
        if dk.size:
            lap += dk.conj().T @ dk
        if dkm1.size:
            lap += dkm1 @ dkm1.conj().T
        laps.append(lap)
    return GradedLaplacianFamily(laps)


def _pattern_blocks(m) -> list:
    """Index arrays of the connected components of the exact nonzero pattern
    of the square matrix m, symmetrised (i ~ j when m_ij or m_ji is nonzero),
    in order of their smallest index.  A zero row with a zero column is a
    singleton.

    Entries of m between two components are exact zeros, so m is the direct
    sum of its diagonal blocks on these index sets.  A first row with no
    zero entry joins every index to index 0, one block at O(n) cost, as in
    every dense matrix; otherwise each vertex's row is read once, when a
    breadth-first sweep reaches it: O(n^2) in all.
    """
    n = m.shape[0]
    if (m[0] != 0).all():
        return [np.arange(n)]
    nz = m != 0
    nz |= nz.T
    unseen = np.ones(n, dtype=bool)
    blocks = []
    while unseen.any():
        block = np.zeros(n, dtype=bool)
        block[np.argmax(unseen)] = True
        frontier = block.copy()
        while frontier.any():
            frontier = nz[frontier].any(axis=0) & ~block
            block |= frontier
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def _checked_eigh(m, k):
    """eigh of the Hermitian matrix m with its reconstruction residual
    ||m - U diag(w) U*||_F and Gram defect ||U* U - I||_F."""
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigensolver failed in degree {k}: {exc}")
    recon = np.linalg.norm(m - (u * w) @ u.conj().T)
    gram = np.linalg.norm(u.conj().T @ u - np.eye(m.shape[0]))
    return w, u, recon, gram


def _blockwise_eigh(m, k):
    """Eigenvalues of m ascending, its eigenframe, reconstruction residual
    and Gram defect, from one :func:`_checked_eigh` per block of
    :func:`_pattern_blocks` (of the whole m when it is one block), with
    the residuals summed in squares over the blocks."""
    blocks = _pattern_blocks(m)
    if len(blocks) == 1:
        return _checked_eigh(m, k)
    parts = [_checked_eigh(m[np.ix_(b, b)], k) for b in blocks]
    n = m.shape[0]
    u = np.zeros((n, n), dtype=complex)
    col = 0
    for b, (_, ub, _, _) in zip(blocks, parts):
        u[b, col:col + b.size] = ub
        col += b.size
    w = np.concatenate([p[0] for p in parts])
    order = np.argsort(w, kind="stable")
    recon = np.sqrt(sum(p[2] ** 2 for p in parts))
    gram = np.sqrt(sum(p[3] ** 2 for p in parts))
    return w[order], u[:, order], recon, gram


def eigendecompose(family: GradedLaplacianFamily) -> GradedLaplacianFamily:
    """Hermitian eigendecomposition per degree, cached on the family.

    Each degree's Laplacian is split into the connected components of its
    exact nonzero pattern (:func:`_pattern_blocks`; one block when it has no
    zero entry, as every circle Laplacian) and each block is decomposed
    alone; the eigenvalues come out ascending, with the n x n frame
    assembled from the block frames.  On a tensor-product complex the blocks
    are the multidegrees.

    Each degree is checked for a negative eigenvalue (the global minimum
    against the global maximum), for the reconstruction residual
    ||m - U diag(w) U*||_F against 1e-12 ||m||_2 (with the exact
    ||m||_2 = max |w|), and for the Gram defect ||U* U - I||_F against
    1e-10 n.  Both residuals are those of the whole degree, summed in
    squares over its blocks, which is exact since they vanish off the
    blocks.  Frobenius residuals are never below their 2-norms, so no check
    is looser than the 2-norm check with the same tolerance.
    """
    values, frames = [], []
    for k, m in enumerate(family.laplacians):
        if m.size == 0:
            values.append(np.zeros(0))
            frames.append(np.zeros((0, 0), dtype=complex))
            continue
        w, u, recon, gram = _blockwise_eigh(m, k)
        scale = max(abs(w[0]), abs(w[-1]), 1e-300)
        if w[0] < -_TOL_PSD * scale:
            raise NumericalError(
                f"Laplacian {k} indefinite: min eigenvalue {w[0]:.3e}"
            )
        if recon > max(_TOL_EIG * scale, 1e3 * np.finfo(float).eps):
            raise NumericalError(f"eigendecomposition residual {recon:.3e}")
        if gram > _TOL_UNITARY * m.shape[0]:
            raise NumericalError(f"eigenframe not unitary: {gram:.3e}")
        values.append(np.maximum(w, 0.0))
        frames.append(u)
    family.eigenvalues = tuple(values)
    family.eigenframes = tuple(frames)
    return family


def warn_ambiguous_kernel(values, tol):
    """Return the kernel margin min_j max(v_j / tol, tol / v_j) of the
    eigenvalues or singular values ``values`` against the kernel threshold
    ``tol`` (infinite for a zero value or none), and warn AmbiguousKernel,
    at the caller's caller, when it is at most ``AMBIGUITY_MARGIN``: a value
    then lies that close to the threshold on either side, so the kernel
    count depends on rounding."""
    v = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore"):
        margin = float(np.min(np.maximum(v / tol, tol / v), initial=np.inf))
    if margin <= AMBIGUITY_MARGIN:
        warnings.warn(
            f"a value lies within {margin:.3g}x of the kernel threshold "
            f"{tol:.3e}",
            AmbiguousKernel,
            stacklevel=3,
        )
    return margin


def betti_numbers(family: GradedLaplacianFamily, warn_ambiguous=True):
    """Numeric kernel dimensions per degree, under the scale-aware threshold."""
    family.require_spectra()
    tol = family.kernel_tolerance()
    counts = []
    for w in family.eigenvalues:
        counts.append(int(np.count_nonzero(w < tol)))
        if warn_ambiguous:
            warn_ambiguous_kernel(w, tol)
    return tuple(counts)


def _subset_mask(w, subset, tol):
    if subset not in SUBSETS:
        raise DomainError(f"subset must be one of {SUBSETS}, got {subset!r}")
    return w >= tol if subset == "perp" else np.ones_like(w, dtype=bool)


def _weight_diagonal(weight, k, frame):
    """Diagonal <B psi_j, psi_j> of the degree-k weight in the eigenframe.

    A diagonal weight matrix (checked exactly by counting nonzeros) gives
    sum_i |U_ij|^2 B_ii, which costs O(n^2); any other matrix costs one
    BLAS product B U.
    """
    if weight is None:
        return np.ones(frame.shape[1])
    if np.isscalar(weight):
        return np.full(frame.shape[1], complex(weight))
    wk = np.asarray(weight[k], dtype=complex)
    if wk.ndim == 0:
        return np.full(frame.shape[1], complex(wk))
    if wk.shape != (frame.shape[0], frame.shape[0]):
        raise ShapeError(
            f"weight for degree {k} has shape {wk.shape}, "
            f"expected ({frame.shape[0]}, {frame.shape[0]})"
        )
    diag = np.diagonal(wk)
    if np.count_nonzero(wk) == np.count_nonzero(diag):
        return (frame.real**2 + frame.imag**2).T @ diag
    return np.einsum("ij,ij->j", frame.conj(), wk @ frame)


def _graded_sum(family, weight, select, term, graded=True) -> complex:
    """sum_k sign_k sum_j term(lambda_j) <B psi_j, psi_j> over the
    eigenvalues picked by ``select``, with sign_k = (-1)^k when graded."""
    total = 0.0 + 0.0j
    for k, (w, u) in enumerate(zip(family.eigenvalues, family.eigenframes)):
        if w.size == 0:
            continue
        mask = select(w)
        if not mask.any():
            continue
        diag = _weight_diagonal(weight, k, u)
        sign = (-1.0) ** k if graded else 1.0
        total += sign * np.sum(term(w[mask]) * diag[mask])
    return complex(total)


def heat_supertrace(family, weight, t, subset="all") -> complex:
    """Degree-alternating trace of B e^{-t D} over all eigenvalues or off the kernel.

    ``weight`` may be None (identity), a scalar, or a per-degree sequence of
    matrices/scalars.  ``subset`` is ``"all"`` or ``"perp"``, the orthogonal
    complement of the numeric kernel.
    """
    if t <= 0:
        raise DomainError("heat time t must be positive")
    family.require_spectra()
    tol = family.kernel_tolerance()
    return _graded_sum(
        family, weight, lambda w: _subset_mask(w, subset, tol),
        lambda w: np.exp(-t * w),
    )


def zeta_via_spectrum(family, weight, s, graded=True) -> complex:
    """Finite eigen-sum  sum_j  lambda_j^{-s} <B psi_j, psi_j>.

    Only eigenvalues above the numeric kernel threshold enter, so the kernel
    never contributes.  With ``graded`` set, degree k carries the sign
    (-1)^k.  Sums are exact at desk scale; no meromorphic continuation is
    attempted.
    """
    family.require_spectra()
    cut = family.kernel_tolerance()
    s = complex(s)
    return _graded_sum(
        family, weight, lambda w: w > cut, lambda w: w ** (-s), graded
    )
