import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wittenlab as wl
from wittenlab import circle, spectral
from wittenlab.errors import DomainError, NotAComplex, NumericalError, ShapeError
from wittenlab.extrapolate import default_t_sequence, richardson_sqrt
from wittenlab.spectral import (
    COMPLEX_TOL_FACTOR,
    EXACT_COMPLEX_TOL_FACTOR,
    GradedLaplacianFamily,
    GradedMatrixComplex,
    assemble_laplacians,
    betti_numbers,
    eigendecompose,
    heat_supertrace,
    zeta_via_spectrum,
)

import oracles
from oracles import heat_trace_mellin, mellin_zeta


def family_from_diag(*diags):
    return eigendecompose(
        GradedLaplacianFamily([np.diag(d) for d in diags])
    )


def test_one_by_one_laplacians():
    cx = GradedMatrixComplex([np.array([[2.0]])], (1, 1))
    fam = assemble_laplacians(cx)
    assert np.allclose(fam.laplacians[0], [[4.0]])
    assert np.allclose(fam.laplacians[1], [[4.0]])


def test_zero_differential_full_kernels():
    cx = GradedMatrixComplex([np.zeros((3, 2))], (2, 3))
    fam = eigendecompose(assemble_laplacians(cx))
    assert betti_numbers(fam) == (2, 3)


def test_shape_validation():
    with pytest.raises(ShapeError):
        GradedMatrixComplex([np.zeros((3, 2))], (2, 2))


def test_not_a_complex():
    d0 = np.array([[1.0], [0.0]])
    d1 = np.array([[1.0, 0.0]])
    with pytest.raises(NotAComplex):
        GradedMatrixComplex([d0, d1], (1, 2, 1))


def test_supersymmetric_pairing_on_circle(exact2_small):
    # independent eigensolve of both assembled Laplacians
    cx = wl.assemble_circle_complex(exact2_small, 8.0)
    fam = eigendecompose(assemble_laplacians(cx))
    w0, w1 = fam.eigenvalues
    tol = fam.kernel_tolerance()
    nz0 = np.sort(w0[w0 > tol])
    nz1 = np.sort(w1[w1 > tol])
    assert nz0.size == nz1.size
    assert np.max(np.abs(nz0 - nz1) / (1.0 + nz0)) < 1e-8


def test_eigendecompose_examples():
    fam = family_from_diag([3.0, 1.0])
    assert np.allclose(fam.eigenvalues[0], [1.0, 3.0])
    fam2 = eigendecompose(
        GradedLaplacianFamily([np.array([[2.0, 1.0], [1.0, 2.0]])])
    )
    assert np.allclose(fam2.eigenvalues[0], [1.0, 3.0])


def test_eigendecompose_random_hermitian_reconstruction():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    h = a @ a.conj().T
    fam = eigendecompose(GradedLaplacianFamily([h]))
    w, u = fam.eigenvalues[0], fam.eigenframes[0]
    resid = np.linalg.norm(h - (u * w) @ u.conj().T, 2)
    assert resid <= 1e-12 * np.linalg.norm(h, 2)


def subset_counts(fam, subset):
    """Per-degree eigenvalue counts of ``subset``: the heat supertrace at a
    tiny t, with weight 1 on one degree and 0 on the others."""
    n = len(fam.degrees)
    counts = []
    for k in range(n):
        weight = [float(j == k) for j in range(n)]
        trace = heat_supertrace(fam, weight, 1e-12, subset)
        counts.append(round((-1) ** k * trace.real))
    return tuple(counts)


def test_split_small_large_trivial():
    # the small spectrum is <= 1 and the large one > 1, at t -> 0 a count
    fam = family_from_diag([0.0, 0.3, 7.0])
    assert heat_supertrace(fam, None, 1e-12, "small") == pytest.approx(2.0)
    assert heat_supertrace(fam, None, 1e-12, "large") == pytest.approx(1.0)
    fam2 = family_from_diag([0.1, 0.9, 1.0])
    assert heat_supertrace(fam2, None, 1e-12, "small") == pytest.approx(3.0)
    assert heat_supertrace(fam2, None, 1e-12, "large") == 0.0


def test_split_counts_match_zero_count_on_circle(tight2):
    cx = wl.assemble_circle_complex(tight2, 20.0)
    fam = eigendecompose(assemble_laplacians(cx))
    assert subset_counts(fam, "small") == tight2.counts


def test_split_invariant_under_unitary_change_of_basis(tight2):
    rng = np.random.default_rng(5)
    cx = wl.assemble_circle_complex(tight2, 12.0)
    qs = []
    for n in cx.degrees:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(m)
        qs.append(q)
    fam1 = eigendecompose(assemble_laplacians(cx))
    conj = [qs[k + 1] @ d @ qs[k].conj().T for k, d in enumerate(cx.differentials)]
    fam2 = eigendecompose(assemble_laplacians(GradedMatrixComplex(conj, cx.degrees)))
    assert subset_counts(fam1, "small") == subset_counts(fam2, "small")


def test_heat_supertrace_zero_complex():
    cx = GradedMatrixComplex([np.zeros((1, 2))], (2, 1))
    fam = eigendecompose(assemble_laplacians(cx))
    for t in (0.1, 1.0, 7.0):
        assert heat_supertrace(fam, None, t, "all") == pytest.approx(1.0)


@pytest.mark.parametrize("t", [0.05, 0.3, 2.0])
def test_mckean_singer_and_perp_vanishing(tight2, t):
    cx = wl.assemble_circle_complex(tight2, 10.0)
    fam = eigendecompose(assemble_laplacians(cx))
    betti = betti_numbers(fam)
    chi = sum((-1) ** k * b for k, b in enumerate(betti))
    dim = sum(fam.degrees)
    val = heat_supertrace(fam, None, t, "all")
    assert abs(val - chi) <= 1e-8 * dim
    assert abs(heat_supertrace(fam, None, t, "perp")) <= 1e-8 * dim


def test_heat_supertrace_domain():
    fam = family_from_diag([1.0])
    with pytest.raises(DomainError):
        heat_supertrace(fam, None, 0.0)


def test_zeta_via_spectrum_trivial():
    fam = family_from_diag([1.0, 4.0])
    assert zeta_via_spectrum(fam, None, 1.0) == pytest.approx(1.25)
    fam2 = family_from_diag([0.0, 2.0])
    assert zeta_via_spectrum(fam2, None, 1.0) == pytest.approx(0.5)


def test_zeta_matches_mellin_quadrature():
    fam = family_from_diag([2.0])
    s = 1.5
    assert abs(zeta_via_spectrum(fam, None, s) - 2.0 ** (-s)) < 1e-12
    assert abs(mellin_zeta(2.0, s) - 2.0 ** (-s)) < 1e-10


def test_zeta_integer_s_equals_heat_trace_mellin():
    # gapped two-degree family; graded zeta against quadrature of the
    # graded heat trace
    d = np.array([[1.3, 0.2], [0.0, 2.0]])
    cx = GradedMatrixComplex([d], (2, 2))
    fam = eigendecompose(assemble_laplacians(cx))
    for s in (1.0, 2.0):
        direct = zeta_via_spectrum(fam, None, s)
        eig = np.concatenate(fam.eigenvalues)
        signs = np.concatenate(
            [np.full(len(w), (-1.0) ** k) for k, w in enumerate(fam.eigenvalues)]
        )
        oracle = heat_trace_mellin(eig, signs, s)
        assert abs(direct - oracle) < 1e-8


def _near_complex(rng):
    """Random complex C^3 -> C^4 -> C^3 whose d_1 d_0 is about 1e-12 of
    ||d||^2: inside the d^2 tolerance, yet far above rounding."""
    shape = lambda m, n: rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    d0 = shape(4, 2) @ shape(2, 3)
    q, _ = np.linalg.qr(d0)
    d1 = shape(3, 4) @ (np.eye(4) - q[:, :2] @ q[:, :2].conj().T)
    return GradedMatrixComplex([d0, d1 + 1e-12 * shape(3, 4)])


def _commutation_residuals(cx):
    """Per differential: ||d_k D_k - D_{k+1} d_k||_2, its scale
    ||d_k|| (1 + max ||D||), and the bound that d^2 = 0 gives it.

    d_k D_k - D_{k+1} d_k = d_k d_{k-1} d_{k-1}^* - d_{k+1}^* d_{k+1} d_k,
    so the library needs no check of its own for the identity."""
    fam = assemble_laplacians(cx)
    norm = lambda m: np.linalg.norm(m, 2) if m.size else 0.0
    out = []
    for k, d in enumerate(cx.differentials):
        lk, lk1 = fam.laplacians[k], fam.laplacians[k + 1]
        residual = norm(d @ lk - lk1 @ d)
        scale = norm(d) * (1.0 + max(norm(lk), norm(lk1)))
        below, above = cx.differential(k - 1), cx.differential(k + 1)
        bound = norm(d @ below) * norm(below) + norm(above) * norm(above @ d)
        out.append((residual, scale, bound))
    return out


def _assert_intertwines(cx):
    for residual, scale, bound in _commutation_residuals(cx):
        assert residual < 1e-12 * scale
        assert residual <= bound + 64 * np.finfo(float).eps * scale


def test_commutation_residuals_recorded(exact2_small):
    # one residual per differential, each far below the relative 1e-12
    cx = wl.assemble_circle_complex(exact2_small, 3.0)
    res = _commutation_residuals(cx)
    assert len(res) == len(cx.differentials) == 1
    assert res[0][0] / res[0][1] < 1e-12


def test_commutation_residual_bounds_two_norm_ratio(exact2_small):
    # the exact 2-norm ratio obeys both 1e-12 and the d^2-implied bound
    _assert_intertwines(wl.assemble_circle_complex(exact2_small, 3.0))


@pytest.mark.parametrize("source", ["tensor_graph", "near_complex"])
def test_differential_intertwines_laplacians(source, tensor_graph):
    cx = {
        "tensor_graph": lambda: wl.build_differential(tensor_graph, 3.0),
        "near_complex": lambda: _near_complex(np.random.default_rng(5)),
    }[source]()
    _assert_intertwines(cx)


# -- weighted traces against the explicit trace formula -------------------------


def random_family(rng, sizes):
    """Hermitian PSD Laplacians with a one-dimensional kernel per degree and
    eigenvalues on both sides of the threshold 1."""
    mats = []
    for n in sizes:
        a = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
        mats.append(a @ a.conj().T / n)
    return eigendecompose(GradedLaplacianFamily(mats))


def weight_matrices(weight, sizes):
    """The per-degree matrices W_k that a weight argument stands for."""
    if weight is None:
        return [np.eye(n) for n in sizes]
    if np.isscalar(weight):
        return [weight * np.eye(n) for n in sizes]
    return [w * np.eye(n) if np.ndim(w) == 0 else np.asarray(w)
            for w, n in zip(weight, sizes)]


def explicit_trace(family, weight, f, select, graded=True):
    """sum_k (+-1)^k Tr(W_k U f(Lambda) P U*), P the projector on the
    eigenvalues picked by ``select``."""
    total = 0.0
    mats = weight_matrices(weight, family.degrees)
    for k, (w, u) in enumerate(zip(family.eigenvalues, family.eigenframes)):
        p = select(w)
        fw = np.where(p, f(np.where(p, w, 1.0)), 0.0)
        sign = (-1.0) ** k if graded else 1.0
        total += sign * np.trace(mats[k] @ (u * fw) @ u.conj().T)
    return complex(total)


def weight_cases(rng, sizes):
    dense = []
    for n in sizes:
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dense.append((b + b.conj().T) / 2)
    return {
        "diagonal": [np.diag(rng.normal(size=n)) for n in sizes],
        "dense": dense,
        "scalar": 2.5,
        "per_degree_scalar": [2.0, -0.5, 1.5],
        "none": None,
    }


@pytest.mark.parametrize("case", ["diagonal", "dense", "scalar", "per_degree_scalar", "none"])
@pytest.mark.parametrize("seed", [0, 1])
def test_weighted_traces_match_explicit_formula(case, seed):
    rng = np.random.default_rng(seed)
    sizes = (12, 30, 17)
    fam = random_family(rng, sizes)
    weight = weight_cases(rng, sizes)[case]
    tol = fam.kernel_tolerance()
    for t in (0.05, 0.7, 3.0):
        for subset in spectral.SUBSETS:
            got = heat_supertrace(fam, weight, t, subset)
            ref = explicit_trace(
                fam, weight, lambda w: np.exp(-t * w),
                lambda w: spectral._subset_mask(w, subset, tol),
            )
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))
    for s in (1.0, 0.5 + 0.25j):
        for graded in (True, False):
            got = zeta_via_spectrum(fam, weight, s, graded=graded)
            ref = explicit_trace(
                fam, weight, lambda w: w ** (-s), lambda w: w > tol, graded
            )
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))


def test_weighted_trace_rejects_wrong_weight_shape():
    fam = random_family(np.random.default_rng(2), (4, 5))
    with pytest.raises(ShapeError):
        heat_supertrace(fam, [np.eye(4), np.eye(4)], 0.5)


def test_torus_zeta_exact_matches_explicit_formula():
    sa = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 0.3, 1), (np.pi, -0.3, 0)], r=0.35, N=8
    )
    sb = wl.CircleWittenSystem.from_standard_zeros(
        [(0.5, 0.25, 1), (0.5 + np.pi, -0.25, 0)], r=0.35, N=8
    )
    z = complex(0.4, 0.0)
    value, extra = circle.torus_zeta_exact(sa, sb, z)
    fam = eigendecompose(assemble_laplacians(oracles.torus_tensor(sa, sb, z)))
    weight = oracles.torus_function_weight(sa, sb)
    tol = fam.kernel_tolerance()
    ts = default_t_sequence(t0=0.5, steps=8)
    samples = [
        -explicit_trace(fam, weight, lambda w: np.exp(-t * w), lambda w: w >= tol)
        for t in ts
    ]
    for got, ref in zip(extra.raw, samples):
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))
    ref = richardson_sqrt(ts, samples).value
    assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref))


def _per_degree_dense_traces(sa, sb, z, ts):
    fam = eigendecompose(assemble_laplacians(oracles.torus_tensor(sa, sb, z)))
    weight = oracles.torus_function_weight(sa, sb)
    tol = fam.kernel_tolerance()
    return [
        [
            spectral._graded_sum(
                fam, [w if j == k else 0.0 for j, w in enumerate(weight)],
                lambda w: w >= tol, lambda w: np.exp(-t * w), graded=False,
            )
            for k in range(3)
        ]
        for t in ts
    ]


@pytest.mark.parametrize("N", [8, 16])
def test_torus_heat_traces_match_dense_per_degree(N):
    # two-zero factors with arcs of equal length are symmetric enough that
    # the grid keeps their harmonic forms at z = 0.4 (torus Betti numbers
    # (1, 2, 1), so the kernel cut is exercised), and that h1 = -h0 per
    # factor cancels the degree-1 trace; the unequal-arc factor sb2 has no
    # grid kernel and leaves all three degrees nonzero
    def factor(p0, v0, p1, v1):
        return wl.CircleWittenSystem.from_standard_zeros(
            [(p0, v0, 1), (p1, v1, 0)], r=0.35, N=N
        )

    sa = factor(0.0, 0.3, np.pi, -0.3)
    sb = factor(0.5, 0.25, 0.5 + np.pi, -0.25)
    sb2 = factor(0.5, 0.25, 3.3, -0.35)
    ts = (0.5, 0.125, 0.0078125)
    for z in (complex(0.4, 0.0), complex(3.0, 0.0)):
        got = circle._torus_heat_traces(sa, sb, z, ts)
        for row, ref in zip(got, _per_degree_dense_traces(sa, sb, z, ts)):
            for k in (0, 2):
                assert abs(row[k] - ref[k]) <= 1e-10 * abs(ref[k])
            assert abs(row[1] - ref[1]) <= 1e-10 * (abs(ref[0]) + abs(ref[2]))
        got = circle._torus_heat_traces(sa, sb2, z, ts)
        for row, ref in zip(got, _per_degree_dense_traces(sa, sb2, z, ts)):
            for k in range(3):
                assert abs(row[k] - ref[k]) <= 1e-10 * abs(ref[k])


# -- guards: Frobenius numerators and lower-bound scales are never looser --------


def test_norm_bounds_bracket_the_two_norm():
    # _norm2_lower_bound <= ||a||_2 <= ||a||_F, up to the rounding of the
    # three computations (a rank-one matrix meets both bounds exactly)
    rng = np.random.default_rng(7)
    slack = 1.0 + 16 * np.finfo(float).eps
    for _ in range(200):
        m, n = rng.integers(1, 13, size=2)
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        if rng.random() < 0.3:
            a = np.outer(a[:, 0], a[0])
        a *= 10.0 ** rng.uniform(-8, 8)
        two = np.linalg.norm(a, 2)
        assert spectral._norm2_lower_bound(a) <= two * slack
        assert np.linalg.norm(a) * slack >= two


def test_tol_complex_uses_exact_two_norms():
    rng = np.random.default_rng(4)
    d0 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    for exact, factor in ((False, COMPLEX_TOL_FACTOR), (True, EXACT_COMPLEX_TOL_FACTOR)):
        cx = GradedMatrixComplex([d0], (2, 3), exact=exact)
        assert cx.tol_complex == factor * np.linalg.norm(d0, 2) ** 2


@pytest.mark.parametrize(
    "exact,factor", [(False, COMPLEX_TOL_FACTOR), (True, EXACT_COMPLEX_TOL_FACTOR)]
)
def test_square_just_above_two_norm_tolerance_raises(exact, factor):
    # ||d1 d0||_2 = 1.01 * tol_complex: the 2-norm check fired here, so the
    # Frobenius check must fire too
    eps = 1.01 * factor
    d0 = np.eye(2)
    d1 = eps * np.eye(2)
    assert np.linalg.norm(d1 @ d0, 2) > factor * max(np.linalg.norm(d0, 2), eps) ** 2
    with pytest.raises(NotAComplex):
        GradedMatrixComplex([d0, d1], (2, 2, 2), exact=exact)


def test_hermitian_defect_just_above_two_norm_tolerance_raises():
    # the defect [[0, e], [-e, 0]] has 2-norm e, about 1 % above the
    # 2-norm bound 1e-8 * (1 + ||m||_2) with ||m||_2 = 1 + e / 2
    e = 1.01 * 2e-8
    m = np.eye(2, dtype=complex)
    m[0, 1] = e
    assert np.linalg.norm(m - m.conj().T, 2) > 1e-8 * (1.0 + np.linalg.norm(m, 2))
    with pytest.raises(ShapeError, match="not Hermitian"):
        GradedLaplacianFamily([m])


def test_indefinite_family_raises():
    fam = GradedLaplacianFamily([np.diag([2.0, -1e-3])])
    with pytest.raises(NumericalError, match="indefinite"):
        eigendecompose(fam)


def test_perturbed_eigenframe_fails_reconstruction(monkeypatch):
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = a @ a.conj().T
    eigh = np.linalg.eigh

    def perturbed(x):
        w, u = eigh(x)
        return w, u + 1e-9 * rng.normal(size=u.shape)

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NumericalError, match="residual"):
        eigendecompose(GradedLaplacianFamily([m]))


def _scale_first_vector(monkeypatch, size):
    """Patch eigh to scale the first eigenvector of every size x size input
    by 1 + 1e-8: U diag(w) U* moves by w_0 times 2e-8, nothing for a kernel
    vector, so only the Gram check sees it."""
    eigh = np.linalg.eigh

    def perturbed(x):
        w, u = eigh(x)
        if x.shape[0] == size:
            u = u.copy()
            u[:, 0] *= 1.0 + 1e-8
        return w, u

    monkeypatch.setattr(np.linalg, "eigh", perturbed)


def kernel_block(rng, n):
    """a a* for a random n x (n - 1) complex a: Hermitian PSD, no zero
    entry, and a one-dimensional kernel."""
    a = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
    return a @ a.conj().T


def test_perturbed_kernel_vector_fails_gram_check(monkeypatch):
    m = kernel_block(np.random.default_rng(4), 3)
    _scale_first_vector(monkeypatch, 3)
    with pytest.raises(NumericalError, match="not unitary"):
        eigendecompose(GradedLaplacianFamily([m]))


@pytest.mark.parametrize("kernel_first", [True, False])
def test_perturbed_kernel_vector_in_one_block_fails_gram_check(kernel_first, monkeypatch):
    # the 3 x 3 kernel block, first or last in index order, is the only
    # block whose frame is scaled; the 4 x 4 block has no kernel
    rng = np.random.default_rng(4)
    kernel, other = kernel_block(rng, 3), kernel_block(rng, 5)[:4, :4]
    m = np.zeros((7, 7), dtype=complex)
    if kernel_first:
        m[:3, :3], m[3:, 3:] = kernel, other
    else:
        m[:4, :4], m[4:, 4:] = other, kernel
    _scale_first_vector(monkeypatch, 3)
    with pytest.raises(NumericalError, match="not unitary"):
        eigendecompose(GradedLaplacianFamily([m]))


# -- block-wise eigendecomposition ----------------------------------------------


def block_matrix(rng, sizes):
    """Hermitian PSD direct sum of :func:`kernel_block` blocks (a random
    positive 1 x 1 block for size 1) under a random permutation, and the
    index set of each block."""
    n = sum(sizes)
    perm = rng.permutation(n)
    m = np.zeros((n, n), dtype=complex)
    groups, start = [], 0
    for size in sizes:
        g = perm[start:start + size]
        m[np.ix_(g, g)] = kernel_block(rng, size) if size > 1 else rng.uniform(1, 2)
        groups.append(g)
        start += size
    return m, groups


def as_index_sets(blocks):
    return sorted(tuple(np.sort(b).tolist()) for b in blocks)


def test_pattern_blocks_of_connected_patterns():
    rng = np.random.default_rng(2)
    dense = kernel_block(rng, 6)
    assert as_index_sets(spectral._pattern_blocks(dense)) == [tuple(range(6))]
    # a full first row joins everything (an arrowhead); a zero in it does
    # not split a pattern that is otherwise dense
    arrow = np.diag(np.arange(1.0, 7.0))
    arrow[0, :] = arrow[:, 0] = 1.0
    assert as_index_sets(spectral._pattern_blocks(arrow)) == [tuple(range(6))]
    dense[0, 1] = dense[1, 0] = 0.0
    assert as_index_sets(spectral._pattern_blocks(dense)) == [tuple(range(6))]
    # a chain is connected only through 63 steps of the sweep
    chain = np.diag(np.ones(63), 1) + np.diag(np.ones(63), -1) + 2 * np.eye(64)
    assert as_index_sets(spectral._pattern_blocks(chain)) == [tuple(range(64))]


def test_pattern_blocks_find_permuted_blocks_and_zero_rows():
    rng = np.random.default_rng(3)
    m, groups = block_matrix(rng, (3, 5, 1))
    blocks = spectral._pattern_blocks(m)
    assert len(blocks) == 3
    assert as_index_sets(blocks) == as_index_sets(groups)
    # a zero row and column is a singleton of its own
    z = np.zeros((6, 6), dtype=complex)
    z[np.ix_([0, 2, 5], [0, 2, 5])] = kernel_block(rng, 3)
    assert as_index_sets(spectral._pattern_blocks(z)) == [(0, 2, 5), (1,), (3,), (4,)]


def dense_family(mats):
    """The family of ``mats`` with spectra from one whole-matrix eigh per
    degree: the reference for the block path."""
    fam = GradedLaplacianFamily(mats)
    pairs = [np.linalg.eigh(m) for m in mats]
    fam.eigenvalues = tuple(np.maximum(w, 0.0) for w, _ in pairs)
    fam.eigenframes = tuple(u for _, u in pairs)
    return fam


def test_blockwise_eigendecompose_matches_one_dense_eigh():
    rng = np.random.default_rng(6)
    sizes = [(3, 5, 1, 7), (4, 4, 2), (6, 1, 1, 3)]
    mats = [block_matrix(rng, s)[0] for s in sizes]
    fam = eigendecompose(GradedLaplacianFamily(mats))
    ref = dense_family(mats)
    lmax = max(w[-1] for w in ref.eigenvalues)
    for m, w, u, w_ref in zip(mats, fam.eigenvalues, fam.eigenframes, ref.eigenvalues):
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * lmax
        assert np.linalg.norm(m - (u * w) @ u.conj().T) <= 1e-12 * lmax
        assert np.linalg.norm(u.conj().T @ u - np.eye(m.shape[0])) <= 1e-10 * m.shape[0]
    assert betti_numbers(fam) == betti_numbers(ref) == (3, 3, 2)
    weights = [None, [np.diag(rng.normal(size=m.shape[0])) for m in mats],
               weight_cases(rng, [m.shape[0] for m in mats])["dense"]]
    for weight in weights:
        for t in (0.05, 0.7):
            ungraded = sum(np.exp(-t * w).sum() for w in ref.eigenvalues)
            for subset in ("all", "perp", "small", "large"):
                got = heat_supertrace(fam, weight, t, subset)
                want = heat_supertrace(ref, weight, t, subset)
                assert abs(got - want) <= 1e-12 * ungraded
        ungraded = zeta_via_spectrum(ref, None, 1.0, graded=False)
        got = zeta_via_spectrum(fam, weight, 1.0)
        assert abs(got - zeta_via_spectrum(ref, weight, 1.0)) <= 1e-12 * ungraded.real


def test_noise_on_one_block_of_ten_fails_reconstruction(monkeypatch):
    # the residual is summed over all blocks: noise on any one of them,
    # first, last or between, raises
    m, _ = block_matrix(np.random.default_rng(8), (4,) * 10)
    eigh = np.linalg.eigh
    for noisy in range(10):
        calls = []

        def perturbed(x):
            w, u = eigh(x)
            calls.append(x.shape[0])
            if len(calls) - 1 == noisy:
                u = u + 1e-9 * np.random.default_rng(noisy).normal(size=u.shape)
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericalError, match="residual"):
            eigendecompose(GradedLaplacianFamily([m]))
        assert len(calls) == 10


def ring_factor(m, lows):
    """Tight one-level instanton graph on a ring of m index-1 and m index-0
    vertices: one edge per index-1 vertex at cost -0.45 and one strictly
    below it, at -0.45 - lows[i]."""
    vertices = [(f"p{i}", 1) for i in range(m)] + [(f"q{i}", 0) for i in range(m)]
    edges = []
    for i in range(m):
        edges.append((f"p{i}", f"q{i}", 1, -0.45))
        edges.append((f"p{i}", f"q{(i - 1) % m}", -1, -0.45 - lows[i]))
    return wl.InstantonGraph(vertices, edges)


@pytest.mark.parametrize("source", ["tensor_graph", "ring5", "circle"])
def test_one_eigh_per_block(source, tensor_graph, exact2_small, monkeypatch):
    # a tensor complex splits by multidegree into blocks of at most
    # 2^factors (C(5, k) blocks of 32 in degree k of the 5-fold ring
    # tensor); a circle Laplacian is dense, one block per degree, and its
    # spectrum is that of one whole-matrix eigh, bit for bit
    if source == "circle":
        cx = wl.assemble_circle_complex(exact2_small, 3.0)
    elif source == "tensor_graph":
        cx = wl.build_differential(tensor_graph, 3.0)
    else:
        rng = np.random.default_rng(1)
        graph = ring_factor(2, rng.uniform(0.5, 2.0, size=2))
        for _ in range(4):
            graph = wl.graph_tensor(graph, ring_factor(2, rng.uniform(0.5, 2.0, size=2)))
        cx = wl.build_differential(graph, complex(3.0, 0.4))
    fam = assemble_laplacians(cx)
    blocks = [spectral._pattern_blocks(m) for m in fam.laplacians]
    eigh = np.linalg.eigh
    sizes = []

    def counted(x):
        sizes.append(x.shape[0])
        return eigh(x)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    eigendecompose(fam)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert len(sizes) == sum(len(b) for b in blocks)
    assert sorted(sizes) == sorted(len(g) for b in blocks for g in b)
    if source == "circle":
        assert [len(b) for b in blocks] == [1, 1]
        for m, w, u in zip(fam.laplacians, fam.eigenvalues, fam.eigenframes):
            w_ref, u_ref = np.linalg.eigh(m)
            assert np.array_equal(w, np.maximum(w_ref, 0.0))
            assert np.array_equal(u, u_ref)
    else:
        factors = 2 if source == "tensor_graph" else 5
        assert max(sizes) <= 2**factors
    if source == "ring5":
        assert [len(b) for b in blocks] == [1, 5, 10, 10, 5, 1]
        assert set(sizes) == {32}


_SPECTRAL_PASS = """
import sys
import numpy as np
import wittenlab as wl
from wittenlab import spectral

system = wl.CircleWittenSystem.from_standard_zeros(
    [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=32)
ring = [wl.InstantonGraph([("p", 1), ("q", 0)],
                          [("p", "q", 1, -0.45), ("p", "q", -1, -c)]) for c in (2.2, 1.7)]
for cx in (wl.assemble_circle_complex(system, 3.0),
           wl.build_differential(wl.graph_tensor(*ring), 3.0)):
    fam = spectral.eigendecompose(spectral.assemble_laplacians(cx))
    spectral.heat_supertrace(fam, None, 0.5)
    spectral.zeta_via_spectrum(fam, None, 1.0)
    spectral.betti_numbers(fam, warn_ambiguous=False)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_spectral_pass_loads_no_scipy():
    # a circle complex and a Morse complex through assembly, decomposition,
    # heat supertrace, zeta sum and Betti numbers, in a fresh interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SPECTRAL_PASS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
