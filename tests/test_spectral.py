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
    split_small_large,
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


def test_split_small_large_trivial():
    fam = family_from_diag([0.0, 0.3, 7.0])
    split = split_small_large(fam)
    assert split.small_counts == (2,)
    assert split.large_counts == (1,)
    fam2 = family_from_diag([0.1, 0.9, 1.0])
    assert split_small_large(fam2).large_counts == (0,)


def test_split_counts_match_zero_count_on_circle(tight2):
    cx = wl.assemble_circle_complex(tight2, 20.0)
    fam = eigendecompose(assemble_laplacians(cx))
    split = split_small_large(fam)
    assert split.small_counts == tight2.counts


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
    s1, s2 = split_small_large(fam1), split_small_large(fam2)
    assert s1.small_counts == s2.small_counts


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


def test_commutation_residuals_recorded(exact2_small):
    cx = wl.assemble_circle_complex(exact2_small, 3.0)
    fam = assemble_laplacians(cx)
    assert len(fam.commutation_residuals) == 1
    assert fam.commutation_residuals[0] < 1e-12


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


def test_perturbed_kernel_vector_fails_gram_check(monkeypatch):
    # scaling the kernel eigenvector leaves U diag(w) U* = m exactly, so only
    # the Gram check sees it
    m = np.diag([0.0, 1.0, 3.0]).astype(complex)
    eigh = np.linalg.eigh

    def perturbed(x):
        w, u = eigh(x)
        u = u.copy()
        u[:, 0] *= 1.0 + 1e-8
        return w, u

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NumericalError, match="not unitary"):
        eigendecompose(GradedLaplacianFamily([m]))


def test_commutation_residual_bounds_two_norm_ratio(exact2_small):
    cx = wl.assemble_circle_complex(exact2_small, 3.0)
    fam = assemble_laplacians(cx)
    (d,), (l0, l1) = cx.differentials, fam.laplacians
    two = np.linalg.norm(d @ l0 - l1 @ d, 2) / (
        np.linalg.norm(d, 2)
        * (1.0 + max(np.linalg.norm(l0, 2), np.linalg.norm(l1, 2)))
    )
    assert two <= fam.commutation_residuals[0] < 1e-12
