import numpy as np
import pytest
from scipy import integrate

from wittenlab import model
from wittenlab.errors import DomainError, NumericalError

from oracles import enumerate_model_values


def values(spec, degree, mu, max_quanta=6):
    return [e.value for e in model.model_spectrum(spec, degree, mu, max_quanta)]


def test_spectrum_index0_degree0():
    got = values(model.MorseModelSpec(1, 0), 0, 3.0)
    assert got[:3] == [0.0, 6.0, 12.0]


def test_spectrum_index1_degree1():
    got = values(model.MorseModelSpec(1, 1), 1, 5.0)
    assert got[:3] == [0.0, 10.0, 20.0]


def test_spectrum_n2_merges_branches():
    got = values(model.MorseModelSpec(2, 1), 1, 1.0)
    oracle = enumerate_model_values(2, 1, 1, 1.0, 6)
    assert got == oracle
    # frozen prefix from the enumeration oracle: eigenvalue 4 has
    # multiplicity four (three from one sign branch, one from the other)
    assert got[:13] == [0, 2, 2, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6]


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_zero_multiplicity(n, k):
    for d in range(n + 1):
        zeros = [e for e in model.model_spectrum(model.MorseModelSpec(n, k), d, 2.0)
                 if e.value == 0.0]
        assert len(zeros) == (1 if d == k else 0)


def test_spectrum_bounds_its_enumeration():
    # n = 12, degree 1 would be 7^12 * 12 (about 1.7e11) records; none is built
    with pytest.raises(DomainError, match="exceed the bound"):
        model.model_spectrum(model.MorseModelSpec(12, 1), 1, 1.0)


def test_nonzero_at_least_two_mu():
    for n, k in [(1, 0), (2, 2), (3, 1)]:
        for d in range(n + 1):
            vals = values(model.MorseModelSpec(n, k), d, 1.7)
            nonzero = [v for v in vals if v > 0]
            assert min(nonzero) >= 2 * 1.7 - 1e-12


def test_cutoff_normalization_matches_asymptote():
    a_mu, dev = model.cutoff_normalization(20.0, 3.0)
    assert abs(dev) < 1e-8
    assert a_mu == pytest.approx((np.pi / 20.0) ** 0.25, rel=1e-7)


def test_cutoff_normalization_exponential_sweep():
    devs = []
    for mu in (4.0, 6.0, 8.0, 10.0):
        _, dev = model.cutoff_normalization(mu, 1.0)
        devs.append(abs(dev) + 1e-300)
    logs = np.log(devs)
    slopes = np.diff(logs) / 2.0
    assert all(s < -0.5 for s in slopes)


def _quad_cutoff_integral(mu, r):
    rho = model.default_cutoff(r)
    val, _ = integrate.quad(
        lambda x: float(rho(x)) ** 2 * np.exp(-mu * x * x),
        -2.0 * r, 2.0 * r, epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return val


def test_cutoff_normalization_matches_adaptive_quadrature():
    # the trapezoidal sum against adaptive quadrature of the same integrand
    worst = 0.0
    for mu in np.logspace(-1.0, 4.0, 11):
        for r in np.linspace(0.05, 3.0, 7):
            a_mu, _ = model.cutoff_normalization(mu, r)
            ref = _quad_cutoff_integral(mu, r) ** 0.5
            worst = max(worst, abs(a_mu - ref) / ref)
    assert worst <= 1e-13


def test_cutoff_normalization_wide_support_narrow_gaussian():
    # mu r^2 = 1e8: the Gaussian is 1e-4 wide on a support of width 4;
    # the sum still resolves it, and rho = 1 there, so a_mu^4 = pi/mu
    a_mu, dev = model.cutoff_normalization(1e8, 1.0)
    assert abs(dev) <= 1e-14
    assert a_mu == pytest.approx((np.pi / 1e8) ** 0.25, rel=1e-14)


def test_cutoff_normalization_unresolved_raises(monkeypatch):
    # with 8 panels the sum and its 4-panel half disagree far above 1e-10
    monkeypatch.setattr(model, "_CUTOFF_PANELS", 8)
    with pytest.raises(NumericalError, match="cutoff quadrature error"):
        model.cutoff_normalization(1.0, 1.0)


def test_cutoff_trivial_gaussian():
    # r = 3 > sqrt(40/7): rho == 1 on the whole summed range [0, sqrt(40/7)],
    # so the sum is the pure Gaussian integral, up to e^{-40}
    a_mu, dev = model.cutoff_normalization(7.0, 3.0)
    assert abs(a_mu - (np.pi / 7.0) ** 0.25) <= 1e-14
    assert abs(dev) <= 1e-14


def test_default_cutoff_is_admissible():
    # the one cutoff cutoff_normalization integrates: even, 1 on [-r, r],
    # zero at 2r and beyond, valued in [0, 1]; a nonpositive radius raises
    r = 0.7
    rho = model.default_cutoff(r)
    xs = np.linspace(0.0, 2.0 * r, 257)
    vals = rho(xs)
    assert np.max(np.abs(vals - rho(-xs))) <= 1e-12
    assert np.max(np.abs(vals[xs <= r] - 1.0)) <= 1e-12
    assert abs(rho(2.0 * r)) <= 1e-12 and abs(rho(2.5 * r)) <= 1e-12
    assert np.min(vals) >= 0.0 and np.max(vals) <= 1.0
    with pytest.raises(DomainError):
        model.default_cutoff(0.0)


@pytest.mark.parametrize("mu", [4.0, 16.0])
def test_numeric_model_check(mu):
    for k in (0, 1):
        for d in (0, 1):
            rep = model.numeric_model_check(model.MorseModelSpec(1, k), mu, d)
            assert rep.max_rel_error < 1e-4


def test_numeric_check_degree0_values():
    rep = model.numeric_model_check(model.MorseModelSpec(1, 0), 4.0, 0)
    assert np.allclose(rep.formula[:3], [0.0, 8.0, 16.0])


def test_supersymmetry_of_discretized_degrees():
    mu = 6.0
    r0 = model.numeric_model_check(model.MorseModelSpec(1, 0), mu, 0)
    r1 = model.numeric_model_check(model.MorseModelSpec(1, 0), mu, 1)
    nz0 = [v for v in r0.numeric if v > mu][:6]
    nz1 = [v for v in r1.numeric if v > mu][:6]
    assert np.allclose(nz0, nz1, rtol=1e-5)


def test_fd_shift_matches_direct_solve():
    # the cached base spectrum shifted by eps = +-mu against a solve of the
    # shifted operator itself; they differ by the bisection tolerance
    from scipy.linalg import eigh_tridiagonal

    for mu in (1.0, 4.0, 16.0):
        L = max(6.0 / np.sqrt(mu), 4.0)
        for eps in (mu, -mu):
            for m in (3000, 1500):
                h = 2.0 * L / (m + 1)
                x = -L + h * np.arange(1, m + 1)
                direct = eigh_tridiagonal(
                    2.0 / h**2 + mu**2 * x**2 + eps, np.full(m - 1, -1.0 / h**2),
                    select="i", select_range=(0, 9), eigvals_only=True,
                )
                got = model._fd_spectrum(mu, eps, L, m, 10)
                assert np.all(np.abs(got - direct) <= 1e-10 * np.maximum(np.abs(direct), mu))


@pytest.mark.parametrize("mu", [0.5, 1.0, 4.0, 16.0, 64.0])
def test_sine_ritz_spectrum_matches_tridiagonal_solver(mu):
    # the certified Rayleigh-Ritz against SciPy's tridiagonal bisection:
    # below mu = 2.25 the walls sit at mu L^2 = 36 and the basis must grow;
    # m = 10 is the half grid of the smallest check and takes the whole basis
    from scipy.linalg import eigh_tridiagonal

    L = max(6.0 / np.sqrt(mu), 4.0)
    for m in (10, 110, 1500, 3000):
        h = 2.0 * L / (m + 1)
        x = -L + h * np.arange(1, m + 1)
        want = eigh_tridiagonal(
            2.0 / h**2 + mu**2 * x**2, np.full(m - 1, -1.0 / h**2),
            select="i", select_range=(0, 9), eigvals_only=True,
        )
        model._fd_base_spectrum.cache_clear()
        got = model._fd_base_spectrum(mu, L, m, 10)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), mu))


def test_inertia_count_matches_eigenvalues():
    rng = np.random.default_rng(3)
    diag = rng.uniform(-2.0, 2.0, 40)
    dense = np.diag(diag) + np.diag(np.full(39, 0.7), 1) + np.diag(np.full(39, 0.7), -1)
    eig = np.linalg.eigvalsh(dense)
    for cut in (-3.0, 0.1, 1.3, 5.0, *(0.5 * (eig[1:] + eig[:-1]))[::7]):
        assert model._count_below(diag, 0.7, cut) == np.count_nonzero(eig < cut)


def test_fd_spectrum_raises_when_the_inertia_count_disagrees(monkeypatch):
    # one eigenvalue more below the cut than Ritz values: the basis grows
    # to the whole grid, and the count still disagrees
    monkeypatch.setattr(model, "_count_below", lambda diag, off, cut: 11)
    model._fd_base_spectrum.cache_clear()
    with pytest.raises(NumericalError, match="not certified in the whole sine basis"):
        model._fd_base_spectrum(4.0, 4.0, 110, 10)


def test_fd_base_spectra_are_cached_read_only():
    model._fd_base_spectrum.cache_clear()
    for k in (0, 1):
        for d in (0, 1):
            model.numeric_model_check(model.MorseModelSpec(1, k), 5.0, d)
    info = model._fd_base_spectrum.cache_info()
    assert (info.misses, info.hits) == (2, 6)
    assert info.maxsize == model._FD_CACHE_SIZE
    base = model._fd_base_spectrum(5.0, 4.0, 3000, 10)
    with pytest.raises(ValueError):
        base[0] = 0.0


@pytest.mark.parametrize("grid", [19, 0, -5])
def test_model_check_rejects_too_small_grid(grid, monkeypatch):
    # the half grid must hold the 10 compared eigenvalues; the bound is
    # checked before the eigensolver is reached
    def unreachable(*args):
        raise AssertionError("eigensolver reached")

    monkeypatch.setattr(model, "_fd_spectrum", unreachable)
    with pytest.raises(DomainError, match="at least 20"):
        model.numeric_model_check(
            model.MorseModelSpec(1, 0), 4.0, 0, grid_points=grid
        )


def test_model_check_smallest_grid_reaches_resolution_check():
    # 20 points leave 10 on the half grid: the eigensolver runs, and the
    # coarse grid is flagged as unresolved
    with pytest.raises(NumericalError, match="grid unresolved"):
        model.numeric_model_check(model.MorseModelSpec(1, 0), 4.0, 0, grid_points=20)


def test_insufficient_resolution_flagged():
    with pytest.raises(NumericalError):
        model.numeric_model_check(
            model.MorseModelSpec(1, 0), 16.0, 0, grid_points=220
        )
