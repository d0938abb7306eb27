import copy
import warnings
from pathlib import Path

import numpy as np
import pytest

import wittenlab as wl
from wittenlab import circle, cli, zdist
from wittenlab.errors import (
    AmbiguousKernel,
    ConfigError,
    GeometryError,
    NumericalError,
    StateError,
    UnsupportedError,
)
from wittenlab.smoothfn import SMOOTH_STEP_MOMENT

import oracles
from oracles import (
    arc_shape_masses_quadrature,
    arc_weight_quadrature,
    cell_integral_loop,
    cutoff_state_loop,
    small_projectors_svd,
    smooth_step_moment_quadrature,
)

DATA = Path(__file__).parent / "data"


# -- construction -------------------------------------------------------------


def test_make_standard_profile_values_and_caps():
    # the profile h of a standard-form system, shifted to the first zero's
    # value
    system = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.4, N=256
    )
    h = system.h + (1.0 - system.h_at(0.0))
    theta = circle.grid(256)
    assert h[0] == pytest.approx(1.0, abs=1e-10)
    assert h[128] == pytest.approx(-1.0, abs=1e-10)
    # monotone on each arc
    arc1 = h[(theta > 0.01) & (theta < np.pi - 0.01)]
    assert np.all(np.diff(arc1) < 0)
    # cap curvature by centered finite differences
    dt = 2 * np.pi / 256
    hpp_max = (h[1] - 2 * h[0] + h[-1]) / dt**2
    hpp_min = (h[129] - 2 * h[128] + h[127]) / dt**2
    assert hpp_max == pytest.approx(-1.0, abs=1e-6)
    assert hpp_min == pytest.approx(1.0, abs=1e-6)


def test_geometry_errors():
    with pytest.raises(GeometryError):
        wl.CircleWittenSystem.from_standard_zeros(
            [(0.0, 1.0, 1), (0.5, -1.0, 0)], r=0.4, N=64
        )  # caps overlap
    with pytest.raises(GeometryError):
        circle.StandardOneForm([0.0, np.pi], [1, 1], [-2.0, 2.0], 0.3)
    with pytest.raises(GeometryError):
        wl.CircleWittenSystem.from_standard_zeros(
            [(0.0, -1.0, 1), (np.pi, 1.0, 0)], r=0.3, N=64
        )  # values inconsistent with alternation


def test_grid_size_validation():
    with pytest.raises(ConfigError):
        wl.CircleWittenSystem.from_arc_weights(
            [0.0, np.pi], [1, 0], [-2.0, 2.0], N=100
        )


def test_arc_weights_reproduced_by_quadrature(tight2):
    w1 = arc_weight_quadrature(tight2, 0.0, 2.2)
    w2 = arc_weight_quadrature(tight2, 2.2, 2 * np.pi)
    assert w1 == pytest.approx(-0.45, abs=1e-8)
    assert w2 == pytest.approx(2.2, abs=1e-8)


def _arc_endpoints(system):
    zs = system.zeros
    m = len(zs)
    for i in range(m):
        wrap = 2 * np.pi if i == m - 1 else 0.0
        yield zs[i].position, zs[(i + 1) % m].position + wrap


_EXACT4_SPEC = [(0.0, 0.5, 1), (1.5, -0.45, 0), (np.pi, 0.4, 1), (4.7, -0.5, 0)]


def test_primitive_over_each_arc_equals_prescribed_weight(tight2, exact4):
    values = [v for _, v, _ in _EXACT4_SPEC]
    cases = (
        (tight2, [-0.45, 2.2]),
        (exact4, [values[(i + 1) % 4] - values[i] for i in range(4)]),
    )
    for system, weights in cases:
        for (a, b), w in zip(_arc_endpoints(system), weights):
            assert abs(system.primitive(a, b) - w) <= 1e-14


def test_arc_masses_match_quadrature(tight2, exact4):
    ref = smooth_step_moment_quadrature()
    assert abs(SMOOTH_STEP_MOMENT - ref) <= 1e-14 * ref
    for system in (tight2, exact4):
        for *_, shape in system._eta_fn.arcs:
            fade, plateau = arc_shape_masses_quadrature(shape)
            assert abs(shape.fade_mass - fade) <= 1e-14 * (1.0 + fade)
            assert abs(shape.plateau_mass - plateau) <= 1e-14 * (1.0 + plateau)


@pytest.mark.parametrize("N", [8, 64, 512])
def test_grid_h_matches_series(N):
    std = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=N
    )
    systems = [std]
    if N >= 64:  # an 8-point grid does not resolve the profile's zeros
        systems.append(wl.CircleWittenSystem.from_profile(std.h, c=0.05, r=0.35))
    for system in systems:
        ref = np.real(circle._eval_series(system._anti_coeffs, system.theta))
        assert np.max(np.abs(system.h - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref)))


def test_zero_location_from_profile(trig256):
    # h = cos t + 0.45 cos 2t has maxima at 0 and pi and two interior minima
    # where 1 + 1.8 cos t vanishes
    zs = trig256.zeros
    assert len(zs) == 4
    assert [z.index for z in zs] == [1, 0, 1, 0]
    positions = [z.position for z in zs]
    root = np.arccos(-1.0 / 1.8)
    assert positions[0] == pytest.approx(0.0, abs=1e-10)
    assert positions[1] == pytest.approx(root, abs=1e-10)
    assert positions[2] == pytest.approx(np.pi, abs=1e-10)
    assert positions[3] == pytest.approx(2 * np.pi - root, abs=1e-10)


def test_shifted_standard_zeros_displace_inside_caps():
    # caps of slope -1 at the index-1 zero and +1 at the index-0 zero: eta + c
    # vanishes at p + c and p - c, listed by position in [0, 2 pi)
    for c in (0.1, -0.1):
        sys = wl.CircleWittenSystem.from_standard_zeros(
            [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.4, N=256, c=c
        )
        assert sys.c == c
        moved = {1: c % (2 * np.pi), 0: np.pi - c}
        want = sorted((moved[k], k) for k in (0, 1))
        assert [(z.position, z.index) for z in sys.zeros] == want
        located = sys._locate_zeros()
        assert [z.index for z in located] == [k for _, k in want]
        assert np.allclose([z.position for z in located], [p for p, _ in want],
                           rtol=0.0, atol=1e-12)


def test_shifted_shallow_arc_gains_two_zeros():
    # weights +-0.4 leave the descending arc below 0.1 between its caps, so
    # eta + 0.1 changes sign twice more there; those zeros are located
    sys = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 0.2, 1), (np.pi, -0.2, 0)], r=0.35, N=256, c=0.1
    )
    assert sys.c == 0.1
    assert [z.index for z in sys.zeros] == [1, 0, 1, 0]
    positions = [z.position for z in sys.zeros]
    assert positions[0] == pytest.approx(0.1, abs=1e-12)
    assert 0.35 < positions[1] < positions[2] < np.pi - 0.35
    assert positions[3] == pytest.approx(np.pi - 0.1, abs=1e-12)
    assert np.allclose(sys._eta_fn(np.array(positions)), 0.0, atol=1e-12)


def _brentq_zeros(system):
    # the reference: SciPy's brentq on each sign change of the dense samples
    from scipy.optimize import brentq

    dense = system._dense
    m = len(dense)
    f = lambda t: float(system._eta_fn(np.array([t]))[0])
    roots = [2 * np.pi * i / m for i in np.flatnonzero(dense == 0.0)]
    for i in np.flatnonzero(dense * np.roll(dense, -1) < 0):
        roots.append(brentq(f, 2 * np.pi * i / m, 2 * np.pi * (i + 1) / m, xtol=1e-14))
    return sorted(r % (2 * np.pi) for r in roots)


def test_zero_location_matches_brentq(trig256):
    shallow = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 0.2, 1), (np.pi, -0.2, 0)], r=0.35, N=256, c=0.1
    )
    for system in (trig256, shallow):
        got = [z.position for z in system._locate_zeros()]
        want = _brentq_zeros(system)
        assert len(got) == len(want) == 4
        assert np.max(np.abs(np.array(got) - want)) <= 1e-13


# -- complex assembly and spectra ---------------------------------------------


def test_de_rham_betti_at_zero(exact2_small):
    assert wl.betti_novikov(exact2_small, 0.0) == (1, 1)


def test_gauge_invariance_exact_spectra(exact2):
    # per-eigenvalue agreement on the resolved part of the spectrum; the
    # top lattice modes are pushed past the band limit by the oscillatory
    # twist and cannot agree at finite N
    z0 = complex(8.0, 0.0)
    z1 = complex(8.0, 10.0)
    resolved = (exact2.N // 4) ** 2
    s0 = exact2.zeta_data(z0).sigma ** 2
    s1 = exact2.zeta_data(z1).sigma ** 2
    keep = s0 <= resolved
    assert np.max(np.abs(s0[keep] - s1[keep]) / (1.0 + s0[keep])) < 1e-8


def test_novikov_betti_vanish(tight2):
    for mu in (10.0, 20.0):
        assert wl.betti_novikov(tight2, complex(mu, 0.0)) == (0, 0)


def test_betti_difference_is_euler(exact2_small, tight2):
    for sys, z in ((exact2_small, 5.0), (tight2, 12.0)):
        b0, b1 = wl.betti_novikov(sys, z)
        assert b0 - b1 == 0


# -- zeta invariant ------------------------------------------------------------


def test_zeta_exact_limit(exact2):
    oracle = sum(
        (-1.0) ** z.index * exact2.h_at(z.position) for z in exact2.zeros
    )
    res = wl.zeta_invariant(exact2, complex(30.0, 0.0))
    assert abs(res.value - oracle) / abs(oracle) < 0.01
    assert abs(res.value.real - (-2.0)) / 2.0 < 0.01


def test_zeta_exact_nu_invariance(exact2):
    vals = [
        wl.zeta_invariant(exact2, complex(30.0, nu)).value for nu in (0.0, 25.0)
    ]
    assert abs(vals[0] - vals[1]) < 1e-8


def test_zeta_precondition(tight2):
    with pytest.raises(StateError):
        wl.zeta_invariant(tight2, complex(0.05, 0.0))


def test_zeta_split_consistency(tight2):
    res = wl.zeta_invariant(tight2, complex(20.0, 0.0))
    assert res.value == pytest.approx(res.zeta_sm + res.zeta_la)


def test_zeta_antisymmetry_under_joint_negation(tight2):
    res = wl.zeta_invariant(tight2, complex(15.0, 3.0))
    neg = wl.zeta_invariant(tight2.negated(), complex(-15.0, -3.0))
    assert abs(res.value + neg.value) < 1e-9 * (1 + abs(res.value))


# Largest relative defect of the duality below, over value and zeta_sm,
# nu in {0, 3} and 1 or 2 BLAS threads: 4.7e-16 on exact2 at every mu;
# 4.2e-14, 3.4e-13, 2.1e-11 and 1.3e-9 on tight2 at mu = 5, 10, 20 and 30
# (the small singular value falls like e^{-a mu}, and rounding with it).
# Each bound is about ten times its figure.
_DUALITY_BOUNDS = {
    "exact2": {5.0: 5e-15, 10.0: 5e-15, 20.0: 5e-15, 30.0: 5e-15},
    "tight2": {5.0: 5e-13, 10.0: 5e-12, 20.0: 3e-10, 30.0: 2e-8},
}


@pytest.mark.parametrize("nu", [0.0, 3.0])
@pytest.mark.parametrize("mu", [5.0, 10.0, 20.0, 30.0])
@pytest.mark.parametrize("name", ["exact2", "tight2"])
def test_zeta_conjugate_duality(name, mu, nu, request):
    # D is anti-Hermitian on every grid, so d_{-conj z} = -d_z^* exactly and
    # zeta(1, -conj z) = -conj zeta(1, z), for the value and its small part
    system = request.getfixturevalue(name)
    z = complex(mu, nu)
    res = wl.zeta_invariant(system, z)
    dual = wl.zeta_invariant(system, -z.conjugate())
    bound = _DUALITY_BOUNDS[name][mu]
    for field in ("value", "zeta_sm"):
        x, y = getattr(res, field), getattr(dual, field)
        assert abs(y + x.conjugate()) <= bound * abs(x), field


def test_zeta_small_drifts_to_leading_cost(tight2):
    # the small invariant approaches the common leading descent cost at a
    # 1/mu rate (measured law of the discretized family)
    a1 = wl.instanton_data_circle(tight2).a1
    devs = []
    for mu in (10.0, 20.0, 30.0):
        res = wl.zeta_invariant(tight2, complex(mu, 0.0))
        devs.append(abs(res.zeta_sm.real - a1))
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] < 0.02


def test_zeta_small_is_log_derivative_of_small_sigma(tight2):
    # d/dz d_z = eta wedge, so Hellmann-Feynman gives d sigma / d mu =
    # Re <u, eta v> on the small triple and zeta_sm = -d/dmu log sigma_small
    def log_small(mu):
        data = tight2.zeta_data(complex(mu, 0.0))
        (sigma,) = data.sigma[data.nonzero & data.small]
        return np.log(sigma)

    # fourth-order central difference: at h = 1e-2 its truncation error and
    # the rounding of the SVD both stay far below the tolerance
    h = 1e-2
    for mu in (10.0, 20.0, 30.0):
        res = wl.zeta_invariant(tight2, complex(mu, 0.0))
        fd = -(
            8.0 * (log_small(mu + h) - log_small(mu - h))
            - (log_small(mu + 2.0 * h) - log_small(mu - 2.0 * h))
        ) / (12.0 * h)
        assert res.zeta_sm.real == pytest.approx(fd, rel=1e-5)


def test_zeta_raw_samples_and_csv(tight2):
    res = wl.zeta_invariant(tight2, complex(12.0, 0.0))
    rows = res.csv_rows()
    assert len(rows) == len(res.ts)
    assert len(rows[0]) == 9


@pytest.fixture(scope="module")
def shifted_c01():
    return wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=128, c=0.1
    )


# sigma_small / tol is 29 at mu = 8, 1.09 at mu = 10 and 0.038 at mu = 12
@pytest.mark.parametrize("mu, ambiguous", [(8.0, False), (10.0, True), (12.0, False)])
def test_zeta_warns_on_ambiguous_kernel(shifted_c01, mu, ambiguous):
    z = complex(mu, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = wl.zeta_invariant(shifted_c01, z)
        wl.betti_novikov(shifted_c01, z)
    flagged = [w for w in caught if issubclass(w.category, AmbiguousKernel)]
    assert len(flagged) == (2 if ambiguous else 0)
    assert all(w.filename == __file__ for w in flagged)
    assert (res.kernel_margin <= 10.0) == ambiguous
    data = shifted_c01.zeta_data(z)
    assert res.kernel_margin == min(
        max(s / data.tol, data.tol / s) for s in data.sigma
    )


# The lattice breaks the continuum identity on non-exact systems: the Nyquist
# wavenumber +N/2 makes the differentiation matrix complex (max |Im D| = 1/2),
# which leaves a 4.9e-5 relative error on tight2 at N = 256.
@pytest.mark.parametrize("name, bound", [("exact2", 1e-12), ("tight2", 1e-4)])
def test_zeta_conjugation_symmetry(name, bound, request):
    system = request.getfixturevalue(name)
    for mu in (10.0, 30.0):
        for nu in (0.5, 4.0, 12.0):
            up = wl.zeta_invariant(system, complex(mu, nu)).value
            down = wl.zeta_invariant(system, complex(mu, -nu)).value
            assert abs(down - up.conjugate()) <= bound * abs(up)


# The continuum value: ROADMAP-measured agreement of the lattice is about
# 1e-9 on exact two-zero forms, 1e-7 on exact4 below the tunnelling horizon
# and 1.2e-5 on tight2 at mu = 10 (an N^-3 lattice law).
@pytest.mark.parametrize("name, mu, bound", [
    ("exact2", 10.0, 1e-6), ("exact2", 20.0, 1e-6), ("exact2", 30.0, 1e-6),
    ("exact4", 10.0, 1e-6), ("exact4", 16.0, 1e-6), ("tight2", 10.0, 1e-4),
])
def test_zeta_matches_continuum(name, mu, bound, request):
    system = request.getfixturevalue(name)
    cont = circle.continuum_zeta(system, complex(mu, 0.0))
    value = wl.zeta_invariant(system, complex(mu, 0.0)).value
    assert abs(value - cont) <= bound * abs(cont)


@pytest.mark.parametrize("z", [complex(10.0, 3.0), complex(20.0, 3.0)])
def test_zeta_without_kernel_is_the_circulation_channel(tight2, z):
    # with no kernel the value is c (-pi coth(pi z c) - tr d_z^-1 - the
    # rotation reference sum), imaginary part included; the trace here comes
    # from an explicit inverse, not from the singular triples
    res = wl.zeta_invariant(tight2, z)
    assert res.kernel_term == 0
    c = tight2.c
    trace = np.trace(np.linalg.inv(tight2.differential(z)))
    want = c * (-np.pi / np.tanh(np.pi * z * c) - trace
                - circle.rotation_reference_sum(tight2.N, z, c))
    assert abs(res.value - want) <= 1e-10 * abs(want)


def test_continuum_zeta_closed_forms(exact2, tight2):
    # exact forms: nu-independent, tending to min h - max h = -2
    assert circle.continuum_zeta(exact2, complex(10.0, 7.0)) == circle.continuum_zeta(
        exact2, 10.0
    )
    assert circle.continuum_zeta(exact2, 200.0) == pytest.approx(-2.0, abs=1e-2)
    c = tight2.c
    assert circle.continuum_zeta(tight2, 10.0) == pytest.approx(
        -np.pi * abs(c) / np.tanh(np.pi * 10.0 * abs(c)), rel=1e-15
    )


def test_zeta_past_tunnelling_horizon_leaves_continuum(exact4):
    # at mu = 30 the tunnelling value of exact4 falls below the kernel
    # threshold: the kernel is miscounted and the value is far off
    z = complex(30.0, 0.0)
    cont = circle.continuum_zeta(exact4, z)
    assert abs(wl.zeta_invariant(exact4, z).value - cont) > 0.5 * abs(cont)


# -- values-only spectrum --------------------------------------------------------


def _uncached(system):
    fresh = copy.copy(system)
    fresh._spectra = {}
    return fresh


@pytest.fixture(scope="module")
def four_arc512():
    return wl.CircleWittenSystem.from_arc_weights(
        [0.3, 1.8, 0.3 + np.pi, 5.0], [1, 0, 1, 0], [-0.4, 1.0, -0.45, 1.1],
        r=0.3, N=512,
    )


@pytest.mark.parametrize("name", ["tight2", "exact4", "shifted_c01", "four_arc512"])
def test_singular_values_match_full_svd(name, request):
    system = _uncached(request.getfixturevalue(name))
    for z in (5.0, 10.0, 40.0, complex(10.0, 3.0)):
        values = system.singular_values(z)
        assert np.all(np.diff(values) >= 0)
        data = system.zeta_data(z)
        off = data.nonzero
        rel = np.abs(values[off] - data.sigma[off]) / data.sigma[off]
        assert rel.max() <= 1e-13


def test_singular_values_share_zeta_data_sigma(tight2):
    system = _uncached(tight2)
    z = complex(12.0, 1.0)
    values = system.singular_values(z)
    assert system.singular_values(z) is values
    data = system.zeta_data(z)
    assert system._spectra[z] is data
    assert system.singular_values(z) is data.sigma


def test_gap_and_betti_need_no_singular_vectors(tight2, exact2_small, monkeypatch):
    def no_vectors(self, z):
        raise AssertionError("singular vectors computed")

    monkeypatch.setattr(circle.CircleWittenSystem, "spectrum", no_vectors)
    tight, exact = _uncached(tight2), _uncached(exact2_small)
    rep = circle.spectral_gap_report(tight, [5.0, 10.0, 20.0])
    assert rep.small_counts == (1, 1, 1)
    assert rep.slope_log_small < -0.1
    assert wl.betti_novikov(tight, complex(10.0, 0.0)) == (0, 0)
    assert wl.betti_novikov(exact, 5.0) == (1, 1)


# -- exact trace identity -------------------------------------------------------


def test_identity_residual_spectral_decay():
    residuals = {}
    for n in (64, 128, 256):
        sys = wl.CircleWittenSystem.from_standard_zeros(
            [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=n
        )
        resid, lhs, rhs = wl.exact_identity_residual(sys, complex(10.0, 0.0), 0.1)
        residuals[n] = resid
    scale = max(1.0, abs(lhs), abs(rhs))
    assert residuals[64] / max(residuals[256], 1e-300) >= 1e3
    assert residuals[256] < 1e-8 * scale


def test_identity_unperturbed_and_large_t(trig256):
    resid, lhs, rhs = wl.exact_identity_residual(trig256, 0.0, 0.1)
    assert resid < 1e-8
    resid, lhs, rhs = wl.exact_identity_residual(trig256, complex(5.0, 0.0), 40.0)
    assert abs(lhs) < 1e-9 and abs(rhs) < 1e-9


def test_identity_requires_exact(tight2):
    with pytest.raises(UnsupportedError):
        wl.exact_identity_residual(tight2, 5.0, 0.1)


# -- instanton data --------------------------------------------------------------


def test_instanton_weights_exact_symmetric(exact2):
    data = wl.instanton_data_circle(exact2)
    weights = sorted(a.weight for a in data.arcs)
    assert weights == pytest.approx([-2.0, -2.0], abs=1e-8)
    assert data.tight and data.a1 == pytest.approx(2.0, abs=1e-8)


def test_instanton_weights_differ_by_circulation(tight2):
    data = wl.instanton_data_circle(tight2)
    ws = sorted(a.weight for a in data.arcs)
    assert abs(ws[1] - ws[0]) == pytest.approx(2 * np.pi * abs(tight2.c), abs=1e-8)
    assert data.tight  # single index-1 zero


def test_instanton_data_not_tight(exact4):
    # maxima 0.5 and 0.4 over minima -0.45 and -0.5: escape costs 0.95 and
    # 0.85, so the per-index cost is the smaller one and a1 is undefined
    data = wl.instanton_data_circle(exact4)
    assert data.arcs == circle.circle_graph(exact4).edges
    assert not data.tight
    assert data.index_cost == pytest.approx(0.85, abs=1e-8)
    with pytest.raises(StateError):
        data.a1


def test_instanton_signs(tight2):
    data = wl.instanton_data_circle(tight2)
    signs = {a.sign for a in data.arcs}
    assert signs == {1, -1}


# -- transgression pullback -------------------------------------------------------


def test_mathai_quillen_exact_value(exact2):
    res = wl.mathai_quillen_1d(exact2)
    oracle = sum(
        (-1.0) ** z.index * exact2.h_at(z.position) for z in exact2.zeros
    )
    assert res.value == pytest.approx(oracle, abs=1e-8)
    assert res.value == pytest.approx(-2.0, abs=1e-6)


@pytest.mark.parametrize(
    "name", ["two_zero_exact.json", "four_zero_exact.json", "exact4",
             "exact2_small", "trig256"],
)
def test_mathai_quillen_is_alternating_critical_sum(name, request):
    # the pullback's sign is a constant: for eta = dh each arc joins a
    # maximum (index 1) to a minimum, so sum_k (-1)^k h(x_k) = -TV/2
    if name.endswith(".json"):
        system = cli.load_system(str(DATA / name))
    else:
        system = request.getfixturevalue(name)
    assert system.exact
    oracle = sum((-1.0) ** z.index * system.h_at(z.position) for z in system.zeros)
    value = wl.mathai_quillen_1d(system).value
    assert abs(value - oracle) <= 1e-12 * abs(oracle)


def test_mathai_quillen_linear_in_form():
    a = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 0.5, 1), (np.pi, -0.5, 0)], r=0.35, N=128
    )
    b = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=128
    )
    ra, rb = wl.mathai_quillen_1d(a), wl.mathai_quillen_1d(b)
    assert rb.value == pytest.approx(2.0 * ra.value, rel=1e-6)


def test_mathai_quillen_samples(tight2):
    res = wl.mathai_quillen_1d(tight2)
    assert set(np.unique(res.samples)).issubset({-0.5, 0.0, 0.5})
    assert res.value == pytest.approx(-0.5 * tight2.total_variation(), rel=1e-12)


# -- cell integration -------------------------------------------------------------


def test_phi_index0_is_evaluation(exact2):
    rng = np.random.default_rng(3)
    omega0 = np.exp(1j * circle.grid(256)) + 0.3 * rng.normal(size=256)
    omega0 = np.fft.ifft(np.fft.fft(omega0) * (np.abs(np.fft.fftfreq(256, 1 / 256)) < 40))
    omega = (omega0, np.zeros(256, dtype=complex))
    q_idx = [i for i, z in enumerate(exact2.zeros) if z.index == 0][0]
    val = wl.phi_map_circle(exact2, complex(5.0, 0.0), omega, q_idx)
    pos = exact2.zeros[q_idx].position
    direct = circle._eval_series(circle._fourier_coeffs(omega0), pos)[0]
    assert val == pytest.approx(complex(direct), abs=1e-10)


def test_phi_psi_diagonal_asymptotics(exact2):
    mat, targets = circle.phi_psi_matrix(exact2, complex(20.0, 0.0))
    ratios = np.abs(np.diag(mat)) / targets
    assert np.max(np.abs(ratios - 1.0)) < 0.06


def test_phi_psi_diagonal_deviation_decays(exact2):
    devs = []
    for mu in (10.0, 16.0, 22.0):
        mat, targets = circle.phi_psi_matrix(exact2, complex(mu, 0.0))
        devs.append(np.max(np.abs(np.abs(np.diag(mat)) / targets - 1.0)))
    assert devs[2] < devs[1] < devs[0]


def test_phi_offdiagonal_small(exact4):
    mat, _ = circle.phi_psi_matrix(exact4, complex(16.0, 0.0))
    off = np.abs(mat - np.diag(np.diag(mat)))
    assert off.max() < 1e-4


@pytest.mark.parametrize("name", ["exact2", "tight2"])
def test_cell_integration_matches_pointwise_loop(name, request):
    system = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    for z in (complex(10.0, 0.0), complex(16.0, 2.5)):
        for p, zp in enumerate(system.zeros):
            state = circle._cutoff_state(
                system, z, p, *circle._cutoff_profile(system, z)
            )
            ref = cutoff_state_loop(system, z, p)
            assert np.max(np.abs(state[zp.index] - ref)) <= 1e-12 * (
                1.0 + np.max(np.abs(ref))
            )
            assert not np.any(state[1 - zp.index])
            if zp.index == 1:
                omega1 = ref + 0.1 * rng.normal(size=system.N)
                got = wl.phi_map_circle(system, z, (np.zeros(system.N), omega1), p)
                want = cell_integral_loop(system, z, omega1, p)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def _index0_seeds(system, z):
    profile = circle._cutoff_profile(system, z)
    return [circle._cutoff_state(system, z, p, *profile)[0]
            for p, zp in enumerate(system.zeros) if zp.index == 0]


def _assert_matches_svd(system, z, vs, us):
    pv, pu = small_projectors_svd(system, z)
    assert vs.shape[1] == us.shape[1] == round(np.trace(pv).real)
    assert np.max(np.abs(vs @ vs.conj().T - pv)) <= 1e-10
    assert np.max(np.abs(us @ us.conj().T - pu)) <= 1e-10


@pytest.mark.parametrize("name, zs", [
    ("exact2", [8.0, 16.0, complex(12.0, 1.5), 22.0]),
    ("tight2", [0.1, 1.0, 10.0, complex(16.0, -2.0), 22.0]),
    # at 16 + 0.5i the N = 512 residual stalls at rounding, 7e-9, above the
    # floor 100 eps ||d^*d|| = 1.8e-9
    ("exact4", [8.0, complex(12.0, 0.5), 16.0, complex(16.0, 0.5)]),
])
def test_small_subspaces_match_full_svd(name, zs, request):
    system = request.getfixturevalue(name)
    for z in map(complex, zs):
        _assert_matches_svd(system, z, *circle._small_subspaces(
            system, z, _index0_seeds(system, z)))


def test_small_count_is_not_the_zero_count(tight2):
    # at mu = 0.1 the tight form has two singular values with sigma^2 <= 1
    # (7.7e-4 and 0.998) for one index-0 zero, and phi projects onto both
    z = complex(0.1, 0.0)
    vs, us = circle._small_subspaces(tight2, z, _index0_seeds(tight2, z))
    assert tight2.counts[0] == 1 and vs.shape[1] == 2
    _assert_matches_svd(tight2, z, vs, us)


def test_small_subspaces_grow_until_the_count_is_certified(tight2, monkeypatch):
    # one column finds the smallest direction alone; the Cholesky factor
    # of d^*d - I + 2 V V^* then fails, and the block grows to find the
    # second one
    calls = []
    real = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(circle, "_SUBSPACE_GUARDS", 1)
    monkeypatch.setattr(np.linalg, "cholesky", counting)
    z = complex(0.1, 0.0)
    vs, us = circle._small_subspaces(tight2, z, [])
    assert len(calls) >= 2 and vs.shape[1] == 2
    _assert_matches_svd(tight2, z, vs, us)


def test_small_subspaces_raise_when_never_certified(tight2, monkeypatch):
    # with no guard columns the block of one seed never holds the second
    # small direction, so the count is never certified
    monkeypatch.setattr(circle, "_SUBSPACE_GUARDS", 0)
    monkeypatch.setattr(circle, "_SUBSPACE_STEPS", 6)
    z = complex(0.1, 0.0)
    with pytest.raises(NumericalError, match="not certified in 6"):
        circle._small_subspaces(tight2, z, _index0_seeds(tight2, z))


@pytest.mark.parametrize("name, mu", [("tight2", 0.1), ("exact4", 12.0)])
def test_phi_psi_matrix_matches_full_svd_projection(name, mu, request):
    system = request.getfixturevalue(name)
    z = complex(mu, 0.0)
    mat, _ = circle.phi_psi_matrix(system, z)
    pv, pu = small_projectors_svd(system, z)
    profile = circle._cutoff_profile(system, z)
    for p in range(len(system.zeros)):
        omega0, omega1 = circle._cutoff_state(system, z, p, *profile)
        proj = (pv @ omega0, pu @ omega1)
        for q in range(len(system.zeros)):
            want = wl.phi_map_circle(system, z, proj, q)
            assert abs(mat[q, p] - want) <= 1e-10


def test_phi_psi_matrix_normalizes_cutoff_once(exact4, monkeypatch):
    calls = []
    real = circle.cutoff_normalization

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(circle, "cutoff_normalization", counting)
    circle.phi_psi_matrix(exact4, complex(16.0, 0.0))
    assert len(calls) == 1


def test_zeta_cache_is_bounded_fifo(monkeypatch):
    # one delta_limit_report sweep: 3 strengths x 2 widths x the node count
    assert circle._ZETA_CACHE_SIZE >= 3 * 2 * len(zdist._kronrod(32)[0])
    monkeypatch.setattr(circle, "_ZETA_CACHE_SIZE", 3)
    zs = [complex(1.0, nu) for nu in range(8)]
    # the full payloads and the values-only spectra are bounded alike
    for method in ("zeta_data", "singular_values"):
        system = wl.CircleWittenSystem.from_standard_zeros(
            [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=8
        )
        for i, z in enumerate(zs):
            data = getattr(system, method)(z)
            assert getattr(system, method)(z) is data
            assert list(system._spectra) == zs[max(0, i - 2): i + 1]


def test_one_cache_holds_both_kinds_of_entry(monkeypatch):
    # values-only entries and full payloads share the bound; a payload
    # replaces the values-only entry of its parameter and moves to the end,
    # and a payload hit does not move
    monkeypatch.setattr(circle, "_ZETA_CACHE_SIZE", 3)
    system = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=8
    )
    z0, z1, z2, z3 = (complex(1.0, nu) for nu in range(4))
    system.singular_values(z0)
    system.zeta_data(z1)
    system.singular_values(z2)
    data = system.zeta_data(z0)
    assert list(system._spectra) == [z1, z2, z0]
    assert system.singular_values(z0) is data.sigma
    system.zeta_data(z1)
    system.singular_values(z3)
    assert list(system._spectra) == [z2, z0, z3]


# -- torus -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def torus_factors():
    sa = wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 0.3, 1), (np.pi, -0.3, 0)], r=0.35, N=16
    )
    sb = wl.CircleWittenSystem.from_standard_zeros(
        [(0.5, 0.25, 1), (0.5 + np.pi, -0.25, 0)], r=0.35, N=16
    )
    return sa, sb


def test_torus_separability(torus_factors):
    sa, sb = torus_factors
    z = complex(3.0, 0.0)
    cx = oracles.torus_tensor(sa, sb, z)
    fam = wl.eigendecompose(wl.assemble_laplacians(cx))
    la = np.sort(sa.zeta_data(z).sigma ** 2)
    lb = np.sort(sb.zeta_data(z).sigma ** 2)
    pair_sums = np.sort(np.add.outer(la, lb).ravel())
    got = np.sort(fam.eigenvalues[0])
    assert np.max(np.abs(got - pair_sums) / (1.0 + pair_sums)) < 1e-8


def test_torus_kunneth_betti(torus_factors):
    sa, sb = torus_factors
    cx = oracles.torus_tensor(sa, sb, 0.4)
    fam = wl.eigendecompose(wl.assemble_laplacians(cx))
    assert wl.betti_numbers(fam, warn_ambiguous=False) == (1, 2, 1)


def test_torus_zeta_tends_to_zero(torus_factors):
    sa, sb = torus_factors
    vals = [
        abs(circle.torus_zeta_exact(sa, sb, complex(mu, 0.0))[0])
        for mu in (4.0, 8.0)
    ]
    assert vals[1] < 0.02


def test_torus_requires_exact(tight2, torus_factors):
    sa, _ = torus_factors
    with pytest.raises(UnsupportedError):
        circle.torus_zeta_exact(sa, tight2, 1.0)


# -- sweeps -----------------------------------------------------------------------


def test_spectral_gap_report(tight2):
    rep = circle.spectral_gap_report(tight2, [5.0, 10.0, 20.0, 40.0])
    assert all(c == 1 for m, c in zip(rep.mu_values, rep.small_counts) if m >= 10)
    assert rep.slope_log_small < -0.1
    assert all(v >= 0.2 for v in rep.min_large_over_mu)


@pytest.mark.parametrize("mus", [[10.0], [10.0, 10.0]])
def test_gap_fits_no_slope_on_one_mu(tight2, mus):
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        rep = circle.spectral_gap_report(tight2, mus)
    assert np.isnan(rep.slope_log_small)
    assert rep.small_counts == (1,) * len(mus)


def test_gap_exact_small_is_kernel(exact2_small):
    rep = circle.spectral_gap_report(exact2_small, [6.0, 10.0])
    # exact case: the only small eigenvalues are numerically zero
    assert all(m < 1e-12 for m in rep.max_small)


def test_gap_leaves_out_topological_kernel(exact2_small, exact4):
    # the Novikov Betti number (1 per degree for exact forms) is left out of
    # max_small and the slope, not out of the count: an exact two-zero form
    # has no tunnelling state and fits no slope
    rep = circle.spectral_gap_report(exact2_small, [6.0, 10.0])
    assert rep.small_counts == (1, 1)
    assert rep.max_small == (0.0, 0.0)
    assert rep.slope_log_small == -np.inf
    rep = circle.spectral_gap_report(exact4, [5.0, 10.0])
    assert rep.small_counts == (2, 2)
    for mu, ms in zip(rep.mu_values, rep.max_small):
        sigma = exact4.singular_values(mu)
        assert ms == sigma[1] ** 2 > 1e3 * sigma[0] ** 2
