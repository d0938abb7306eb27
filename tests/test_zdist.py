import re

import numpy as np
import pytest

import wittenlab as wl
from wittenlab import zdist
from wittenlab.errors import ConvergenceError, DomainError

from oracles import pairing_gl129


@pytest.fixture(scope="module")
def gaussian():
    return zdist.GaussianTestFunction(1.0)


def test_gaussian_transform_consistency(gaussian):
    # f(0) equals the normalized transform integral
    nodes = np.linspace(-gaussian.truncation_radius, gaussian.truncation_radius, 4001)
    val = np.trapezoid(gaussian.hat(nodes), nodes) / (2 * np.pi)
    assert val == pytest.approx(gaussian.at_zero, abs=1e-10)


def test_tail_bound_matches_scipy_erfc():
    # math.erfc against scipy.special.erfc over sigma * radius / sqrt(2) in
    # [0, 6.5], which holds the pairing's own argument 8 / sqrt(2); deeper
    # in the tail the two functions drift apart by up to 6e-14
    from scipy.special import erfc

    worst = 0.0
    for sigma in (0.25, 0.5, 1.0, 2.0, 3.0):
        g = zdist.GaussianTestFunction(sigma, amplitude=1.7)
        radii = [g.truncation_radius, *np.linspace(0.0, 9.0, 46) / sigma]
        for radius in radii:
            ref = 1.7 * erfc(sigma * radius / np.sqrt(2.0))
            worst = max(worst, abs(g.tail_bound(radius) - ref) / ref)
    assert worst <= 1e-14


def test_gaussian_validation():
    with pytest.raises(DomainError):
        zdist.GaussianTestFunction(0.0)


def test_kronrod_rule_exact_to_degree_97():
    x, wk, wg = zdist._kronrod(32)
    assert len(x) == 65
    moments = np.polynomial.legendre.legvander(x, 98).T @ wk
    assert moments[0] == pytest.approx(2.0, abs=1e-14)
    assert np.max(np.abs(moments[1:98])) < 1e-14
    assert abs(moments[98]) > 1e-6  # degree 98 is the first one missed
    xg, wg_ref = np.polynomial.legendre.leggauss(32)
    np.testing.assert_allclose(x[1::2], xg, rtol=0, atol=1e-15)
    np.testing.assert_allclose(wg, wg_ref, rtol=0, atol=1e-15)
    assert np.all(wk > 0)


def test_kronrod_15_matches_quadpack():
    # QUADPACK's qk15 abscissa and weight of the outermost Kronrod node
    x, wk, wg = zdist._kronrod(7)
    assert x[-1] == pytest.approx(0.991455371120812639206854697526329, abs=1e-15)
    assert wk[-1] == pytest.approx(0.022935322010529224963732008058970, abs=1e-15)
    assert wg[-1] == pytest.approx(0.129484966168869693270611432679082, abs=1e-15)


@pytest.mark.parametrize("mu", [10.0, 30.0])
@pytest.mark.parametrize("name", ["exact2", "tight2"])
def test_pairing_matches_gl129_and_is_certified(name, mu, request):
    system = request.getfixturevalue(name)
    specs = [zdist.GaussianTestFunction(1.0), zdist.GaussianTestFunction(0.5)]
    for spec, oracle in zip(specs, pairing_gl129(system, mu, specs)):
        res = zdist.pair_outer_first(system, mu, spec)
        assert res.node_count == 65
        assert abs(res.value - oracle) <= 1e-9 * abs(oracle)
        x, wk, _ = zdist._kronrod(32)
        nodes = spec.truncation_radius * x
        zeta = np.array(
            [wl.zeta_invariant(system, complex(mu, nu)).value for nu in nodes]
        )
        mass = spec.truncation_radius * (wk @ np.abs(spec.hat(nodes) * zeta))
        assert res.quadrature_error <= 1e-9 * mass / (2.0 * np.pi)


class WideGaussian(zdist.GaussianTestFunction):
    """On twice the radius the 32-point Gauss rule misses the peak."""

    @property
    def truncation_radius(self):
        return 16.0 / self.sigma


def test_unresolved_rule_raises(exact2_small):
    with pytest.raises(ConvergenceError) as info:
        zdist.pair_outer_first(exact2_small, 10.0, WideGaussian(1.0))
    assert info.value.data > 1e-6


def test_unresolved_rule_message_names_the_bound(exact2_small):
    # the estimate is checked against 1e-9 of the integrand mass, both on
    # the 1/(2 pi) scale of the pairing, and the message prints all three
    with pytest.raises(ConvergenceError) as info:
        zdist.pair_outer_first(exact2_small, 10.0, WideGaussian(1.0))
    match = re.fullmatch(
        r"frequency quadrature estimate (\S+) exceeds the bound (\S+), "
        r"1e-09 of the integrand mass (\S+), at mu=10", str(info.value))
    error, bound, mass = map(float, match.groups())
    assert error == float(f"{info.value.data:.3e}") > bound
    assert bound == pytest.approx(1e-9 * mass, rel=2e-3)


@pytest.mark.parametrize("mus", [[10.0], [10.0, 10.0]])
def test_delta_limit_report_needs_two_strengths(mus, exact2_small, monkeypatch):
    # the 1/mu fit is refused before any pairing runs
    def unreachable(*args):
        raise AssertionError("pairing reached")

    monkeypatch.setattr(zdist, "pair_outer_first", unreachable)
    with pytest.raises(DomainError, match="two distinct strengths"):
        zdist.delta_limit_report(exact2_small, mus, [zdist.GaussianTestFunction(1.0)], 0.0)


def test_zero_test_function(exact2):
    spec = zdist.GaussianTestFunction(1.0, amplitude=0.0)
    res = zdist.pair_outer_first(exact2, 12.0, spec)
    assert abs(res.value) < 1e-14


def test_orders_agree_exact(exact2, gaussian):
    inner = zdist.pair_inner_first(exact2, 20.0, gaussian)
    outer = zdist.pair_outer_first(exact2, 20.0, gaussian)
    assert abs(inner.value - outer.value) <= 1e-6 * abs(outer.value)


def test_orders_agree_tight(tight2, gaussian):
    inner = zdist.pair_inner_first(tight2, 20.0, gaussian)
    outer = zdist.pair_outer_first(tight2, 20.0, gaussian)
    assert abs(inner.value - outer.value) <= 1e-6 * abs(outer.value)


def test_realness(exact2, gaussian):
    res = zdist.pair_outer_first(exact2, 15.0, gaussian)
    assert abs(res.value.imag) < 1e-10 * (1 + abs(res.value.real))


def test_truncation_bound(tight2):
    wide = zdist.GaussianTestFunction(1.0)
    res_wide = zdist.pair_outer_first(tight2, 15.0, wide)
    # halving the radius changes the value by less than the recorded bound

    class Narrow(zdist.GaussianTestFunction):
        @property
        def truncation_radius(self):
            return 4.0 / self.sigma

    narrow = Narrow(1.0)
    res_narrow = zdist.pair_outer_first(tight2, 15.0, narrow)
    bound = narrow.tail_bound(narrow.truncation_radius) * max(
        abs(res_wide.value), 1.0
    )
    assert abs(res_wide.value - res_narrow.value) <= bound + 1e-9


def test_exact_limit_value(exact2, gaussian):
    target = sum(
        (-1.0) ** z.index * exact2.h_at(z.position) for z in exact2.zeros
    )
    res = zdist.pair_outer_first(exact2, 30.0, gaussian)
    assert abs(res.value - target * gaussian.at_zero) <= 0.02 * abs(target)


def test_monotone_approach(exact2, tight2, gaussian):
    # exact fixture: the pairing drifts to the limit like 1/mu
    target = wl.mathai_quillen_1d(exact2).value
    devs = [
        abs(zdist.pair_outer_first(exact2, mu, gaussian).value - target)
        for mu in (10.0, 20.0, 30.0)
    ]
    assert devs[2] < devs[1] < devs[0]
    # tight fixture: already converged at these strengths; the deviation
    # from the observed limit stays at the lattice-residual scale
    tight_target = (
        wl.instanton_data_circle(tight2).a1
        + wl.mathai_quillen_1d(tight2).value
    )
    for mu in (10.0, 30.0):
        dev = abs(zdist.pair_outer_first(tight2, mu, gaussian).value - tight_target)
        assert dev < 5e-3 * abs(tight_target)


def test_delta_limit_report(tight2):
    specs = [zdist.GaussianTestFunction(1.0), zdist.GaussianTestFunction(0.5)]
    target = (
        wl.instanton_data_circle(tight2).a1
        + wl.mathai_quillen_1d(tight2).value
    )
    rep = zdist.delta_limit_report(tight2, [10.0, 20.0, 30.0], specs, target)
    assert len(rep.rows) == 6
    sigmas = sorted(rep.extrapolated)
    est = [rep.extrapolated[s] for s in sigmas]
    # the two test functions extrapolate to the same limit
    assert abs(est[0] - est[1]) <= 5e-3 * abs(target)
    assert abs(est[0] - target) <= 0.02 * abs(target)
    assert len(rep.csv_rows()) == 6
