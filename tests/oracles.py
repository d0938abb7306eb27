"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own code paths: brute-force
enumeration, quadrature, finite differences, and plain matrix ranks.
"""

import warnings

import numpy as np
from scipy import integrate
from scipy.special import gamma


def enumerate_model_values(n, k, degree, mu, max_quanta):
    """Dumb enumeration of mu * sum(1 + 2u_j + eps_j v_j) over all sign
    vectors with the required count of +1 entries."""
    from itertools import product

    eps = [-1 if j < k else 1 for j in range(n)]
    values = []
    for v in product((-1, 1), repeat=n):
        if sum(1 for x in v if x == 1) != degree:
            continue
        for u in product(range(max_quanta + 1), repeat=n):
            values.append(mu * sum(1 + 2 * u[j] + eps[j] * v[j] for j in range(n)))
    return sorted(values)


def mellin_zeta(lam, s, tmax=200.0):
    """(1/Gamma(s)) integral of t^{s-1} e^{-lam t} over (0, infinity)."""
    val, _ = integrate.quad(
        lambda t: t ** (s - 1.0) * np.exp(-lam * t), 0.0, tmax, limit=400
    )
    return val / gamma(s)


def heat_trace_mellin(eigenvalues, signs, s, tmax=200.0):
    """Mellin transform of the graded heat trace over a positive spectrum."""
    eig = np.asarray(eigenvalues, dtype=float)

    def f(t):
        return t ** (s - 1.0) * np.sum(signs * np.exp(-eig * t))

    val, _ = integrate.quad(f, 0.0, tmax, limit=400)
    return val / gamma(s)


def gaussian_norm_quadrature(n, mu):
    """L^2 norm of (mu/pi)^{n/4} e^{-mu |x|^2/2} by 1d quadrature per axis."""
    one, _ = integrate.quad(
        lambda x: np.sqrt(mu / np.pi) * np.exp(-mu * x * x), -np.inf, np.inf
    )
    return one ** (n / 2.0)


def brute_ranks(matrices, degrees):
    """Kernel / image dimensions of a graded differential via matrix_rank."""
    ranks = []
    for d in matrices:
        ranks.append(0 if d.size == 0 else int(np.linalg.matrix_rank(d)))
    kernels = []
    for k, nk in enumerate(degrees):
        r_in = ranks[k - 1] if k >= 1 else 0
        r_out = ranks[k] if k < len(ranks) else 0
        kernels.append(nk - r_in - r_out)
    return tuple(kernels), tuple(ranks)


def arc_weight_quadrature(system, a, b):
    """Integral of the one-form coefficient over [a, b] by adaptive
    quadrature on the trigonometric interpolant."""
    from wittenlab.circle import _eval_series, _fourier_coeffs

    coeffs = _fourier_coeffs(system._dense)

    def f(t):
        return float(np.real(_eval_series(coeffs, t))[0])

    val, _ = integrate.quad(f, a, b, limit=400)
    return val


def _tight_quad(f, a, b):
    """Adaptive quadrature at the tightest tolerances double precision allows
    (scipy warns that they cannot be certified; the value is still the
    reference)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-15, limit=200)
    return val


def smooth_step_moment_quadrature():
    """Integral of u S(u) over [0, 1] for the library's smooth step S."""
    from wittenlab.smoothfn import smooth_step

    return _tight_quad(lambda u: u * float(smooth_step(u)), 0.0, 1.0)


def arc_shape_masses_quadrature(shape):
    """(cap fade-out mass, plateau mass) of an arc shape between its caps."""
    lo, hi = shape.a + shape.r, shape.b - shape.r
    return (
        _tight_quad(lambda x: float(shape._base_mid(x)), lo, hi),
        _tight_quad(lambda x: float(shape._plateau(x)), lo, hi),
    )


def cell_integral_loop(system, z, omega1, p_idx):
    """Integral over the unstable cell of an index-1 zero with one
    ``system.primitive`` evaluation per grid point."""
    from wittenlab.circle import TWO_PI, _cell_bounds

    p = system.zeros[p_idx].position
    t_prev, t_next = _cell_bounds(system, p_idx)
    total = 0.0 + 0.0j
    for shift in (-TWO_PI, 0.0, TWO_PI):
        for j, theta in enumerate(system.theta):
            t = theta + shift
            if t_prev < t < t_next:
                total += np.exp(complex(z) * system.primitive(p, t)) * omega1[j]
    return total * (TWO_PI / system.N)


def cutoff_state_loop(system, z, p_idx):
    """Cutoff ground state of one zero with one ``system.primitive``
    evaluation per grid point of its support."""
    from wittenlab.model import cutoff_normalization, default_cutoff

    mu, nu = complex(z).real, complex(z).imag
    r_hat = 0.5 * system.r
    rho = default_cutoff(r_hat)
    a_mu, _ = cutoff_normalization(mu, r_hat, rho, n=1)
    normalizer = (mu / np.pi) ** 0.25 * a_mu
    p = system.zeros[p_idx].position
    vals = np.zeros(system.N, dtype=complex)
    for j, theta in enumerate(system.theta):
        x = (theta - p + np.pi) % (2.0 * np.pi) - np.pi
        if abs(x) <= 2.0 * r_hat:
            h_rel = system.primitive(p, p + x)
            vals[j] = (
                (mu / np.pi) ** 0.25 * float(rho(np.array([x]))[0]) / normalizer
                * np.exp(-1j * nu * h_rel - 0.5 * mu * x * x)
            )
    return vals


def torus_tensor(sys_a, sys_b, z):
    """Kronecker product complex of two circle systems, degrees 0..2, of
    sizes (N^2, 2 N^2, N^2) for equal grids; the graded sign rule makes the
    square vanish identically."""
    from wittenlab.spectral import GradedMatrixComplex

    z = complex(z)
    da = sys_a.differential(z)
    db = sys_b.differential(z)
    ia = np.eye(sys_a.N)
    ib = np.eye(sys_b.N)
    d0 = np.vstack([np.kron(da, ib), np.kron(ia, db)])
    d1 = np.hstack([-np.kron(ia, db), np.kron(da, ib)])
    n = sys_a.N * sys_b.N
    return GradedMatrixComplex([d0, d1], (n, 2 * n, n), label=f"torus z={z}")


def torus_function_weight(sys_a, sys_b):
    """Per-degree multiplication by h_a + h_b as dense diagonal matrices on
    the :func:`torus_tensor` degrees."""
    h = np.add.outer(sys_a.h, sys_b.h).ravel()
    return [np.diag(h), np.diag(np.concatenate([h, h])), np.diag(h)]


def escape_costs_scan(graph, weights=None):
    """-max outgoing weight per positive-index vertex, scanning every edge
    once per vertex (weights aligned with graph.edges)."""
    if weights is None:
        weights = [e.weight for e in graph.edges]
    costs = {}
    for v in graph.vertices:
        if graph.index_of[v] == 0:
            continue
        costs[v] = -max(w for e, w in zip(graph.edges, weights) if e.p == v)
    return costs


def pairing_gl129(system, mu, specs):
    """Frequency quadrature of the zeta invariant against each Gaussian test
    function in ``specs``, all on one set of 129 Gauss-Legendre nodes over
    the widest truncation radius; one value per test function."""
    from wittenlab.circle import zeta_invariant

    radius = max(s.truncation_radius for s in specs)
    x, w = np.polynomial.legendre.leggauss(129)
    nodes, weights = radius * x, radius * w
    zeta = np.array([zeta_invariant(system, complex(mu, nu)).value for nu in nodes])
    return [weights @ (s.hat(nodes) * zeta) / (2.0 * np.pi) for s in specs]
