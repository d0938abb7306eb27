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
    a_mu, _ = cutoff_normalization(mu, r_hat)
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
    return GradedMatrixComplex([d0, d1], (n, 2 * n, n))


def torus_function_weight(sys_a, sys_b):
    """Per-degree multiplication by h_a + h_b as dense diagonal matrices on
    the :func:`torus_tensor` degrees."""
    h = np.add.outer(sys_a.h, sys_b.h).ravel()
    return [np.diag(h), np.diag(np.concatenate([h, h])), np.diag(h)]


def escape_costs_scan(graph, weights=None):
    """-max outgoing weight per positive-index vertex, from one scan of the
    edges that collects each vertex's outgoing weights (weights aligned with
    graph.edges)."""
    from wittenlab.errors import StructureError

    if weights is None:
        weights = [e.weight for e in graph.edges]
    out = {v: [] for v in graph.vertices}
    for e, w in zip(graph.edges, weights):
        out[e.p].append(w)
    costs = {}
    for v in graph.vertices:
        if graph.index_of[v] == 0:
            continue
        if not out[v]:
            raise StructureError(
                f"vertex {v!r} of positive index has no outgoing edge"
            )
        costs[v] = -max(out[v])
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


# -- per-edge reference loops for instanton graphs and the prescription -----
# Each walks ``graph.edges`` one GraphEdge at a time in edge order, with the
# float operations in the order the array code must reproduce bitwise.


def prescribe_loop(problem):
    """Shift by -C = -(A + a_1)/2, then the staged potential updates, one
    edge at a time.  Returns (c, potential, final weights, stages) with
    stages as (k, b, b_min)."""
    from wittenlab.errors import InvariantViolation

    graph, targets = problem.graph, problem.targets
    amp = max((abs(e.weight) for e in graph.edges), default=0.0)
    c = 0.5 * (amp + targets[0])
    current = []
    for e in graph.edges:
        w = e.weight - c
        if not (-targets[0] < w < 0.0):
            raise InvariantViolation(
                f"initialized weight {w} outside (-{targets[0]}, 0); constants bug"
            )
        current.append(w)
    return (c,) + stages_loop(graph, current, targets)


def stages_loop(graph, weights, targets):
    """Staged potential updates on ``weights`` (aligned with graph.edges);
    returns (potential, final weights, stages)."""
    from wittenlab.errors import InvariantViolation

    start = list(weights)
    current = list(weights)
    phi = {v: 0.0 for v in graph.vertices}
    costs = escape_costs_scan(graph, current)
    stages = []
    for k in range(1, graph.n + 1):
        a_k = float(targets[k - 1])
        b = {v: costs[v] for v in graph.by_degree[k]}
        for v, b_v in b.items():
            if b_v > a_k + 1e-9:
                raise InvariantViolation(
                    f"stage {k}: b_p = {b_v} exceeds target {a_k} at {v!r}",
                    stage=k,
                )
        b_min = min(b.values())
        for v in graph.by_degree[k]:
            phi[v] += a_k - b[v]
        for v in graph.vertices:
            if graph.index_of[v] > k:
                phi[v] += a_k - b_min
        for i, e in enumerate(graph.edges):
            current[i] = start[i] + phi[e.q] - phi[e.p]
        stages.append((k, b, b_min))
        costs = escape_costs_scan(graph, current)
        for v in graph.by_degree[k]:
            if abs(costs[v] - a_k) > 1e-9 * (1.0 + a_k):
                raise InvariantViolation(
                    f"stage {k} failed to set the level at {v!r}", stage=k
                )
    return phi, current, stages


def edge_mismatch_loop(raw, final):
    from itertools import zip_longest

    for e_raw, e_new in zip_longest(raw.edges, final.edges):
        if e_raw is None or e_new is None or (e_raw.p, e_raw.q) != (e_new.p, e_new.q):
            e = e_new if e_raw is None else e_raw
            return (e.p, e.q)
    return None


def certificate_loop(problem, result):
    """(exactness, negativity, per_index, costs_ok, counterexample) of the
    certificate, recomputed edge by edge from the claimed final graph."""
    graph, final = problem.graph, result.graph
    counterexample = edge_mismatch_loop(graph, final)
    exactness = counterexample is None
    if exactness:
        for e_raw, e_new in zip(graph.edges, final.edges):
            expected = e_raw.weight - result.c + result.potential[e_raw.q] \
                - result.potential[e_raw.p]
            if abs(e_new.weight - expected) > 1e-12 * (1.0 + abs(expected)):
                exactness = False
                counterexample = (e_raw.p, e_raw.q)
                break
    negativity = all(e.weight < 0 for e in final.edges)
    if not negativity and counterexample is None:
        counterexample = next((e.p, e.q) for e in final.edges if not e.weight < 0)
    costs = escape_costs_scan(final)
    per_index = {}
    costs_ok = True
    for k in range(1, graph.n + 1):
        target = problem.targets[k - 1]
        off = [
            v for v in graph.by_degree[k]
            if not abs(costs[v] - target) <= 1e-9 * (1.0 + target)
        ]
        per_index[k] = None if off else target
        if off:
            costs_ok = False
            if counterexample is None:
                counterexample = off[0]
    return exactness, negativity, per_index, costs_ok, counterexample


def consistency_loop(problem, result):
    """Cycle-sum exactness: a potential walked along a spanning forest
    (incidence lists in edge order, last-in first-out), then every edge
    checked against it."""
    bad = edge_mismatch_loop(problem.graph, result.graph)
    if bad is not None:
        return False, bad
    deltas = []
    incident = {v: [] for v in problem.graph.vertices}
    for e_raw, e_new in zip(problem.graph.edges, result.graph.edges):
        d = e_new.weight - e_raw.weight + result.c
        deltas.append((e_raw.p, e_raw.q, d))
        incident[e_raw.p].append((e_raw.q, d))
        incident[e_raw.q].append((e_raw.p, -d))
    psi = {}
    for root in problem.graph.vertices:
        if root in psi:
            continue
        psi[root] = 0.0
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for y, d in incident[x]:
                if y not in psi:
                    psi[y] = psi[x] + d
                    frontier.append(y)
    for p, q, d in deltas:
        if abs((psi[q] - psi[p]) - d) > 1e-12 * (1.0 + abs(d)):
            return False, (p, q)
    return True, None


def dumps_loop(graph):
    """The plain-text graph format, one vertex and one edge per line."""
    lines = [f"v {v} {graph.index_of[v]}\n" for v in graph.vertices]
    lines += [f"e {e.p} {e.q} {e.sign:+d} {e.weight!r}\n" for e in graph.edges]
    return "".join(lines)


def edge_matrix_loop(graph, k, entry):
    """Degree-k matrix (rows index k+1) with per-edge entries ``entry(e)``,
    accumulated over parallel edges in edge order."""
    rows = {v: i for i, v in enumerate(graph.by_degree[k + 1])}
    cols = {v: i for i, v in enumerate(graph.by_degree[k])}
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for e in graph.edges:
        if e.q in cols:
            mat[rows[e.p], cols[e.q]] += entry(e)
    return mat


def squares_loop(graph):
    """d^2 = 0 certificate by enumeration: signed two-step paths p -> q -> r
    grouped by endpoints (in order of first appearance), sorted by total
    weight, must cancel within each group of weights 1e-9 from its first.
    Returns None or (p, r, weight, signed count) of the first failure."""
    out = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.p].append(e)
    table = {}
    for e1 in graph.edges:
        for e2 in out[e1.q]:
            table.setdefault((e1.p, e2.q), []).append(
                (e1.weight + e2.weight, e1.sign * e2.sign)
            )
    for (p, r), items in table.items():
        items.sort(key=lambda t: t[0])
        i = 0
        while i < len(items):
            j, total = i, 0
            while j < len(items) and abs(items[j][0] - items[i][0]) <= 1e-9:
                total += items[j][1]
                j += 1
            if total != 0:
                return p, r, items[i][0], total
            i = j
    return None


def squares_sorted_loop(graph):
    """The square-zero certificate as one scan over every two-step path,
    sorted by endpoint pair (in order of first appearance) and weight: each
    group is a path and the later paths of its pair within 1e-9 of it.
    Raises NotAComplex on the first group that does not cancel.  Finite
    weights only: a path whose weight differs from itself (nan) joins no
    group, so the scan stops advancing there."""
    from wittenlab.errors import NotAComplex

    start, mid, nv = graph._out_start, graph._dst, len(graph.vertices)
    fan = np.diff(start)[mid]
    e1 = np.repeat(np.arange(len(mid)), fan)
    skip = np.repeat(start[mid] - np.cumsum(fan) + fan, fan)
    e2 = graph._out_edges[np.arange(len(e1)) + skip]
    keys, seen, pair = np.unique(graph._src[e1] * nv + mid[e2], return_index=True,
                                 return_inverse=True)
    weight = graph._weight[e1] + graph._weight[e2]
    order = np.lexsort((weight, np.argsort(np.argsort(seen))[pair]))
    keys, weights = keys[pair[order]].tolist(), weight[order].tolist()
    signs = (graph._sign[e1] * graph._sign[e2])[order].tolist()
    i = 0
    while i < len(weights):
        j = i
        total = 0
        while (
            j < len(weights)
            and keys[j] == keys[i]
            and abs(weights[j] - weights[i]) <= 1e-9
        ):
            total += signs[j]
            j += 1
        if total != 0:
            raise NotAComplex(
                f"two-step paths {graph.vertices[keys[i] // nv]!r} -> "
                f"{graph.vertices[keys[i] % nv]!r} do not cancel at weight "
                f"{weights[i]:.6g} (signed count {total})"
            )
        i = j


def graph_loop(vertices, edges, require_negative=True):
    """The instanton-graph constructor as one loop over the vertices and one
    over the edges, each edge checked in turn: unknown vertex, index drop,
    sign, weight.  Returns (vertex ids, indices, edge rows) with rows
    (source position, target position, sign, weight)."""
    from wittenlab.errors import StructureError

    index_of, order = {}, []
    for vid, idx in vertices:
        idx = int(idx)
        if vid in index_of:
            raise StructureError(f"duplicate vertex id {vid!r}")
        if idx < 0:
            raise StructureError("vertex index must be nonnegative")
        index_of[vid] = idx
        order.append(vid)
    position = {v: i for i, v in enumerate(order)}
    rows = []
    for p, q, sign, weight in edges:
        i, j = position.get(p), position.get(q)
        if i is None or j is None:
            raise StructureError(f"edge ({p!r}, {q!r}) references unknown vertex")
        if index_of[p] != index_of[q] + 1:
            raise StructureError(
                f"edge ({p!r}, {q!r}) must drop the index by exactly 1"
            )
        sign = int(sign)
        if sign not in (-1, 1):
            raise StructureError("edge sign must be +1 or -1")
        weight = float(weight)
        if require_negative and not weight < 0:
            raise StructureError(
                f"edge ({p!r}, {q!r}) has nonnegative weight {weight}"
            )
        rows.append((i, j, sign, weight))
    return tuple(order), [index_of[v] for v in order], rows


def loads_loop(text, require_negative=True):
    """The graph-text parser that converts each line's numbers as it reads
    the line, followed by :func:`graph_loop`."""
    from wittenlab.errors import DomainError

    vertices, edges = [], []
    lines = text.splitlines()
    for lineno, parts in enumerate(map(str.split, lines), 1):
        if len(parts) == 5 and parts[0] == "e":
            edges.append((parts[1], parts[2], int(parts[3]), float(parts[4])))
        elif len(parts) == 3 and parts[0] == "v":
            vertices.append((parts[1], int(parts[2])))
        elif parts and not parts[0].startswith("#"):
            raise DomainError(f"bad graph line {lineno}: {lines[lineno - 1]!r}")
    return graph_loop(vertices, edges, require_negative)


def projection_law_pinv(graph, mu_values, nu=0.0):
    """Projection-law deviations with P^1 from a full SVD and the inverse
    from ``pinv``, their fitted decay rates, and the numeric ranks:
    ({k: [deviation per mu]}, {k: rate}, {k: [rank per mu]})."""
    from wittenlab.errors import StructureError
    from wittenlab.morse import shifted_differential, tightness_check
    from wittenlab.spectral import kernel_threshold

    report = tightness_check(graph)
    if not report.tight:
        raise StructureError("projection law requires a tight graph")
    devs = {k: [] for k in range(1, graph.n + 1)}
    ranks = {k: [] for k in range(1, graph.n + 1)}
    for mu in mu_values:
        z = complex(mu, nu)
        for k in range(1, graph.n + 1):
            ak = report.index_costs[k - 1]
            sz = shifted_differential(graph, z, k - 1, ak)
            szm1 = shifted_differential(graph, z - 1.0, k - 1, ak)
            if sz.size == 0:
                devs[k].append(0.0)
                ranks[k].append(0)
                continue
            u, s, _ = np.linalg.svd(sz)
            rank = int(np.count_nonzero(s > kernel_threshold(s[0])))
            ranks[k].append(rank)
            if rank == 0:
                devs[k].append(0.0)
                continue
            u = u[:, :rank]
            p1 = u @ u.conj().T
            inv = np.linalg.pinv(sz, rcond=1e-13) @ p1
            # szm1 = e^{a_k(z-1)} d_{z-1} and inv = (e^{a_k z} d_z)^{-1} P1,
            # so e^{a_k} szm1 inv = d_{z-1} d_z^{-1} P1.
            op = np.exp(ak) * (szm1 @ inv)
            devs[k].append(
                float(np.linalg.norm(op - np.exp(ak) * p1, 2))
            )
    rates = {}
    mu_arr = np.asarray(mu_values, float)
    for k, vals in devs.items():
        arr = np.asarray(vals)
        if np.all(arr > 1e-300):
            rates[k] = float(-np.polyfit(mu_arr, np.log(arr), 1)[0])
        else:
            rates[k] = np.inf
    return devs, rates, ranks
