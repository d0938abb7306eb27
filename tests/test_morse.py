import importlib
from pathlib import Path

import numpy as np
import pytest

from wittenlab import morse
from wittenlab.errors import (
    InfeasibleError,
    NotAComplex,
    StateError,
    StructureError,
)
from wittenlab.morse import InstantonGraph

from oracles import brute_ranks, edge_matrix_loop, projection_law_pinv
from test_graph_arrays import BAD_EDGES, BAD_LINES, EDGES, TEXT, VERTICES

BENCH = Path(__file__).resolve().parents[1] / "bench"
DATA = Path(__file__).parent / "data"


def two_vertex_graph(w1=-0.45, w2=-2.2, s1=1, s2=-1):
    return InstantonGraph(
        [("p", 1), ("q", 0)], [("p", "q", s1, w1), ("p", "q", s2, w2)]
    )


# -- differential ---------------------------------------------------------------


def test_differential_cancels_when_signs_oppose():
    g = InstantonGraph(
        [("p", 1), ("q", 0)], [("p", "q", 1, -2.0), ("p", "q", -1, -2.0)]
    )
    cx = morse.build_differential(g, 0.7)
    assert cx.differentials[0][0, 0] == 0.0


def test_differential_unperturbed_reduces_to_signs():
    g = two_vertex_graph()
    cx = morse.build_differential(g, 0.0)
    assert cx.differentials[0][0, 0] == pytest.approx(1.0 - 1.0 + 0.0)
    g2 = two_vertex_graph(s2=1)
    cx2 = morse.build_differential(g2, 0.0)
    assert cx2.differentials[0][0, 0] == pytest.approx(2.0)


def test_exact_source_conjugation(exact_source_graph):
    g, levels = exact_source_graph
    z = complex(1.3, 0.8)
    cx0 = morse.build_differential(g, 0.0)
    cxz = morse.build_differential(g, z)
    # d_z = e^{-z h} d e^{z h} with h the vertex level
    for k in range(g.n):
        rows = g.by_degree[k + 1]
        cols = g.by_degree[k]
        conj = np.array(
            [
                [
                    np.exp(-z * levels[p]) * cx0.differentials[k][i, j]
                    * np.exp(z * levels[q])
                    for j, q in enumerate(cols)
                ]
                for i, p in enumerate(rows)
            ]
        )
        assert np.allclose(conj, cxz.differentials[k], atol=1e-13)


def test_square_zero_for_random_parameters(tensor_graph):
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        cx = morse.build_differential(tensor_graph, z)  # raises if d^2 != 0
        d0, d1 = cx.differentials
        assert np.linalg.norm(d1 @ d0, 2) <= cx.tol_complex


def test_square_nonzero_reported():
    g = InstantonGraph(
        [("r", 2), ("p", 1), ("q", 0)],
        [("r", "p", 1, -1.0), ("p", "q", 1, -1.0)],
    )
    with pytest.raises(NotAComplex):
        morse.build_differential(g, 0.5)


def test_graph_file_roundtrip(tmp_path, tensor_graph):
    path = tmp_path / "g.graph"
    tensor_graph.dump(path)
    g2 = InstantonGraph.load(path)
    assert g2.counts == tensor_graph.counts
    assert [
        (str(e.p), str(e.q), e.sign, e.weight) for e in g2.edges
    ] == [(str(e.p), str(e.q), e.sign, e.weight) for e in tensor_graph.edges]


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # inspected, never swallowed
        return exc
    return None


@pytest.mark.parametrize("require_negative", [True, False])
def test_graph_faults_carry_no_chained_context(require_negative):
    # a fault of the constructor or of loads is raised on its own, not while
    # another exception (a failed column conversion) is being handled
    faults = [_raised(InstantonGraph, VERTICES, EDGES[:2] + [bad] + EDGES[2:],
                      require_negative) for bad in BAD_EDGES]
    faults += [_raised(InstantonGraph.loads, "\n".join(TEXT[:3] + [bad] + TEXT[3:]),
                       require_negative) for bad in BAD_LINES]
    faults = [exc for exc in faults if exc is not None]
    assert {type(exc) for exc in faults} >= {StructureError, ValueError, TypeError}
    assert [exc for exc in faults if exc.__context__ is not None] == []


# -- rank machinery ---------------------------------------------------------------


def test_rank_sequence_nonexact_circle():
    prof = morse.rank_sequence((1, 1), (0, 0))
    assert prof.m == (1, 1)
    assert prof.m1 == (0, 1)
    assert prof.m2 == (1, 0)
    assert prof.supertrace_m == 0


def test_rank_sequence_exact_circle():
    prof = morse.rank_sequence((1, 1), (1, 1))
    assert prof.m == (0, 0)


def test_rank_sequence_infeasible():
    with pytest.raises(InfeasibleError):
        morse.rank_sequence((1, 1), (1, 0))  # Euler mismatch
    with pytest.raises(InfeasibleError):
        morse.rank_sequence((1, 2, 1), (2, 0, 2))  # negative m


def test_oriented_even_symmetry():
    # torus-like data: counts (1,2,1), betti (1,2,1) -> m = 0 trivially;
    # nonexact variant with m_k = m_{n-k}
    prof = morse.rank_sequence((2, 4, 2), (0, 0, 0))
    assert prof.m == (2, 4, 2)
    n = 2
    for k in range(n + 1):
        assert prof.m1[k] == prof.m2[n - k]


def test_hodge_matches_recursion(tight2_graph, tensor_graph):
    for g, z in ((tight2_graph, 12.0), (tensor_graph, complex(10.0, 3.0))):
        data = morse.hodge_ranks_numeric(g, z)
        prof = morse.rank_sequence(g.counts, data.kernel_dims)
        assert prof.m1[1:] == data.image_d_dims[1:]
        assert prof.m2[:-1] == data.image_delta_dims[:-1]


def test_hodge_matches_brute_force(tight2_graph, tensor_graph):
    for g, z in ((tight2_graph, 15.0), (tensor_graph, 8.0)):
        cx = morse.build_differential(g, z)
        kernels, ranks = brute_ranks(cx.differentials, cx.degrees)
        data = morse.hodge_ranks_numeric(g, z)
        assert data.kernel_dims == kernels


def test_projection_partition(tensor_graph, monkeypatch):
    # im d_0 and the coimage of d_1 must be orthogonal for the three Hodge
    # projections to partition degree 1; tilt V towards U, keeping each
    # basis orthonormal, so that only the cross Gram block is off
    svd_rank = morse._svd_rank
    images = []

    def tilted_coimage(mat):
        r, u, v = svd_rank(mat)
        if len(images) == 1:
            v, _ = np.linalg.qr(v + 0.1 * images[0][:, :1])
            assert np.linalg.norm(images[0].conj().T @ v) > 1e-3
        images.append(u)
        return r, u, v

    data = morse.hodge_ranks_numeric(tensor_graph, 7.0)
    assert data.image_d_dims[1] > 0 and data.image_delta_dims[1] > 0
    monkeypatch.setattr(morse, "_svd_rank", tilted_coimage)
    with pytest.raises(StateError, match="not idempotent in degree 1"):
        morse.hodge_ranks_numeric(tensor_graph, 7.0)


def test_betti_constant_in_z(tight2_graph, tensor_graph):
    for g in (tight2_graph, tensor_graph):
        dims = {
            morse.hodge_ranks_numeric(g, z).kernel_dims
            for z in (10.0, 14.0, complex(12.0, 5.0), complex(18.0, -3.0))
        }
        assert len(dims) == 1


def test_betti_conjugation_symmetry(tensor_graph):
    z = complex(11.0, 4.0)
    a = morse.hodge_ranks_numeric(tensor_graph, z).kernel_dims
    b = morse.hodge_ranks_numeric(tensor_graph, z.conjugate()).kernel_dims
    assert a == b


@pytest.mark.parametrize("mu", [46.2, 60.0, 120.0])
def test_ranks_of_an_exponentially_small_differential(mu):
    # d_mu = e^{-0.45 mu} - e^{-2.2 mu} falls below 1e-9 at mu = 46.05;
    # it is still a nonzero 1 x 1 differential, so nothing is harmonic
    g = InstantonGraph.load(DATA / "s1.graph")
    profile = morse.analyze_ranks(g, complex(mu, 0.0))
    assert profile.betti == (0, 0)
    assert profile.m1 == (0, 1)
    assert morse.z_invariants(g, profile.m1).small_limit == 0.45
    (window,) = morse.small_spectrum_window(g, complex(mu, 0.0))
    assert window.shape == (1,)


@pytest.mark.parametrize("mu", [60.0, 120.0])
def test_tensor_ranks_of_exponentially_small_differentials(tensor_graph, mu):
    assert morse.hodge_ranks_numeric(tensor_graph, mu).kernel_dims == (0, 0, 0)
    assert morse.analyze_ranks(tensor_graph, mu).betti == (0, 0, 0)


# -- tightness, leading part, windows ----------------------------------------------


def test_tightness_examples():
    g = InstantonGraph(
        [("p", 1), ("q", 0)], [("p", "q", 1, -3.0), ("p", "q", -1, -5.0)]
    )
    rep = morse.tightness_check(g)
    assert rep.vertex_cost["p"] == pytest.approx(3.0)
    assert rep.tight

    g2 = InstantonGraph(
        [("p1", 1), ("p2", 1), ("q", 0)],
        [("p1", "q", 1, -3.0), ("p2", "q", 1, -4.0)],
    )
    rep2 = morse.tightness_check(g2)
    assert not rep2.tight

    with pytest.raises(StructureError):
        morse.tightness_check(
            InstantonGraph([("p", 1), ("q", 0)], [], require_negative=False)
        )


def test_leading_complex_all_equal():
    g = InstantonGraph(
        [("p", 1), ("q", 0)], [("p", "q", 1, -2.0), ("p", "q", -1, -2.0)]
    )
    lead = morse.leading_complex(g)
    for z in (0.0, 1.5, complex(2.0, 1.0)):
        cx = morse.build_differential(g, z)
        shifted = morse.shifted_differential(g, z, 0, lead.a[0])
        assert np.allclose(shifted, lead.matrices[0])


def test_leading_complex_drops_subleading(tight2_graph):
    lead = morse.leading_complex(tight2_graph)
    assert lead.matrices[0].shape == (1, 1)
    assert lead.matrices[0][0, 0] == pytest.approx(1.0)  # only the -a1 edge



def test_leading_complex_rejects_patched_nonzero_square(tensor_graph, monkeypatch):
    morse.leading_complex(tensor_graph)  # the genuine leading part squares to zero
    edge_matrix = morse._edge_matrix

    def bent(graph, k, entry):
        mat = edge_matrix(graph, k, entry)
        if k == 1:
            mat[0, 0] += 1e-11  # d'_1 d'_0 = +-1e-11, above the 1e-12 bound
        return mat

    monkeypatch.setattr(morse, "_edge_matrix", bent)
    with pytest.raises(StructureError, match="does not square to zero"):
        morse.leading_complex(tensor_graph)

def test_leading_decay_slope(tight2_graph):
    slopes = morse.leading_decay_fit(tight2_graph, [2.0, 3.0, 4.0, 5.0])
    slope, norms = slopes[0]
    assert slope == pytest.approx(-(2.2 - 0.45), rel=1e-3)


def test_small_spectrum_window_single_edge():
    g = InstantonGraph([("p", 1), ("q", 0)], [("p", "q", 1, -1.3)])
    win = morse.small_spectrum_window(g, 9.0)
    assert np.allclose(win[0], [1.0])


def test_small_spectrum_window_band(tensor_graph):
    bands = {}
    for mu in (10.0, 20.0, 30.0, 40.0):
        wins = morse.small_spectrum_window(tensor_graph, complex(mu, 0.0))
        bands[mu] = [w.copy() for w in wins]
    for k in range(len(bands[10.0])):
        for branch in range(len(bands[10.0][k])):
            vals = [bands[mu][k][branch] for mu in (10.0, 20.0, 30.0, 40.0)]
            assert (max(vals) - min(vals)) / np.mean(vals) < 0.1


def test_window_requires_tight():
    g = InstantonGraph(
        [("p1", 1), ("p2", 1), ("q", 0)],
        [("p1", "q", 1, -3.0), ("p2", "q", 1, -4.0)],
    )
    with pytest.raises(StructureError):
        morse.small_spectrum_window(g, 5.0)


# -- invariants ---------------------------------------------------------------------


def test_z_invariants_substitution():
    # n = 1: -(-1)^1 * a_1 * m1_1 = 2.0
    lim = morse.z_invariants([2.0], (0, 1))
    assert lim.small_limit == pytest.approx(2.0)


def test_z_invariants_oriented_even_all_equal():
    # equal costs, oriented-even symmetric ranks: the small limit vanishes
    lim = morse.z_invariants([1.0, 1.0], (0, 2, 2))
    assert lim.small_limit == pytest.approx(-(-1.0 * 2 + 1.0 * 2))
    assert lim.small_limit == pytest.approx(0.0)


def test_z_invariants_reversed_costs():
    lim = morse.z_invariants([1.0, 3.0], (0, 1, 2))
    # reversal swaps the costs across the middle degree
    # (-1)^1 * a_2 * m1_1 + (-1)^2 * a_1 * m1_2 = -3 + 2
    assert lim.reversed_limit == pytest.approx(-1.0)


def test_z_invariants_requires_tight():
    g = InstantonGraph(
        [("p1", 1), ("p2", 1), ("q", 0)],
        [("p1", "q", 1, -3.0), ("p2", "q", 1, -4.0)],
    )
    with pytest.raises(StateError):
        morse.z_invariants(g, (0, 2))


def _insertion_supertrace(graph, z, insertion):
    """sum_k (-1)^k Tr(X_k d_z^+ P^1_k); pinv(d) already vanishes off the
    image, so d_z^+ P^1_k = pinv(d_{z,k-1})."""
    total = 0.0
    for k in range(1, graph.n + 1):
        d = edge_matrix_loop(graph, k - 1, lambda e: e.sign * np.exp(z * e.weight))
        x = edge_matrix_loop(graph, k - 1, lambda e: insertion(e, z))
        total += (-1) ** k * np.trace(x @ np.linalg.pinv(d, rcond=1e-13)).real
    return total


def test_z_invariants_limit_of_derivative_insertion(tight2_graph):
    # d_z = sum sign * exp(z * weight) is exponential in z, so the derivative
    # insertion (the eta-wedge of the zeta invariant) and the unit step
    # d_z - d_{z-1} have different limits: a_1 and e^{a_1} - 1
    a = morse.tightness_check(tight2_graph).index_costs
    m1 = morse.analyze_ranks(tight2_graph, 20.0).m1
    derivative = lambda e, z: e.sign * e.weight * np.exp(z * e.weight)
    unit_step = lambda e, z: e.sign * (
        np.exp(z * e.weight) - np.exp((z - 1.0) * e.weight)
    )
    unit_law = sum(
        (-1) ** k * (1.0 - np.exp(a[k - 1])) * m1[k] for k in range(1, len(a) + 1)
    )
    small = morse.z_invariants(tight2_graph, m1).small_limit
    assert small == pytest.approx(0.45)
    for mu in (8.0, 12.0):
        d_str = _insertion_supertrace(tight2_graph, mu, derivative)
        u_str = _insertion_supertrace(tight2_graph, mu, unit_step)
        assert d_str == pytest.approx(small, rel=1e-4)
        assert u_str == pytest.approx(unit_law, rel=1e-4)
        assert abs(u_str - small) > 0.1


# -- projection law -------------------------------------------------------------------


def test_projection_law_all_leading_exact():
    g = InstantonGraph(
        [("p", 1), ("q", 0)], [("p", "q", 1, -1.1)]
    )
    devs, rates = morse.projection_law_check(g, [3.0, 6.0])
    assert max(devs[1]) < 1e-12


def test_projection_law_decay(tight2_graph, tensor_graph):
    for g in (tight2_graph, tensor_graph):
        devs, rates = morse.projection_law_check(g, [2.0, 4.0, 6.0, 8.0])
        for k, vals in devs.items():
            assert vals[-1] < vals[0]
        assert all(r > 0 for r in rates.values())


def test_projection_law_nu_uniformity(tight2_graph):
    base, _ = morse.projection_law_check(tight2_graph, [4.0, 6.0])
    for nu in (5.0, 25.0):
        shifted, _ = morse.projection_law_check(tight2_graph, [4.0, 6.0], nu=nu)
        for k in base:
            assert max(shifted[k]) <= 2.0 * max(base[k]) + 1e-14



def test_projection_law_closed_form_on_tight2(tight2_graph):
    # one index-1 vertex, a leading edge of weight -a_1 and an edge of the
    # opposite sign lower by the gap g: the deviation is
    # e^{a_1} (A - B) / (1 - B) with A = e^{-g (mu - 1)} and B = e^{-g mu}
    mus = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
    lead, sub = sorted((e.weight for e in tight2_graph.edges), reverse=True)
    a1 = -lead
    gap = -(sub + a1)
    devs, _ = morse.projection_law_check(tight2_graph, mus)
    for mu, dev in zip(mus, devs[1]):
        b = np.exp(-gap * mu)
        want = np.exp(a1) * b * np.expm1(gap) / -np.expm1(-gap * mu)
        assert dev == pytest.approx(want, rel=1e-13, abs=0.0)


def _bench_tensor_graphs(seed, monkeypatch):
    """The graphs of the benchmark's tensor job in cycle 1 of ``seed``:
    tensor powers of tight rings of shapes (4, 2), (3, 3) and (8, 2)."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for _, kind, params in workloads.make_cycle("graphs", seed, 1):
        if kind == "tensor":
            return [workloads.build_tensor_graph(f) for f in params["graphs"]]


@pytest.mark.parametrize("nu", [0.0, 5.0])
def test_projection_law_matches_pinv_reference(nu, tight2_graph, tensor_graph,
                                               monkeypatch):
    # on tight2 the deviation is 1 - (1 - e^{-1.75(mu-1)}) / (1 - e^{-1.75 mu})
    # up to a factor, so past mu = 8 cancellation leaves the pinv reference
    # far from the exact value (1e-6 relative at mu = 14, against 50-digit
    # arithmetic); test_projection_law_closed_form_on_tight2 covers mu <= 14
    cases = [(tight2_graph, [2.0, 4.0, 6.0, 8.0]), (tensor_graph, [2.0, 4.0, 6.0])]
    for seed in (1, 2, 3):
        cases += [(g, [2.0, 4.0, 6.0]) for g in _bench_tensor_graphs(seed, monkeypatch)]
    assert len(cases) == 11
    for g, mus in cases:
        devs, rates = morse.projection_law_check(g, mus, nu)
        want, want_rates, want_ranks = projection_law_pinv(g, mus, nu)
        a = morse.tightness_check(g).index_costs
        for k in devs:
            assert devs[k] == pytest.approx(want[k], rel=1e-8, abs=0.0)
            assert rates[k] == pytest.approx(want_rates[k], rel=0.0, abs=1e-8)
            ranks = [morse._svd_rank(morse.shifted_differential(
                g, complex(mu, nu), k - 1, a[k - 1]))[0] for mu in mus]
            assert ranks == want_ranks[k]
            assert min(ranks) > 0


def test_projection_law_one_svd_and_one_norm_per_degree(monkeypatch):
    g = _bench_tensor_graphs(1, monkeypatch)[1]  # three levels
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, kwargs.get("ord", args[1] if len(args) > 1 else None)))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("svd", "pinv", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    mus = [2.0, 4.0, 6.0]
    morse.projection_law_check(g, mus)
    per_degree = len(mus) * g.n
    assert g.n == 3
    assert [name for name, _ in calls].count("pinv") == 0
    assert [name for name, _ in calls].count("svd") == per_degree
    assert [c for c in calls if c[0] == "norm"] == [("norm", 2)] * per_degree

# -- prescription equation ---------------------------------------------------------------


def test_prescribe_tau_identity_increment():
    # even dimension, equal boundary ranks: increment is linear
    val = morse.prescribe_increment(2, 1, 1, 3, 1, 0.7, 0.7)
    assert val == pytest.approx(0.7 * (3 - 1))


def test_prescribe_tau_baseline():
    assert morse.prescribe_tau(2, 1, 1, 2, 1, 0.4, 0.4) == (0.0, 0.0)


def test_prescribe_tau_forward_check():
    c0, cn = morse.prescribe_tau(2, 1, 1, 2, 1, 0.0, 5.0)
    assert cn == 0.0 and c0 > 0
    val = morse.prescribe_increment(2, 1, 1, 2, 1, c0, cn)
    assert val == pytest.approx(5.0, abs=1e-10)


def test_prescribe_tau_negative_target_even():
    c0, cn = morse.prescribe_tau(2, 1, 1, 2, 1, 0.0, -3.0)
    assert c0 == 0.0 and cn > 0
    val = morse.prescribe_increment(2, 1, 1, 2, 1, c0, cn)
    assert val == pytest.approx(-3.0, abs=1e-10)


def test_prescribe_tau_odd_floor():
    with pytest.raises(InfeasibleError):
        morse.prescribe_tau(3, 1, 1, 2, 1, 0.0, -1.0)
    c0, cn = morse.prescribe_tau(3, 1, 1, 2, 1, 0.0, 4.0)
    val = morse.prescribe_increment(3, 1, 1, 2, 1, c0, cn)
    assert val == pytest.approx(4.0, abs=1e-10)


def test_prescribe_tau_needs_positive_slope():
    # m1_1 + x0 = 0: no c0 moves the limit up
    with pytest.raises(InfeasibleError):
        morse.prescribe_tau(2, -2, 1, 2, 1, 0.0, 1.0)


def test_prescribe_increment_small_part_is_z_invariants_change():
    # x0 = xn = 0 leaves only the small part: the change of the limit when
    # the boundary costs move from a to a + c0 and a + cn
    m1 = {2: (0, 1, 2), 3: (0, 1, 1, 3)}
    for n in (2, 3):
        a, c0, cn = 1.0, 0.3, 0.7
        base = morse.z_invariants([a] * n, m1[n]).small_limit
        moved = [a] * n
        moved[0] += c0
        moved[-1] += cn
        change = morse.z_invariants(moved, m1[n]).small_limit - base
        val = morse.prescribe_increment(n, m1[n][1], m1[n][n], 0, 0, c0, cn)
        assert val == pytest.approx(change)


# -- graph tensor -------------------------------------------------------------------------


def test_graph_tensor_counts(tensor_graph):
    assert tensor_graph.counts == (1, 2, 1)


def test_graph_tensor_tight(tensor_graph):
    rep = morse.tightness_check(tensor_graph)
    assert rep.tight
    assert rep.index_costs == pytest.approx((0.45, 0.45))
