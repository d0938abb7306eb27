"""Array-backed instanton graphs against the per-edge reference loops in
``oracles``: the same floats bit for bit (compared through ``repr`` or raw
bytes), the same exceptions and the same counterexamples, on seeded random
problems, a wide problem of about 7k edges and the tensor fixtures; the
column validator of the constructor and ``loads`` against the edge-by-edge
constructor and the line-by-line parser, on tables of malformed input."""

import re

import numpy as np
import pytest

import oracles
from wittenlab import morse
from wittenlab import weight_prescription as wp
from wittenlab.errors import (
    DomainError,
    InvariantViolation,
    NotAComplex,
    StateError,
    StructureError,
)
from wittenlab.morse import InstantonGraph


def wide_problem(seed, levels=5, width=58):
    """Layered raw problem like ``random_feasible_problem`` with wide levels
    (about 7k edges at the defaults) and targets feasible by its stage
    bound M_k <= 2^(k-1) (A + C)."""
    rng = np.random.default_rng(seed)
    vertices = [(f"v{k}_{i}", k) for k in range(levels) for i in range(width)]
    amp = float(rng.uniform(0.2, 2.0))
    edges = []
    for k in range(1, levels):
        for i in range(width):
            chosen = {int(rng.integers(0, width))}
            chosen.update(j for j in range(width) if rng.random() < 0.4)
            for j in sorted(chosen):
                for _ in range(1 + int(rng.random() < 0.25)):
                    sign = -1 if rng.random() < 0.5 else 1
                    edges.append((f"v{k}_{i}", f"v{k - 1}_{j}", sign,
                                  float(rng.uniform(-amp, amp))))
    graph = InstantonGraph(vertices, edges, require_negative=False)
    a = max(abs(e[3]) for e in edges)
    a1 = 3.0 * a + float(rng.uniform(0.5, 2.0))
    bound = a + 0.5 * (a + a1)
    targets = [a1]
    for k in range(2, levels):
        targets.append(max(targets[-1], 1.05 * bound * 2.0 ** (k - 1)) + 0.5)
    return wp.PrescriptionProblem(graph, targets)


def _problems():
    rng = np.random.default_rng(2031)
    return [wp.random_feasible_problem(rng) for _ in range(25)] + [wide_problem(7)]


PROBLEMS = _problems()


@pytest.mark.parametrize("prob", PROBLEMS)
def test_escape_costs_bitwise(prob):
    g = prob.graph
    assert repr(g.escape_costs()) == repr(oracles.escape_costs_scan(g))
    weights = np.random.default_rng(len(g.edges)).normal(size=len(g.edges))
    reweighted = g.reweighted(weights, require_negative=False)
    assert repr(reweighted.escape_costs()) == repr(
        oracles.escape_costs_scan(g, weights.tolist())
    )


def _table(graph):
    """Vertex ids, indices and edge rows (source position, target position,
    sign, weight) of ``graph``, in the form of ``oracles.graph_loop``."""
    return graph.vertices, graph._index.tolist(), list(zip(
        graph._src.tolist(), graph._dst.tolist(), graph._sign.tolist(),
        graph._weight.tolist()))


@pytest.mark.parametrize("prob", PROBLEMS)
def test_prescription_bitwise(prob):
    res = wp.prescribe(prob)
    c, phi, final, stages = oracles.prescribe_loop(prob)
    assert repr(res.c) == repr(c)
    assert repr(res.potential) == repr(phi)
    assert repr([e.weight for e in res.graph.edges]) == repr(final)
    assert repr([(s.k, s.b, s.b_min) for s in res.stages]) == repr(stages)
    assert res.graph.dumps() == oracles.dumps_loop(res.graph)
    g = prob.graph
    vertices = [(v, g.index_of[v]) for v in g.vertices]
    rows = [(e.p, e.q, e.sign, e.weight) for e in g.edges]
    assert repr(_table(InstantonGraph(vertices, rows, require_negative=False))) == repr(
        oracles.graph_loop(vertices, rows, require_negative=False))
    for graph, negative in ((g, False), (res.graph, True)):
        text = graph.dumps()
        assert repr(_table(InstantonGraph.loads(text, negative))) == repr(
            oracles.loads_loop(text, negative))


def _report(cert):
    return (cert.exactness, cert.negativity, cert.per_index_max, cert.costs_ok,
            cert.counterexample)


def _tampered(prob, res, graph):
    return wp.PrescriptionResult(prob, res.c, res.potential, graph, res.stages)


def _edited(graph, edit, i):
    """``graph`` with edge ``i`` deleted, moved to end at another vertex of
    its head's index, or with its weight moved by +0.1; None when the edge
    has nowhere to move."""
    edges = [(e.p, e.q, e.sign, e.weight) for e in graph.edges]
    p, q, sign, w = edges[i]
    if edit == "deleted":
        del edges[i]
    elif edit == "swapped":
        others = [v for v in graph.by_degree[graph.index_of[q]] if v != q]
        if not others:
            return None
        edges[i] = (p, others[0], sign, w)
    else:
        edges[i] = (p, q, sign, w + 0.1)
    return InstantonGraph([(v, graph.index_of[v]) for v in graph.vertices], edges,
                          require_negative=False)


def _outcome(fn, *args):
    """``fn(*args)``, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


@pytest.mark.parametrize("prob", PROBLEMS[:8] + PROBLEMS[-1:])
def test_certificates_bitwise_and_tampering_caught(prob):
    res = wp.prescribe(prob)
    assert _report(wp.verify_prescription(prob, res)) == oracles.certificate_loop(prob, res)
    assert wp.potential_consistency(prob, res) == oracles.consistency_loop(prob, res) == (True, None)
    rng = np.random.default_rng(len(prob.graph.edges))
    for edit in ("deleted", "swapped", "moved"):
        for i in (0, int(rng.integers(0, len(prob.graph.edges))), len(prob.graph.edges) - 1):
            graph = _edited(res.graph, edit, i)
            if graph is None:
                continue
            bad = _tampered(prob, res, graph)
            cert = _outcome(lambda: _report(wp.verify_prescription(prob, bad)))
            assert cert == _outcome(oracles.certificate_loop, prob, bad)
            consistent = wp.potential_consistency(prob, bad)
            assert consistent == oracles.consistency_loop(prob, bad)
            certified = isinstance(cert[0], bool) and cert[0] and cert[1] and cert[3]
            assert not (certified and consistent[0])


def test_missing_potential_raises_like_the_loop():
    prob = PROBLEMS[0]
    res = wp.prescribe(prob)
    e = prob.graph.edges[len(prob.graph.edges) // 2]
    potential = {v: x for v, x in res.potential.items() if v != e.q}
    bad = wp.PrescriptionResult(prob, res.c, potential, res.graph, res.stages)
    with pytest.raises(KeyError) as loop:
        oracles.certificate_loop(prob, bad)
    with pytest.raises(KeyError) as arrays:
        wp.verify_prescription(prob, bad)
    assert arrays.value.args == loop.value.args


def test_dumps_loads_round_trip_bitwise():
    final = wp.prescribe(PROBLEMS[-1]).graph
    assert 6000 < len(final.edges) < 8000  # the benchmark's problem size
    text = final.dumps()
    assert text == oracles.dumps_loop(final)
    again = InstantonGraph.loads(text)
    assert again.dumps() == text
    assert again.edges == final.edges
    assert repr(_table(again)) == repr(oracles.loads_loop(text))
    for name in ("_index", "_src", "_dst", "_sign", "_weight", "_out_edges", "_out_start"):
        a, b = getattr(again, name), getattr(final, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _tensor_fixtures(tensor_graph, tight2_graph, exact_source_graph):
    ring = InstantonGraph(
        [("p0", 1), ("p1", 1), ("q0", 0), ("q1", 0)],
        [("p0", "q0", 1, -0.4), ("p0", "q1", -1, -1.3),
         ("p1", "q1", 1, -0.4), ("p1", "q0", -1, -2.1)],
    )
    cube = morse.graph_tensor(morse.graph_tensor(ring, ring), ring)
    return (tensor_graph, tight2_graph, exact_source_graph[0], cube)


def test_edge_matrices_bitwise(tensor_graph, tight2_graph, exact_source_graph):
    for g in _tensor_fixtures(tensor_graph, tight2_graph, exact_source_graph):
        for z in (complex(3.0, 0.0), complex(-2.5, 1.7), complex(12.0, -4.0)):
            cx = morse.build_differential(g, z)
            for k in range(g.n):
                want = oracles.edge_matrix_loop(
                    g, k, lambda e: e.sign * np.exp(z * e.weight)
                )
                assert cx.differentials[k].tobytes() == want.tobytes()
                a = 0.4
                shifted = morse.shifted_differential(g, z, k, a)
                want = oracles.edge_matrix_loop(
                    g, k, lambda e: e.sign * np.exp(z * (e.weight + a))
                )
                assert shifted.tobytes() == want.tobytes()
        assert oracles.squares_loop(g) is None


def test_tensor_graph_matches_edgewise_product(tensor_graph):
    g1 = InstantonGraph([("p", 1), ("q", 0)],
                        [("p", "q", 1, -0.45), ("p", "q", -1, -2.2)])
    g2 = InstantonGraph([("P", 1), ("Q", 0)],
                        [("P", "Q", 1, -0.45), ("P", "Q", -1, -1.7)])
    edges = [(f"{e.p}*{vb}", f"{e.q}*{vb}", e.sign, e.weight)
             for e in g1.edges for vb in g2.vertices]
    edges += [(f"{va}*{e.p}", f"{va}*{e.q}", (-1) ** g1.index_of[va] * e.sign, e.weight)
              for va in g1.vertices for e in g2.edges]
    assert tensor_graph.edges == InstantonGraph(
        [(f"{va}*{vb}", g1.index_of[va] + g2.index_of[vb])
         for va in g1.vertices for vb in g2.vertices], edges
    ).edges


# -- exceptions: same class, message and first offender --------------------


def test_reweighted_nonnegative_weight_message():
    g = PROBLEMS[0].graph
    weights = [-1.0] * len(g.edges)
    weights[3] = 0.5
    weights[5] = 0.0
    e = g.edges[3]
    with pytest.raises(StructureError) as loop:
        InstantonGraph([(v, g.index_of[v]) for v in g.vertices],
                       [(x.p, x.q, x.sign, w) for x, w in zip(g.edges, weights)])
    with pytest.raises(StructureError) as arrays:
        g.reweighted(weights)
    assert str(arrays.value) == str(loop.value) == (
        f"edge ({e.p!r}, {e.q!r}) has nonnegative weight 0.5"
    )
    with pytest.raises(StructureError, match="one weight per edge required"):
        g.reweighted(weights[:-1])


def test_positive_vertex_without_outgoing_edge_message():
    g = InstantonGraph(
        [("p", 1), ("p2", 1), ("q", 0), ("p3", 1)],
        [("p", "q", 1, 0.1)],
        require_negative=False,
    )
    with pytest.raises(StructureError) as loop:
        oracles.escape_costs_scan(g)
    with pytest.raises(StructureError) as arrays:
        g.escape_costs()
    assert str(arrays.value) == str(loop.value) == (
        "vertex 'p2' of positive index has no outgoing edge"
    )


def test_stage_invariant_violation_message():
    g = InstantonGraph(
        [("p", 1), ("p2", 1), ("p3", 1), ("q", 0)],
        [("p", "q", 1, -3.0), ("p2", "q", 1, -5.0), ("p3", "q", -1, -6.0)],
    )
    weights = [e.weight for e in g.edges]
    with pytest.raises(InvariantViolation) as loop:
        oracles.stages_loop(g, weights, [4.0])
    with pytest.raises(InvariantViolation) as arrays:
        wp.prescribe_stages(g, [4.0])
    assert str(arrays.value) == str(loop.value) == (
        "stage 1: b_p = 5.0 exceeds target 4.0 at 'p2'"
    )
    assert arrays.value.stage == 1


def test_initialized_weight_message():
    prob = PROBLEMS[1]
    with pytest.raises(InvariantViolation) as arrays:
        wp.initialize_weights(prob, c=0.0)
    first = next(e.weight for e in prob.graph.edges if not e.weight < 0.0)
    assert str(arrays.value) == (
        f"initialized weight {first} outside (-{prob.targets[0]}, 0); constants bug"
    )


def test_bad_graph_line_message():
    text = "# header\nv p 1\n\nv q 0\ne p q +1\ne p q +1 -0.5\n"
    with pytest.raises(DomainError, match=re.escape("bad graph line 5: 'e p q +1'")):
        InstantonGraph.loads(text)
    with pytest.raises(DomainError, match=re.escape("bad graph line 2: '  x p'")):
        InstantonGraph.loads("v p 1\n  x p\n")


# -- one validator for the constructor and loads: same class, message and
# first offender as the edge-by-edge constructor and the line parser --------

VERTICES = [("r", 2), ("p", 1), ("p2", 1), ("q", 0), ("q2", 0)]
EDGES = [("r", "p", 1, -1.0), ("r", "p2", -1, -1.5), ("p", "q", 1, -0.5),
         ("p2", "q", 1, -0.7), ("p", "q2", -1, -0.3), ("p2", "q2", -1, -0.2)]
BAD_EDGES = [
    ("x", "q", 1, -1.0), ("p", "y", 1, -1.0),  # unknown vertex
    ("r", "q", 1, -1.0), ("q", "p", 1, -1.0),  # index drop
    ("p", "q", 2, -1.0), ("p", "q", 0, -1.0), ("p", "q", 10**30, -1.0),  # sign
    ("p", "q", "s", -1.0), ("p", "q", None, -1.0),  # sign conversion
    ("p", "q", 1, 0.0), ("p", "q", 1, 0.25), ("p", "q", 1, float("nan")),  # weight
    ("p", "q", 1, "w"), ("p", "q", 1, None), ("p", "q", 1, -10**400),  # weight conversion
    # several faults on one edge: the first check wins
    ("x", "q", "s", "w"), ("r", "q", 2, 0.5), ("p", "q", 3, "w"), ("p", "q", "s", "w"),
    ("p", "q", 1), ("p", "q", 1, -1.0, 0), 7,  # rows that do not unpack into four
    (["p"], "q", 1, -1.0),  # an end that cannot be looked up
]
CONVERTED_EDGES = [("p", "q", "+1", "-0.5"), ("p", "q", 1.7, -1), ("p", "q", True, -2)]


def _built(vertices, edges, require_negative):
    return repr(_table(InstantonGraph(vertices, edges, require_negative)))


def _read(text, require_negative):
    return repr(_table(InstantonGraph.loads(text, require_negative)))


@pytest.mark.parametrize("require_negative", [True, False])
def test_constructor_faults_match_edge_loop(require_negative):
    cases = [[e] for e in BAD_EDGES + CONVERTED_EDGES]
    cases += [[a, b] for a in BAD_EDGES for b in BAD_EDGES if a is not b]
    raised = set()
    for first, *more in cases:
        edges = EDGES[:2] + [first] + EDGES[2:4] + more + EDGES[4:]
        got = _outcome(_built, VERTICES, edges, require_negative)
        assert got == _outcome(lambda: repr(
            oracles.graph_loop(VERTICES, edges, require_negative)))
        raised.add(got[0])
    assert {StructureError, ValueError, TypeError, OverflowError} <= raised


@pytest.mark.parametrize("vertices", [
    VERTICES + [("p", 0)], VERTICES + [("z", -1)], VERTICES + [("z", "x")],
    [("z", "x")] + VERTICES + [("p", 0)],
])
def test_constructor_vertex_faults_match_loop(vertices):
    got = _outcome(_built, vertices, EDGES + [("x", "q", 1, -1.0)], True)
    assert got == _outcome(lambda: repr(
        oracles.graph_loop(vertices, EDGES + [("x", "q", 1, -1.0)])))
    assert got[0] in (StructureError, ValueError)


TEXT = ["# a graph", "v r 2", "v p 1", "", "v p2 1", "v q 0", "v q2 0",
        "e r p +1 -1.0", "   # an indented comment", "e r p2 -1 -1.5",
        "e p q +1 -0.5", "e p2 q +1 -0.7", "e p q2 -1 -0.3", "e p2 q2 -1 -0.2"]
BAD_LINES = [
    "e p q x -0.5", "e p q 1.5 -0.5", "e p q +1 w", "e p q x w", "v z x",  # numbers
    "e p q +1", "x p", "v z 1 2",  # malformed lines
    "e x q +1 -0.5", "e r q +1 -0.5", "e p q +2 -0.5",  # unknown, drop, sign
    "e p q +1 0.5", "e p q +1 nan", "e p q +1 -nan",  # weight
    "v p 1", "v z -1",  # duplicate, negative index
    "v z x\ne p q +1 w", "e p q +1 w\nv z x",  # a vertex number beside an edge number
]


@pytest.mark.parametrize("require_negative", [True, False])
def test_loads_faults_match_line_parser(require_negative):
    text = "\n".join(TEXT) + "\n"
    assert _read(text, require_negative) == repr(oracles.loads_loop(text, require_negative))
    cases = [[line] for line in BAD_LINES]
    cases += [[a, b] for a in BAD_LINES for b in BAD_LINES if a != b]
    raised = set()
    for first, *more in cases:
        # the first line goes among the vertex lines, the second among the edges
        text = "\n".join(TEXT[:3] + [first] + TEXT[3:10] + more + TEXT[10:])
        got = _outcome(_read, text, require_negative)
        assert got == _outcome(lambda: repr(oracles.loads_loop(text, require_negative)))
        raised.add(got[0])
    assert {StructureError, ValueError, DomainError} <= raised


@pytest.mark.parametrize("vertices", [[("p", 1), ("", 0)], [("p", 1), (1, 0), ("1", 0)],
                                      [("p", 1), ("a b", 0)]],
                         ids=["empty", "same-text", "whitespace"])
def test_dumps_rejects_ids_loads_cannot_read(vertices):
    graph = InstantonGraph(vertices, [], require_negative=False)
    with pytest.raises(DomainError) as info:
        graph.dumps()
    assert str(info.value) == f"vertex id {vertices[-1][0]!r} not serializable"

def test_square_failure_message_matches_loop():
    g = InstantonGraph(
        [("r", 2), ("r2", 2), ("p", 1), ("p2", 1), ("q", 0)],
        [("r2", "p2", 1, -1.0), ("r", "p", 1, -1.0), ("p", "q", 1, -1.0),
         ("p2", "q", 1, -2.0), ("r2", "p", 1, -1.5), ("p", "q", -1, -1.0)],
    )
    p, r, w, total = oracles.squares_loop(g)
    with pytest.raises(NotAComplex) as arrays:
        morse.build_differential(g, 0.5)
    assert str(arrays.value) == (
        f"two-step paths {p!r} -> {r!r} do not cancel at weight {w:.6g} "
        f"(signed count {total})"
    )


def test_non_idempotent_projection_raises(tensor_graph, monkeypatch):
    svd_rank = morse._svd_rank

    def scaled_basis(mat):
        r, u, v = svd_rank(mat)
        return r, 1.01 * u, v

    monkeypatch.setattr(morse, "_svd_rank", scaled_basis)
    with pytest.raises(StateError, match="not idempotent"):
        morse.hodge_ranks_numeric(tensor_graph, 7.0)


def _ring_factor(rng, m, step):
    """One-level instanton graph on a ring of m index-1 and m index-0
    vertices: p_i -> q_i at -a and p_i -> q_{i-1} ``step`` below it.  A
    single vertex pair (m = 1) carries both as parallel edges, so its tensor
    powers have two-step paths at several weights a step apart."""
    a = float(rng.uniform(0.2, 2.0))
    vertices = [(f"p{i}", 1) for i in range(m)] + [(f"q{i}", 0) for i in range(m)]
    edges = [(f"p{i}", f"q{i}", 1, -a) for i in range(m)]
    edges += [(f"p{i}", f"q{(i - 1) % m}", -1, -a - step) for i in range(m)]
    return InstantonGraph(vertices, edges)


# path weight steps around _WEIGHT_EQ_TOL = 1e-9: chains spaced below it
# (0.4, 0.6), just inside (0.999) and just outside (1.001) it, and generic
STEPS = (0.4e-9, 0.6e-9, 0.999e-9, 1.001e-9, 1.6e-9, 0.7)


def _square_outcome(check, graph):
    try:
        check(graph)
    except NotAComplex as exc:
        return str(exc)
    return None


def test_square_certificate_matches_scan_on_ring_tensors(monkeypatch):
    # tensor products of random rings, then sign flips (which break
    # cancellation) and weight shifts just inside and just outside the
    # tolerance: the grouped certificate raises exactly when the
    # path-by-path scan does, with the same message
    scanned, scan = [], morse._group_starts
    monkeypatch.setattr(morse, "_group_starts",
                        lambda w: scanned.append(len(w)) or scan(w))
    rng = np.random.default_rng(1717)
    raised = with_scan = 0
    for _ in range(150):
        factors = [_ring_factor(rng, int(rng.integers(1, 4)), float(rng.choice(STEPS)))
                   for _ in range(int(rng.integers(2, 4)))]
        graph = factors[0]
        for g in factors[1:]:
            graph = morse.graph_tensor(graph, g)
        rows = [list(row) for row in graph._edge_rows()]
        for e in rng.choice(len(rows), rng.choice([0, 0, 1, 2]), replace=False):
            rows[e][2] = -rows[e][2]
        if rng.random() < 0.5:
            e = int(rng.integers(len(rows)))
            rows[e][3] += float(rng.choice([-1.0, 1.0]) * rng.choice(
                [0.5e-9, 0.999e-9, 1.001e-9, 2e-9]))
        graph = InstantonGraph(list(graph.index_of.items()), rows)
        want = _square_outcome(oracles.squares_sorted_loop, graph)
        before = len(scanned)
        assert _square_outcome(morse._check_squares_combinatorial, graph) == want
        raised += want is not None
        with_scan += len(scanned) > before
    # both outcomes, and chains wider than the tolerance, are exercised
    assert 30 <= raised <= 120 and with_scan >= 10


@pytest.mark.parametrize("signs", [(1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1),
                                   (1, -1, 1, 1), (1, 1, 1, 1)])
def test_square_groups_are_anchored_not_chained(signs):
    # four paths r -> p_i -> q whose weights are 0.6e-9 apart: the groups
    # are {0, 1} and {2, 3}, anchored at their first path, although the
    # spacing chains all four together
    vertices = [("r", 2), ("q", 0)] + [(f"p{i}", 1) for i in range(4)]
    edges = [("r", f"p{i}", s, -1.0 - (3 - i) * 0.6e-9) for i, s in enumerate(signs)]
    edges += [(f"p{i}", "q", 1, -1.0) for i in range(4)]
    graph = InstantonGraph(vertices, edges)
    want = _square_outcome(oracles.squares_sorted_loop, graph)
    assert (want is None) == (sum(signs[:2]) == 0 and sum(signs[2:]) == 0)
    assert _square_outcome(morse._check_squares_combinatorial, graph) == want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_square_certificate_ends_at_infinite_weights():
    # -inf + -inf paths differ from each other by nan, so each is a group
    # of its own and the first raises (the scan by anchors used to stall)
    inf = float("inf")
    graph = InstantonGraph(
        [("r", 2), ("p", 1), ("p2", 1), ("q", 0)],
        [("r", "p", 1, -1.0), ("r", "p2", 1, -1.0),
         ("p", "q", 1, -inf), ("p2", "q", -1, -inf)],
    )
    with pytest.raises(NotAComplex, match="at weight -inf"):
        morse.build_differential(graph, 1.0)
