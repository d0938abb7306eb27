import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from wittenlab import weight_prescription as wp
from wittenlab.errors import (
    DomainError,
    InfeasibleTargets,
    InvariantViolation,
    StructureError,
)
from wittenlab.morse import InstantonGraph


def small_problem():
    graph = InstantonGraph(
        [("p", 1), ("q1", 0), ("q2", 0)],
        [("p", "q1", 1, 0.7), ("p", "q2", -1, -0.4)],
        require_negative=False,
    )
    return wp.PrescriptionProblem(graph, [4.0])


def one_edge_problem(weight, a1):
    g = InstantonGraph(
        [("p", 1), ("q", 0)], [("p", "q", 1, weight)], require_negative=False
    )
    return wp.PrescriptionProblem(g, [a1])


def test_choose_constants_example():
    prob = small_problem()
    assert prob.raw_amplitude == pytest.approx(0.7)
    assert wp.choose_constants(one_edge_problem(1.0, 4.0)) == pytest.approx(2.5)


def test_choose_constants_exact_class():
    assert wp.choose_constants(one_edge_problem(0.0, 3.0)) == pytest.approx(1.5)


def test_choose_constants_infeasible():
    with pytest.raises(InfeasibleTargets):
        wp.choose_constants(one_edge_problem(1.0, 2.0))
    # between the hard boundary 2A and the safety margin 3A
    with pytest.raises(InfeasibleTargets):
        wp.choose_constants(one_edge_problem(1.0, 2.5))


def test_initialize_weights_window():
    prob = small_problem()
    shifted, c = wp.initialize_weights(prob, c=2.5)
    weights = [e.weight for e in shifted.edges]
    assert weights[0] == pytest.approx(0.7 - 2.5)
    assert all(-4.0 < w < 0.0 for w in weights)


def test_initialize_extreme_weight():
    g = InstantonGraph(
        [("p", 1), ("q", 0)], [("p", "q", 1, -1.0)], require_negative=False
    )
    prob = wp.PrescriptionProblem(g, [4.0])
    shifted, c = wp.initialize_weights(prob)
    w = shifted.edges[0].weight
    assert w == pytest.approx(-1.0 - c)
    assert w > -4.0


def test_stage_hand_trace():
    g = InstantonGraph(
        [("p", 1), ("q1", 0), ("q2", 0)],
        [("p", "q1", 1, -3.0), ("p", "q2", 1, -5.0)],
    )
    phi, final, stages = wp.prescribe_stages(g, [4.0])
    assert phi["p"] == pytest.approx(1.0)
    assert phi["q1"] == 0.0 and phi["q2"] == 0.0
    assert [e.weight for e in final.edges] == pytest.approx([-4.0, -6.0])
    assert stages[0].b["p"] == pytest.approx(3.0)


def test_two_stage_hand_trace():
    g = InstantonGraph(
        [("u", 2), ("p", 1), ("q1", 0), ("q2", 0)],
        [
            ("u", "p", 1, -2.0),
            ("p", "q1", 1, -3.0),
            ("p", "q2", 1, -5.0),
        ],
    )
    phi, final, stages = wp.prescribe_stages(g, [4.0, 4.0])
    # stage 1: b_p = 3, phi(p) += 1, phi(u) += 1 (single p so b_1 = b_p);
    # the u -> p edge is unchanged; stage 2 then sets its cost to 4
    edge_up = [e for e in final.edges if e.p == "u"][0]
    assert edge_up.weight == pytest.approx(-4.0)
    assert morse_cost(final, "u") == pytest.approx(4.0)
    assert morse_cost(final, "p") == pytest.approx(4.0)


def morse_cost(graph, v):
    return -max(e.weight for e in graph.edges if e.p == v)


def test_already_tight_idempotent():
    g = InstantonGraph(
        [("p", 1), ("q1", 0), ("q2", 0)],
        [("p", "q1", 1, -4.0), ("p", "q2", 1, -6.0)],
    )
    phi, final, _ = wp.prescribe_stages(g, [4.0])
    assert all(v == 0.0 for v in phi.values())
    assert [e.weight for e in final.edges] == pytest.approx([-4.0, -6.0])


def test_stage_invariant_violation():
    g = InstantonGraph(
        [("p", 1), ("q", 0)], [("p", "q", 1, -5.0)]
    )
    with pytest.raises(InvariantViolation):
        wp.prescribe_stages(g, [4.0])  # b_p = 5 > 4


def test_targets_validation():
    g = InstantonGraph(
        [("u", 2), ("p", 1), ("q", 0)],
        [("u", "p", 1, 0.1), ("p", "q", 1, 0.2)],
        require_negative=False,
    )
    with pytest.raises(DomainError):
        wp.PrescriptionProblem(g, [4.0, 3.0])  # descending targets rejected
    with pytest.raises(DomainError):
        wp.PrescriptionProblem(g, [4.0])  # wrong length


def test_top_index_zero_rejected():
    # no positive index, so no per-index cost exists to prescribe
    g = InstantonGraph([("q1", 0), ("q2", 0)], [])
    with pytest.raises(DomainError, match="top index 0"):
        wp.PrescriptionProblem(g, [])


def test_isolated_positive_vertex_rejected():
    g = InstantonGraph(
        [("p", 1), ("q", 0), ("p2", 1)],
        [("p", "q", 1, 0.1)],
        require_negative=False,
    )
    with pytest.raises(StructureError):
        wp.PrescriptionProblem(g, [4.0])


def test_random_problems_all_verified():
    rng = np.random.default_rng(123)
    for _ in range(30):
        prob = wp.random_feasible_problem(rng)
        res = wp.prescribe(prob)
        cert = wp.verify_prescription(prob, res)
        assert cert.all_pass
        consistent, bad = wp.potential_consistency(prob, res)
        assert consistent, bad


def test_mutation_always_caught():
    rng = np.random.default_rng(99)
    for _ in range(10):
        prob = wp.random_feasible_problem(rng)
        res = wp.prescribe(prob)
        weights = [e.weight for e in res.graph.edges]
        idx = int(rng.integers(0, len(weights)))
        weights[idx] += 0.1
        tampered = wp.PrescriptionResult(
            prob, res.c, res.potential,
            prob.graph.reweighted(weights, require_negative=False),
            res.stages,
        )
        cert = wp.verify_prescription(prob, tampered)
        consistent, _ = wp.potential_consistency(prob, tampered)
        assert not (cert.all_pass and consistent)


@pytest.mark.parametrize("tampered_edge", [0, 1])
def test_parallel_edge_tamper_caught_by_cycle_check(tampered_edge):
    g = InstantonGraph(
        [("p", 1), ("q", 0), ("r", 0)],
        [("p", "q", 1, 0.3), ("p", "q", -1, -0.2), ("p", "r", 1, 0.1)],
        require_negative=False,
    )
    prob = wp.PrescriptionProblem(g, [2.0])
    res = wp.prescribe(prob)
    weights = [e.weight for e in res.graph.edges]
    weights[tampered_edge] += 0.1
    tampered = wp.PrescriptionResult(
        prob, res.c, res.potential,
        g.reweighted(weights, require_negative=False), res.stages,
    )
    assert wp.potential_consistency(prob, tampered) == (False, ("p", "q"))


RAW_GRAPH = Path(__file__).parent / "data" / "raw.graph"


def _edit_edge_p_q2(graph, edit):
    """Copy of ``graph`` with its edge ``p -> q2`` deleted, or moved to
    end at q1 (a swapped endpoint with the weight kept)."""
    lines = []
    for line in graph.dumps().splitlines():
        if line.startswith("e p q2 "):
            if edit == "deleted":
                continue
            line = line.replace(" q2 ", " q1 ")
        lines.append(line)
    return InstantonGraph.loads("\n".join(lines))


@pytest.mark.parametrize("edit", ["deleted", "swapped"])
def test_edited_edge_list_is_a_counterexample(edit):
    prob = wp.PrescriptionProblem(
        InstantonGraph.load(RAW_GRAPH, require_negative=False), [4.0]
    )
    res = wp.prescribe(prob)
    edited = wp.PrescriptionResult(
        prob, res.c, res.potential, _edit_edge_p_q2(res.graph, edit), res.stages
    )
    cert = wp.verify_prescription(prob, edited)
    assert not cert.exactness
    assert cert.counterexample == ("p", "q2")
    assert wp.potential_consistency(prob, edited) == (False, ("p", "q2"))


def test_escape_costs_match_scan_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = wp.random_feasible_problem(rng).graph
        assert list(g.escape_costs().items()) == list(
            oracles.escape_costs_scan(g).items()
        )
        weights = list(rng.normal(size=len(g.edges)))
        reweighted = g.reweighted(weights, require_negative=False)
        assert list(reweighted.escape_costs().items()) == list(
            oracles.escape_costs_scan(g, weights).items()
        )


_EDGE_LIST = (
    "import numpy as np; from wittenlab import weight_prescription as wp; "
    "g = wp.random_feasible_problem(np.random.default_rng(3)).graph; "
    "print([(e.p, e.q, e.sign, e.weight) for e in g.edges])"
)


def test_random_problem_independent_of_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _EDGE_LIST], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_order_independence():
    rng = np.random.default_rng(5)
    prob = wp.random_feasible_problem(rng)
    res = wp.prescribe(prob)
    # shuffle vertex and edge order, re-run, compare weights edgewise
    order = list(range(len(prob.graph.edges)))
    rng.shuffle(order)
    g = prob.graph
    shuffled = InstantonGraph(
        [(v, g.index_of[v]) for v in reversed(g.vertices)],
        [
            (g.edges[i].p, g.edges[i].q, g.edges[i].sign, g.edges[i].weight)
            for i in order
        ],
        require_negative=False,
    )
    res2 = wp.prescribe(wp.PrescriptionProblem(shuffled, prob.targets))
    for i, j in enumerate(order):
        assert res2.graph.edges[i].weight == pytest.approx(
            res.graph.edges[j].weight, abs=1e-12
        )


def test_idempotence_on_output():
    rng = np.random.default_rng(17)
    prob = wp.random_feasible_problem(rng)
    res = wp.prescribe(prob)
    phi2, final2, _ = wp.prescribe_stages(res.graph, prob.targets)
    # increments constant per index level (zero here), weights unchanged
    for v, val in phi2.items():
        assert val == pytest.approx(0.0, abs=1e-9)
    for e1, e2 in zip(res.graph.edges, final2.edges):
        assert e1.weight == pytest.approx(e2.weight, abs=1e-9)


def test_class_preservation_cycles():
    # graph with a genuine cycle in its undirected support
    g = InstantonGraph(
        [("p1", 1), ("p2", 1), ("q1", 0), ("q2", 0)],
        [
            ("p1", "q1", 1, 0.3),
            ("p1", "q2", -1, -0.2),
            ("p2", "q1", 1, 0.1),
            ("p2", "q2", 1, 0.25),
        ],
        require_negative=False,
    )
    prob = wp.PrescriptionProblem(g, [2.0])
    res = wp.prescribe(prob)
    # alternating sums around the 4-cycle vanish for the shifted change
    delta = {
        (e.p, e.q): en.weight - e.weight + res.c
        for e, en in zip(g.edges, res.graph.edges)
    }
    cyc = (
        delta[("p1", "q1")]
        - delta[("p2", "q1")]
        + delta[("p2", "q2")]
        - delta[("p1", "q2")]
    )
    assert abs(cyc) < 1e-12
