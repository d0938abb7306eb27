"""Reweighting descent graphs to prescribed per-index escape costs.

Given raw path integrals w'(gamma) of an arbitrary representative of a
cohomology class and ascending positive targets a_1 <= ... <= a_n, the
algorithm produces new weights that differ from the input by a vertex
potential plus the uniform shift -C coming from adding C times the index
function (whose integral along every edge is -1).  The output satisfies

    -max over outgoing edges of w(gamma) = a_k   for every index-k vertex,

with all weights strictly negative.  Stages run bottom-up: stage k measures
b_p = -max current outgoing weight for each index-k vertex p, raises the
potential of p by a_k - b_p, and raises every higher-index potential by the
constant a_k - min_p b_p, which keeps all later stages feasible.

Stages and certificates run on the graph's edge arrays, with the float
operations of the edge-by-edge definition in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InfeasibleTargets,
    InvariantViolation,
)
from .morse import InstantonGraph

__all__ = [
    "PrescriptionProblem",
    "PrescriptionResult",
    "CertificateReport",
    "choose_constants",
    "initialize_weights",
    "prescribe",
    "prescribe_stages",
    "verify_prescription",
    "random_feasible_problem",
]

_EQ_TOL = 1e-9
_EXACT_TOL = 1e-12


class PrescriptionProblem:
    """Raw graph (weights of any sign) with ascending positive targets."""

    def __init__(self, graph: InstantonGraph, targets):
        self.graph = graph
        self.targets = tuple(float(a) for a in targets)
        if graph.n == 0:
            raise DomainError("top index 0: there are no per-index costs to prescribe")
        if len(self.targets) != graph.n:
            raise DomainError(
                f"need {graph.n} targets for top index {graph.n}, "
                f"got {len(self.targets)}"
            )
        if any(a <= 0 for a in self.targets):
            raise DomainError("targets must be positive")
        for a, b in zip(self.targets, self.targets[1:]):
            if b < a - _EQ_TOL:
                raise DomainError("targets must be ascending: a_1 <= ... <= a_n")
        graph.escape_costs()  # a positive-index vertex needs an edge
        self.raw_amplitude = max(np.abs(graph._weight).tolist(), default=0.0)


def choose_constants(problem: PrescriptionProblem) -> float:
    """Pick the uniform-shift constant C = (A + a_1)/2 with A = max |w'|.

    Both strict inequalities C > A and a_1 > C + A must hold, which needs
    a_1 > 3A; the hard feasibility boundary is a_1 > 2A, so inputs in
    between are rejected as below the safety margin.
    """
    amp = problem.raw_amplitude
    a1 = problem.targets[0]
    if a1 <= 2.0 * amp:
        raise InfeasibleTargets(
            f"a_1 = {a1} is infeasible: needs a_1 > 2 max|w'| = {2 * amp}"
        )
    c = 0.5 * (amp + a1)
    if not (c > amp and a1 > c + amp):
        raise InfeasibleTargets(
            f"a_1 = {a1} is above the feasibility boundary 2A = {2 * amp} but "
            f"below the safety margin 3A = {3 * amp}; C = (A + a_1)/2 fails"
        )
    return c


def initialize_weights(problem: PrescriptionProblem, c=None):
    """Shift every raw weight by -C (the index function drops by 1 along
    every edge); the result is strictly inside (-a_1, 0)."""
    if c is None:
        c = choose_constants(problem)
    a1 = problem.targets[0]
    shifted = problem.graph._weight - c
    inside = (-a1 < shifted) & (shifted < 0.0)
    if not inside.all():
        raise InvariantViolation(
            f"initialized weight {shifted[np.argmin(inside)].item()} outside "
            f"(-{a1}, 0); constants bug"
        )
    return problem.graph.reweighted(shifted), c


@dataclass(frozen=True)
class StageTrace:
    k: int
    b: dict  # per index-k vertex
    b_min: float


@dataclass(frozen=True)
class PrescriptionResult:
    problem: PrescriptionProblem
    c: float
    potential: dict  # vertex id -> accumulated potential
    graph: InstantonGraph  # final negative weights
    stages: tuple


def prescribe_stages(graph: InstantonGraph, targets):
    """Run the staged potential updates on an all-negative graph.

    Returns (potential, final graph, stage traces).  At stage k every
    measured b_p must satisfy b_p <= a_k (strictly below for fresh inputs;
    equality occurs exactly when the level is already at target and then the
    update is zero, which makes the procedure idempotent).
    """
    targets = tuple(float(a) for a in targets)
    phi = np.zeros(len(graph.vertices))
    current = graph._weight
    costs = graph._costs(current)
    stages = []
    for k in range(1, graph.n + 1):
        a_k = targets[k - 1]
        level = graph._index == k
        b = costs[level]
        over = b > a_k + _EQ_TOL
        if over.any():
            i = np.argmax(over)
            raise InvariantViolation(
                f"stage {k}: b_p = {b[i].item()} exceeds target {a_k} at "
                f"{graph.by_degree[k][i]!r}", stage=k,
            )
        b_min = b.min().item()
        phi[level] += a_k - b
        phi[graph._index > k] += a_k - b_min
        current = graph._weight + phi[graph._dst] - phi[graph._src]
        stages.append(StageTrace(k, dict(zip(graph.by_degree[k], b.tolist())), b_min))
        # after stage k every settled level sits exactly at its target and
        # edges from level k+1 stay above -a_k, keeping later stages feasible
        costs = graph._costs(current)
        off = np.abs(costs[level] - a_k) > _EQ_TOL * (1.0 + a_k)
        if off.any():
            raise InvariantViolation(
                f"stage {k} failed to set the level at "
                f"{graph.by_degree[k][np.argmax(off)]!r}", stage=k
            )
    final = graph.reweighted(current)
    return dict(zip(graph.vertices, phi.tolist())), final, tuple(stages)


def prescribe(problem: PrescriptionProblem) -> PrescriptionResult:
    """Full pipeline: choose C, shift by -C, then run the stages."""
    shifted, c = initialize_weights(problem)
    phi, final, stages = prescribe_stages(shifted, problem.targets)
    return PrescriptionResult(problem, c, phi, final, stages)


@dataclass(frozen=True)
class CertificateReport:
    exactness: bool
    negativity: bool
    per_index_max: dict  # k -> recomputed common cost (or None if mixed)
    costs_ok: bool
    counterexample: object

    @property
    def all_pass(self):
        return self.exactness and self.negativity and self.costs_ok

    def to_json(self, stages):
        """JSON-ready dict of the certificate and its ``stages``."""
        payload = {
            "exactness": self.exactness,
            "negativity": self.negativity,
            "per_index_max": {str(k): v for k, v in self.per_index_max.items()},
            "costs_ok": self.costs_ok,
        }
        if self.counterexample is not None:
            payload["counterexample"] = str(self.counterexample)
        payload["stages"] = stages
        return payload


def _edge_mismatch(raw, final):
    """First edge, as (p, q), at which the edge lists of ``raw`` and
    ``final`` stop pairing up position by position: different endpoints, or
    an edge that only one list has.  The problem's edge is named where there
    is one.  None when the lists pair up."""
    # final's endpoints as positions into raw's vertices (-1: not a vertex)
    position = {v: i for i, v in enumerate(raw.vertices)}
    renamed = np.array([position.get(v, -1) for v in final.vertices], dtype=np.intp)
    m = min(len(raw._src), len(final._src))
    differs = np.flatnonzero((raw._src[:m] != renamed[final._src[:m]])
                             | (raw._dst[:m] != renamed[final._dst[:m]]))
    i = differs[0] if differs.size else m
    if i == len(raw._src) == len(final._src):
        return None
    return (raw if i < len(raw._src) else final)._ends(i)


def verify_prescription(problem: PrescriptionProblem,
                        result: PrescriptionResult) -> CertificateReport:
    """Recompute everything from the claimed final graph, never from stage
    traces: per-index escape costs of ``result.graph``, exactness of the
    weight change against the claimed potential and uniform shift (edge by
    edge, after checking that both graphs list the same edges), and strict
    negativity."""
    graph = problem.graph
    final = result.graph
    counterexample = _edge_mismatch(graph, final)

    exactness = counterexample is None
    if exactness:
        missing = np.array([v not in result.potential for v in graph.vertices], bool)
        phi = np.array([result.potential.get(v, 0.0) for v in graph.vertices], float)
        expected = graph._weight - result.c + phi[graph._dst] - phi[graph._src]
        off = np.abs(final._weight - expected) > _EXACT_TOL * (1.0 + np.abs(expected))
        off |= missing[graph._dst] | missing[graph._src]
        if off.any():
            p, q = graph._ends(np.argmax(off))
            result.potential[q], result.potential[p]  # KeyError if one is missing
            exactness = False
            counterexample = (p, q)

    negativity = bool(np.all(final._weight < 0))
    if not negativity and counterexample is None:
        counterexample = final._ends(np.argmin(final._weight < 0))

    costs = final.escape_costs()
    per_index = {}
    costs_ok = True
    for k in range(1, graph.n + 1):
        target = problem.targets[k - 1]
        off = [
            v for v in graph.by_degree[k]
            if not abs(costs[v] - target) <= _EQ_TOL * (1.0 + target)
        ]
        if not off:
            per_index[k] = target
        else:
            per_index[k] = None
            costs_ok = False
            if counterexample is None:
                counterexample = off[0]
    return CertificateReport(exactness, negativity, per_index, costs_ok,
                             counterexample)


def potential_consistency(problem, result):
    """Independent exactness check: the shifted weight change must be a
    coboundary, i.e. consistent along a spanning tree and over every extra
    edge (equivalently, all cycle sums vanish).  Both graphs must list the
    same edges; the first that differs is the counterexample."""
    bad = _edge_mismatch(problem.graph, result.graph)
    if bad is not None:
        return False, bad
    graph = problem.graph
    d = result.graph._weight - graph._weight + result.c  # psi(q) - psi(p)
    # incidence lists in edge order: (q, d) at p and (p, -d) at q
    ends = np.concatenate([graph._src, graph._dst])
    order = np.argsort(ends * len(d) + np.tile(np.arange(len(d)), 2))
    start = np.searchsorted(ends[order], np.arange(len(graph.vertices) + 1)).tolist()
    other = np.concatenate([graph._dst, graph._src])[order].tolist()
    step = np.concatenate([d, -d])[order].tolist()
    # walk a potential along a spanning forest, then check every edge
    # against it, parallel edges included
    psi = [None] * len(graph.vertices)
    for root in range(len(psi)):
        if psi[root] is not None:
            continue
        psi[root] = 0.0
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for y, dy in zip(other[start[x]:start[x + 1]], step[start[x]:start[x + 1]]):
                if psi[y] is None:
                    psi[y] = psi[x] + dy
                    frontier.append(y)
    psi = np.array(psi)
    off = np.abs(psi[graph._dst] - psi[graph._src] - d) > _EXACT_TOL * (1.0 + np.abs(d))
    if off.any():
        return False, graph._ends(np.argmax(off))
    return True, None


def random_feasible_problem(rng):
    """Seeded generator of raw problems: layered graph of top index 1..5 and
    at most 40 vertices with every positive index vertex wired downward, raw
    weights of both signs, and targets that are guaranteed feasible.

    Stage measurements never exceed M_k <= 2^{k-1} (A + C) regardless of the
    targets (the per-stage drift is bounded by the previous measurement
    range), so targets growing geometrically above that bound keep every
    stage strictly below its target.
    """
    n = int(rng.integers(1, 6))
    counts = [int(rng.integers(1, 4)) for _ in range(n + 1)]
    total = sum(counts)
    while total > 40:
        counts[int(rng.integers(0, n + 1))] -= 1
        counts = [max(1, c) for c in counts]
        total = sum(counts)
    vertices = []
    for k, ck in enumerate(counts):
        for i in range(ck):
            vertices.append((f"v{k}_{i}", k))
    edges = []
    amp = float(rng.uniform(0.2, 2.0))
    for k in range(1, n + 1):
        for i in range(counts[k]):
            p = f"v{k}_{i}"
            targets_below = [f"v{k - 1}_{j}" for j in range(counts[k - 1])]
            chosen = {targets_below[int(rng.integers(0, len(targets_below)))]}
            for q in targets_below:
                if rng.random() < 0.4:
                    chosen.add(q)
            for q in sorted(chosen):
                nedges = 1 + int(rng.random() < 0.25)
                for _ in range(nedges):
                    w = float(rng.uniform(-amp, amp))
                    sign = -1 if rng.random() < 0.5 else 1
                    edges.append((p, q, sign, w))
    graph = InstantonGraph(vertices, edges, require_negative=False)
    a = max(abs(e[3]) for e in edges)
    a1 = 3.0 * a + float(rng.uniform(0.5, 2.0))
    c = 0.5 * (a + a1)
    bound = a + c
    targets = [a1]
    for k in range(2, n + 1):
        floor = 1.05 * bound * 2.0 ** (k - 1)
        targets.append(max(targets[-1], floor) + float(rng.uniform(0.0, 1.5)))
    return PrescriptionProblem(graph, targets)
