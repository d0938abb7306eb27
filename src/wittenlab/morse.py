"""Perturbed Morse complexes on instanton graphs.

An instanton graph records zeros of a gradient-like flow (vertices graded by
index) together with the connecting flow lines between consecutive indices,
each carrying an orientation sign and the negative line integral of the
driving one-form.  The induced differential

    d_z e_q = sum over edges (p, q)  of  sign * exp(z * weight) * e_p

deforms the integer Morse differential; this module builds it, does its
finite-dimensional Hodge theory, runs the rank recursion, detects tightness,
extracts the leading (equal-weight) part, bounds the nonzero small spectrum,
evaluates the limit invariants of the zeta function, and solves the
prescription equation for the limit value.

A graph stores its edges once, as endpoint, sign and weight arrays in edge
order, its outgoing edges grouped by source (compressed sparse rows).
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InfeasibleError,
    NotAComplex,
    StateError,
    StructureError,
)
from .spectral import KERNEL_TOL_FACTOR, GradedMatrixComplex

__all__ = [
    "InstantonGraph",
    "RankProfile",
    "TightnessReport",
    "LeadingComplex",
    "build_differential",
    "rank_sequence",
    "hodge_ranks_numeric",
    "tightness_check",
    "leading_complex",
    "leading_decay_fit",
    "small_spectrum_window",
    "z_invariants",
    "ZetaLimits",
    "projection_law_check",
    "prescribe_increment",
    "prescribe_tau",
    "graph_tensor",
]

_WEIGHT_EQ_TOL = 1e-9
_PROJ_TOL = 1e-10


@dataclass(frozen=True)
class GraphEdge:
    p: object
    q: object
    sign: int
    weight: float


class InstantonGraph:
    """Vertices (id, index) plus signed weighted edges with index gap one.

    Weights are strictly negative for a genuine descent flow; raw graphs fed
    to the reweighting algorithm may carry weights of any sign, which is
    allowed by ``require_negative=False``.

    The constructor and :meth:`loads` convert and check the edges as
    columns, which only decide whether some edge is faulty.  If one is, a
    loop over the edges raises what checking them one at a time would: the
    first faulty edge, and on it the first failing check in the order
    unknown vertex, index drop, sign, weight.
    """

    def __init__(self, vertices, edges, require_negative=True):
        self._set_vertices(vertices)
        rows = list(edges)
        try:
            src, dst, signs, weights = zip(*rows, strict=True) if rows else [()] * 4
            signs, weights = list(map(int, signs)), list(map(float, weights))
        except (ArithmeticError, TypeError, ValueError):
            signs = None  # named below, outside this handler, so no context is chained
        if signs is None:
            self._raise_first_fault(rows, require_negative)
        self._set_edges(src, dst, signs, weights, require_negative)

    def _set_vertices(self, vertices):
        self.index_of = {}
        for vid, idx in vertices:
            idx = int(idx)
            if vid in self.index_of:
                raise StructureError(f"duplicate vertex id {vid!r}")
            if idx < 0:
                raise StructureError("vertex index must be nonnegative")
            self.index_of[vid] = idx
        self.vertices = tuple(self.index_of)
        self.n = max(self.index_of.values(), default=0)
        self.by_degree = tuple(
            tuple(v for v in self.vertices if self.index_of[v] == k)
            for k in range(self.n + 1)
        )
        self._index = np.array(list(self.index_of.values()), dtype=np.intp)

    def _set_edges(self, src, dst, signs, weights, require_negative):
        """Check the edge columns, with ``signs`` and ``weights`` converted,
        and store them with the out-edge index."""
        nv = len(self.vertices)
        position = {v: i for i, v in enumerate(self.vertices)}
        unknown = itertools.repeat(nv)
        try:
            i = np.array(list(map(position.get, src, unknown)), np.intp)
            j = np.array(list(map(position.get, dst, unknown)), np.intp)
        except TypeError:  # an end that cannot be looked up
            i = None
        if i is not None:
            sign, weight = np.array(signs), np.array(weights, float)  # object if too large
            index = np.append(self._index, 0)  # unknown ends read the spare entry
            bad = ((i == nv) | (j == nv) | (index[i] != index[j] + 1)
                   | ((sign != 1) & (sign != -1)))
            if require_negative:
                bad |= ~(weight < 0)
        if i is None or bad.any():
            self._raise_first_fault(zip(src, dst, signs, weights), require_negative)
        self._src, self._dst = i, j
        self._sign, self._weight = sign.astype(np.int64), weight
        self._out_edges = np.argsort(i, kind="stable")
        self._out_start = np.searchsorted(np.sort(i), np.arange(nv + 1))

    def _raise_first_fault(self, rows, require_negative):
        """Check the edge rows (p, q, sign, weight) one at a time and raise
        the first fault."""
        for p, q, sign, weight in rows:
            ip, iq = self.index_of.get(p), self.index_of.get(q)
            if ip is None or iq is None:
                raise StructureError(f"edge ({p!r}, {q!r}) references unknown vertex")
            if ip != iq + 1:
                raise StructureError(
                    f"edge ({p!r}, {q!r}) must drop the index by exactly 1")
            if int(sign) not in (-1, 1):
                raise StructureError("edge sign must be +1 or -1")
            weight = float(weight)
            if require_negative and not weight < 0:
                raise StructureError(
                    f"edge ({p!r}, {q!r}) has nonnegative weight {weight}")

    @functools.cached_property
    def edges(self):
        """Tuple of GraphEdge, built from the arrays when first read."""
        return tuple(GraphEdge(*row) for row in self._edge_rows())

    def _edge_rows(self):
        """(p, q, sign, weight) per edge, in edge order."""
        v = self.vertices.__getitem__
        return zip(map(v, self._src.tolist()), map(v, self._dst.tolist()),
                   self._sign.tolist(), self._weight.tolist())

    def _ends(self, i):
        """(p, q) vertex ids of edge ``i``."""
        return self.vertices[self._src[i]], self.vertices[self._dst[i]]

    @property
    def counts(self):
        return tuple(len(layer) for layer in self.by_degree)

    def _costs(self, weights):
        """Escape cost -max outgoing weight per vertex (0 at index 0)."""
        top = self._index > 0
        idle = top & (np.diff(self._out_start) == 0)
        if idle.any():
            v = self.vertices[np.argmax(idle)]
            raise StructureError(f"vertex {v!r} of positive index has no outgoing edge")
        costs = np.zeros(len(self.vertices))
        w = np.asarray(weights, dtype=float)[self._out_edges]
        costs[top] = -np.maximum.reduceat(w, self._out_start[:-1][top])
        return costs

    def escape_costs(self):
        """Escape cost -max outgoing weight of every positive-index vertex."""
        costs = self._costs(self._weight).tolist()
        return {v: c for v, c in zip(self.vertices, costs) if self.index_of[v] > 0}

    def reweighted(self, new_weights, require_negative=True):
        """Same combinatorics with new per-edge weights (parallel order kept);
        the vertex tables, endpoints and outgoing-edge index are shared."""
        if len(new_weights) != len(self._weight):
            raise StructureError("one weight per edge required")
        weights = np.array(new_weights, dtype=float)
        if require_negative and not np.all(weights < 0):
            i = np.argmin(weights < 0)
            p, q = self._ends(i)
            raise StructureError(
                f"edge ({p!r}, {q!r}) has nonnegative weight {weights[i]}"
            )
        graph = copy.copy(self)
        graph.__dict__.pop("edges", None)
        graph._weight = weights
        return graph

    # -- plain-text format: "v <id> <index>" and "e <p> <q> <sign> <weight>" --

    def dumps(self) -> str:
        """The graph as text that :meth:`loads` reads back: each id must be
        one whitespace-free token, and no two ids may share their text."""
        lines, seen = [], set()
        for v in self.vertices:
            text = str(v)
            if text.split() != [text] or text in seen:
                raise DomainError(f"vertex id {v!r} not serializable")
            seen.add(text)
            lines.append(f"v {v} {self.index_of[v]}\n")
        sign = {1: "+1", -1: "-1"}
        lines += [f"e {p} {q} {sign[s]} {w!r}\n" for p, q, s, w in self._edge_rows()]
        return "".join(lines)

    def dump(self, path):
        text = self.dumps()  # raises before the file is opened
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def loads(cls, text, require_negative=True):
        """Read :meth:`dumps` text; ``#`` lines and blank lines are skipped.
        The numbers of a line are converted as the line is read."""
        vertices, src, dst, signs, weights = [], [], [], [], []
        lines = text.splitlines()
        for lineno, parts in enumerate(map(str.split, lines), 1):
            if len(parts) == 5 and parts[0] == "e":
                src.append(parts[1])
                dst.append(parts[2])
                signs.append(int(parts[3]))
                weights.append(float(parts[4]))
            elif len(parts) == 3 and parts[0] == "v":
                vertices.append((parts[1], int(parts[2])))
            elif parts and not parts[0].startswith("#"):
                raise DomainError(f"bad graph line {lineno}: {lines[lineno - 1]!r}")
        del lines
        graph = cls.__new__(cls)
        graph._set_vertices(vertices)
        graph._set_edges(src, dst, signs, weights, require_negative)
        return graph

    @classmethod
    def load(cls, path, require_negative=True):
        with open(path) as fh:
            return cls.loads(fh.read(), require_negative=require_negative)


def _edge_matrix(graph, k, entry):
    """Matrix of the degree-k differential: ``entry(sign, weight)`` maps the
    level's edge arrays to entries, summed over parallel edges in edge order."""
    at = np.flatnonzero(graph._index[graph._dst] == k)
    # position of each vertex among the vertices of its index
    row, col = (np.cumsum(graph._index == j) - 1 for j in (k + 1, k))
    mat = np.zeros((row[-1] + 1, col[-1] + 1), dtype=complex)
    np.add.at(mat, (row[graph._src[at]], col[graph._dst[at]]),
              entry(graph._sign[at], graph._weight[at]))
    return mat


def _group_starts(weights):
    """Starts of the groups of ascending ``weights``: a weight and the later
    ones within _WEIGHT_EQ_TOL of it (a nan alone, as it is not within)."""
    starts, i = [], 0
    while i < len(weights):
        starts.append(i)
        anchor, i = weights[i], i + 1
        while i < len(weights) and abs(weights[i] - anchor) <= _WEIGHT_EQ_TOL:
            i += 1
    return starts


def _check_squares_combinatorial(graph):
    """Exact d^2 = 0 certificate: for every two-step pair (r, q), the signed
    edge pairs must cancel within groups of equal total weight, formed by
    :func:`_group_starts` (pairs in order of first appearance).  No group
    crosses a run end (a new pair, or a weight step above the tolerance), so
    only runs wider than the tolerance need splitting."""
    # every path e1: p -> q, e2: q -> r, in edge order of e1 and then of e2
    start, mid, nv = graph._out_start, graph._dst, len(graph.vertices)
    fan = np.diff(start)[mid]
    e1 = np.repeat(np.arange(len(mid)), fan)
    skip = np.repeat(start[mid] - np.cumsum(fan) + fan, fan)
    e2 = graph._out_edges[np.arange(len(e1)) + skip]
    keys, seen, pair = np.unique(graph._src[e1] * nv + mid[e2], return_index=True,
                                 return_inverse=True)
    weight = graph._weight[e1] + graph._weight[e2]
    order = np.lexsort((weight, np.argsort(np.argsort(seen))[pair]))
    key, weight = keys[pair[order]], weight[order]
    first = np.flatnonzero((np.diff(key, prepend=-1) != 0)
                           | (np.diff(weight, prepend=-np.inf) > _WEIGHT_EQ_TOL))
    stop = np.append(first, len(key))[1:]
    wide = ~(weight[stop - 1] - weight[first] <= _WEIGHT_EQ_TOL)  # a nan span too
    starts = first[~wide].tolist()
    for a, b in zip(first[wide].tolist(), stop[wide].tolist()):
        starts += [a + i for i in _group_starts(weight[a:b].tolist())]
    starts = np.sort(starts).astype(np.intp)
    totals = np.add.reduceat((graph._sign[e1] * graph._sign[e2])[order], starts)
    bad = np.flatnonzero(totals)
    if len(bad):
        i = starts[bad[0]]
        p, r = divmod(int(key[i]), nv)
        raise NotAComplex(
            f"two-step paths {graph.vertices[p]!r} -> {graph.vertices[r]!r} do not "
            f"cancel at weight {weight[i]:.6g} (signed count {totals[bad[0]]})"
        )


def build_differential(graph, z) -> GradedMatrixComplex:
    """Matrices of d_z, entries sum sign * exp(z * weight) over parallel edges.

    The square-zero property is certified combinatorially (exact integer
    cancellation within equal-weight groups) before any floating assembly;
    the resulting complex also carries the tight matrix-level tolerance.
    """
    _check_squares_combinatorial(graph)
    z = complex(z)
    mats = [
        _edge_matrix(graph, k, lambda s, w: s * np.exp(z * w))
        for k in range(graph.n)
    ]
    return GradedMatrixComplex(mats, graph.counts, exact=True)


@dataclass(frozen=True)
class RankProfile:
    """Counts |X_k|, cohomology ranks beta_k, and the rank recursion output:
    m_k = |X_k| - beta_k split as m_k = m1_k + m2_k with m2_k = m1_{k+1}."""

    counts: tuple
    betti: tuple
    m: tuple
    m1: tuple
    m2: tuple

    @property
    def supertrace_m(self):
        return sum((-1) ** k * mk for k, mk in enumerate(self.m))


def rank_sequence(counts, betti) -> RankProfile:
    """Run the forward recursion m1_0 = 0, m2_k = m_k - m1_k, m1_{k+1} = m2_k.

    Inputs must satisfy the Euler identity and keep every intermediate rank
    nonnegative with m2_n = 0; otherwise they are not realizable.
    """
    counts = tuple(int(c) for c in counts)
    betti = tuple(int(b) for b in betti)
    if len(counts) != len(betti):
        raise InfeasibleError("counts and betti must have equal length")
    n = len(counts) - 1
    euler_counts = sum((-1) ** k * c for k, c in enumerate(counts))
    euler_betti = sum((-1) ** k * b for k, b in enumerate(betti))
    if euler_counts != euler_betti:
        raise InfeasibleError(
            f"alternating sums disagree: {euler_counts} vs {euler_betti}"
        )
    m = tuple(c - b for c, b in zip(counts, betti))
    if any(mk < 0 for mk in m):
        raise InfeasibleError("some m_k = |X_k| - beta_k is negative")
    m1 = [0]
    m2 = []
    for k in range(n + 1):
        m2k = m[k] - m1[k]
        if m2k < 0:
            raise InfeasibleError(f"negative intermediate rank m2_{k} = {m2k}")
        m2.append(m2k)
        if k < n:
            m1.append(m2k)
    if m2[-1] != 0:
        raise InfeasibleError(f"recursion does not close: m2_{n} = {m2[-1]}")
    return RankProfile(counts, betti, m, tuple(m1), tuple(m2))


def _nonzero(s):
    """Mask of the singular values s (descending) that count as nonzero:
    those above KERNEL_TOL_FACTOR times the largest.  The rule has no
    absolute floor, so a graph differential that is exponentially small as a
    whole keeps its rank."""
    return s > KERNEL_TOL_FACTOR * s[0]


def _svd(mat):
    """Numeric rank of a nonempty ``mat`` and its economy SVD u, s, vh."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return int(np.count_nonzero(_nonzero(s))), u, s, vh


def _svd_rank(mat):
    """Numeric rank r of ``mat`` with orthonormal bases of its image (m x r)
    and of the orthogonal complement of its kernel (n x r)."""
    if mat.size == 0:
        return 0, np.zeros((mat.shape[0], 0), dtype=complex), np.zeros(
            (mat.shape[1], 0), dtype=complex
        )
    r, u, _, vh = _svd(mat)
    return r, u[:, :r], vh[:r].conj().T


@dataclass(frozen=True)
class HodgeData:
    """Dimensions of the numeric Hodge decomposition of a graph differential
    at one parameter."""

    kernel_dims: tuple
    image_d_dims: tuple
    image_delta_dims: tuple

    @property
    def betti(self):
        return self.kernel_dims


def hodge_ranks_numeric(graph, z) -> HodgeData:
    """Dimensions of the Hodge splitting C_k = H_k + im d_{k-1} + im d_k* at z.

    The rank of each differential counts its singular values above
    KERNEL_TOL_FACTOR times its largest one, with no absolute floor, so the
    ranks stay correct when the whole differential is exponentially small.

    The projections are never formed.  With W = [U V] the image basis U of
    d_{k-1} beside the coimage basis V of d_k, and g = ||W*W - I||_F, the
    projections P_im_d = UU*, P_im_delta = VV* and P_harmonic = I - WW* have
    Hermitian and idempotency defects ||P - P*||_F and ||P^2 - P||_F of at
    most 2g(1 + g) in exact arithmetic.  StateError is raised when that
    bound exceeds 1e-10 times the degree size, so each degree passes only if
    all three projections are Hermitian idempotents to that tolerance.
    """
    cx = build_differential(graph, z)
    bases = [_svd_rank(d) for d in cx.differentials]
    kernel, imd, imdelta = [], [], []
    for k, nk in enumerate(cx.degrees):
        empty = (0, np.zeros((nk, 0)), np.zeros((nk, 0)))
        rank_in, u_in, _ = bases[k - 1] if k else empty
        rank_out, _, v_out = bases[k] if k < len(bases) else empty
        w = np.hstack((u_in, v_out))
        g = np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1]))
        if 2.0 * g * (1.0 + g) > _PROJ_TOL * nk:
            raise StateError(
                f"Hodge projections not idempotent in degree {k}: image and "
                f"coimage bases have Gram defect {g:.3e}"
            )
        kernel.append(nk - rank_in - rank_out)
        imd.append(rank_in)
        imdelta.append(rank_out)
    return HodgeData(tuple(kernel), tuple(imd), tuple(imdelta))


def analyze_ranks(graph, z) -> RankProfile:
    """Rank recursion cross-validated against the numeric Hodge dimensions;
    a mismatch is an error, never silently reconciled."""
    data = hodge_ranks_numeric(graph, z)
    profile = rank_sequence(graph.counts, data.kernel_dims)
    if profile.m1[1:] != data.image_d_dims[1:]:
        raise StateError(
            f"recursion m1 {profile.m1} disagrees with numeric {data.image_d_dims}"
        )
    return profile


@dataclass(frozen=True)
class TightnessReport:
    vertex_cost: dict  # -max outgoing weight, per positive-index vertex
    index_costs: tuple  # min over the index level, entries for k = 1..n
    tight: bool


def tightness_check(graph) -> TightnessReport:
    """Per-vertex escape costs and whether they only depend on the index."""
    vertex_cost = graph.escape_costs()
    index_costs = []
    tight = True
    for k in range(1, graph.n + 1):
        costs = [vertex_cost[v] for v in graph.by_degree[k]]
        if not costs:
            raise StructureError(f"no vertices of index {k}")
        mk = min(costs)
        index_costs.append(mk)
        if max(costs) - mk > _WEIGHT_EQ_TOL * (1.0 + abs(mk)):
            tight = False
    return TightnessReport(vertex_cost, tuple(index_costs), tight)


@dataclass(frozen=True)
class LeadingComplex:
    """Equal-weight leading part: per degree k-1 the matrix keeping only
    edges of weight exactly -a_k, plus its adjoint family."""

    matrices: tuple
    a: tuple

    def matrix(self, k):
        return self.matrices[k]


def leading_complex(graph) -> LeadingComplex:
    """Extract the leading differential of a tight graph and verify it squares
    to zero; dropped edges are exactly those with weight below -a_k."""
    report = tightness_check(graph)
    if not report.tight:
        raise StructureError("leading complex requires a tight graph")
    a = report.index_costs
    mats = []
    for k in range(graph.n):
        ak = a[k]
        mats.append(
            _edge_matrix(
                graph,
                k,
                lambda s, w, ak=ak: np.where(
                    np.abs(w + ak) <= _WEIGHT_EQ_TOL * (1.0 + ak), s, 0.0
                ),
            )
        )
    for k in range(len(mats) - 1):
        if mats[k + 1].size and mats[k].size:
            if np.linalg.norm(mats[k + 1] @ mats[k]) > 1e-12:  # Frobenius >= 2-norm
                raise StructureError("leading differential does not square to zero")
    return LeadingComplex(tuple(mats), a)


def shifted_differential(graph, z, k, a_k):
    """exp(a_k z) d_{z,k}: the overflow-free normal form of the degree-k
    differential of a tight graph (entries exp(z (a_k + weight)))."""
    z = complex(z)
    return _edge_matrix(graph, k, lambda s, w: s * np.exp(z * (w + a_k)))


def leading_decay_fit(graph, mu_values):
    """Fit log || exp(a_k mu) d_mu - d' || versus real mu per degree.

    Returns per-degree (slope, residual norms); the slope approaches the gap
    between a_k and the largest subleading weight magnitude.
    """
    lead = leading_complex(graph)
    slopes = []
    for k in range(graph.n):
        norms = []
        for mu in mu_values:
            diff = shifted_differential(graph, complex(mu, 0.0), k, lead.a[k])
            norms.append(np.linalg.norm(diff - lead.matrices[k], 2))
        norms = np.asarray(norms)
        if np.all(norms < 1e-300):
            slopes.append((0.0, tuple(norms)))
            continue
        coeffs = np.polyfit(np.asarray(mu_values, float), np.log(norms), 1)
        slopes.append((float(coeffs[0]), tuple(norms)))
    return slopes


def small_spectrum_window(graph, z):
    """Rescaled nonzero spectrum exp(2 a_k mu) * spec on the degree-k
    supersymmetric pair, per k = 1..n.

    Computed from singular values of the shifted differential, so no
    underflow occurs for any mu.  Requires a tight graph.
    """
    report = tightness_check(graph)
    if not report.tight:
        raise StructureError("spectral windows require a tight graph")
    out = []
    for k in range(1, graph.n + 1):
        shifted = shifted_differential(graph, z, k - 1, report.index_costs[k - 1])
        if shifted.size == 0:
            out.append(np.zeros(0))
            continue
        s = np.linalg.svd(shifted, compute_uv=False)
        out.append(np.sort(s[_nonzero(s)]) ** 2)
    return out


@dataclass(frozen=True)
class ZetaLimits:
    """Small-spectrum limit of the zeta invariant and its reversed form."""

    small_limit: float  # -sum_k (-1)^k a_k m1_k, the limit of the eta-wedge insertion
    reversed_limit: float  # sum_k (-1)^k a_{n+1-k} m1_k, the mu -> -infinity counterpart


def z_invariants(graph_or_a, m1) -> ZetaLimits:
    """Evaluate the two closed forms of the small limit.

    The zeta invariant inserts d/dz d_z = eta wedge.  By Hellmann-Feynman
    each small singular value then contributes -d/dmu log sigma_j, whose
    limit is its decay rate a_k, so the small part tends to
    -sum_k (-1)^k a_k m1_k.  The unit-step insertion d_z - d_{z-1} tends
    instead to sum_k (-1)^k (1 - e^{a_k}) m1_k; that is the law
    :func:`projection_law_check` measures, and the two agree only where d_z
    is affine in z.

    Accepts either a tight graph (costs measured from it) or the index costs
    a_1..a_n directly; ``m1`` are the stable ranks m1_0..m1_n.
    """
    if isinstance(graph_or_a, InstantonGraph):
        report = tightness_check(graph_or_a)
        if not report.tight:
            raise StateError("graph is not tight; per-index costs undefined")
        a = report.index_costs
    else:
        a = tuple(float(x) for x in graph_or_a)
    m1 = tuple(int(x) for x in m1)
    n = len(a)
    if len(m1) != n + 1:
        raise StateError(f"expected m1_0..m1_{n}, got {len(m1)} entries")
    small = -sum((-1) ** k * a[k - 1] * m1[k] for k in range(1, n + 1))
    rev = sum((-1) ** k * a[n - k] * m1[k] for k in range(1, n + 1))
    return ZetaLimits(float(small), float(rev))


def projection_law_check(graph, mu_values, nu=0.0):
    """Deviation || d_{z-1} d_z^{-1} P^1_k - e^{a_k} P^1_k || per degree and mu.

    This is the law of the unit-step insertion (d_z - d_{z-1}) d_z^{-1},
    whose supertrace tends to sum_k (-1)^k (1 - e^{a_k}) m1_k; the zeta
    invariant's eta-wedge insertion has the limit of :func:`z_invariants`.

    P^1_k projects onto the image of the degree-(k-1) differential and the
    inverse is the one of the restricted isomorphism.  Both come from one
    economy SVD of the shifted differential, U S V* with numeric rank r:
    P^1 = U_r U_r* and d_z^{-1} P^1 = V_r S_r^{-1} U_r*.  As shifted(z)
    V_r = U_r S_r, the deviation is the spectral norm of the m x r matrix
    e^{a_k} (shifted(z-1) - shifted(z)) V_r S_r^{-1}.  The difference is
    built entry by entry as sign e^{z (w + a_k)} expm1(-(w + a_k)), so it
    vanishes on the leading edges and suffers no cancellation as the two
    matrices approach each other.
    Returns {k: [deviation per mu]} plus fitted exponential decay rates.
    """
    report = tightness_check(graph)
    if not report.tight:
        raise StructureError("projection law requires a tight graph")
    devs = {k: [] for k in range(1, graph.n + 1)}
    for mu in mu_values:
        z = complex(mu, nu)
        for k in range(1, graph.n + 1):
            ak = report.index_costs[k - 1]
            # work with the shifted matrices to avoid underflow:
            # d_{z-1} d_z^{-1} = e^{-a_k} * shifted(z-1) shifted(z)^{-1}
            sz = shifted_differential(graph, z, k - 1, ak)
            if sz.size == 0:
                devs[k].append(0.0)
                continue
            rank, _, s, vh = _svd(sz)
            if rank == 0:
                devs[k].append(0.0)
                continue
            step = _edge_matrix(
                graph, k - 1,
                lambda sg, w: sg * np.exp(z * (w + ak)) * np.expm1(-(w + ak)),
            )
            defect = (step @ vh[:rank].conj().T) / s[:rank]
            devs[k].append(float(np.exp(ak) * np.linalg.norm(defect, 2)))
    rates = {}
    mu_arr = np.asarray(mu_values, float)
    for k, vals in devs.items():
        arr = np.asarray(vals)
        if np.all(arr > 1e-300):
            rates[k] = float(-np.polyfit(mu_arr, np.log(arr), 1)[0])
        else:
            rates[k] = np.inf
    return devs, rates


def prescribe_increment(n, m1_1, m1_n, x0, xn, c0, cn):
    """Closed-form change of the limit invariant under boundary-level
    modifications of strengths c0 (index 0) and cn (index n).

    The small part is the change of :func:`z_invariants` when the boundary
    costs a_1 and a_n grow by c0 and cn; that limit is linear in the costs,
    so the increment is c0 (m1_1 + x0) - (-1)^n cn (m1_n + xn)."""
    sgn = (-1.0) ** n
    return c0 * m1_1 - sgn * cn * m1_n + c0 * x0 - sgn * cn * xn


def prescribe_tau(n, m1_1, m1_n, x0, xn, z_baseline, tau):
    """Solve for (c0, cn) >= 0 with baseline + increment(c0, cn) = tau.

    Targets above the baseline move c0 and targets below it move cn; the
    increment is linear in each, so one division solves it.  For even n
    every target is reachable; for odd n the baseline is a floor and
    targets below it raise InfeasibleError.  The solution is verified by
    forward evaluation.
    """
    if x0 <= 0 or xn <= 0:
        raise DomainError("need at least one vertex of index 0 and of index n")
    goal = float(tau) - float(z_baseline)
    if goal == 0.0:
        return 0.0, 0.0
    if n % 2 == 1 and goal < 0.0:
        raise InfeasibleError(
            f"target below the reachable floor {z_baseline} for odd dimension"
        )
    if goal > 0.0:
        slope = m1_1 + x0  # rise per unit c0
    else:
        slope = (-1.0) ** n * (m1_n + xn)  # fall per unit cn
    if not slope > 0.0:
        raise InfeasibleError(
            f"boundary strengths cannot move the limit towards {tau}"
        )
    c = abs(goal) / slope
    c0, cn = (c, 0.0) if goal > 0.0 else (0.0, c)
    check = z_baseline + prescribe_increment(n, m1_1, m1_n, x0, xn, c0, cn)
    if abs(check - tau) > 1e-10 * (1.0 + abs(tau)):
        raise InfeasibleError(f"prescription residual {abs(check - tau):.3e}")
    return c0, cn


def graph_tensor(ga, gb) -> InstantonGraph:
    """Product graph with the graded sign rule.

    Vertices are pairs with added indices; edges act in one factor at a time,
    edges in the second factor acquire (-1)^(first factor index).  Weights
    add along the untouched factor (so they are just the factor weights).
    """
    pair = lambda va, vb: f"{va}*{vb}"
    verts = []
    for va in ga.vertices:
        for vb in gb.vertices:
            verts.append((pair(va, vb), ga.index_of[va] + gb.index_of[vb]))
    edges = []
    for p, q, sign, weight in ga._edge_rows():
        for vb in gb.vertices:
            edges.append((pair(p, vb), pair(q, vb), sign, weight))
    rows = list(gb._edge_rows())
    for va in ga.vertices:
        koszul = (-1) ** ga.index_of[va]
        for p, q, sign, weight in rows:
            edges.append((pair(va, p), pair(va, q), koszul * sign, weight))
    return InstantonGraph(verts, edges)
