"""Finite weighted digraphs: the walk's jump graph restricted to windows,
plus the zero-divergence closures and the half-line truncation used by the
verification suites.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import MTooSmall, NonpositiveKappa1, NonzeroKappa1, WTooSmall
from .model import DirichletParams, derive_params


class WeightedDigraph:
    """Immutable directed graph with positive edge weights.

    Parallel (tail, head) inputs are amalgamated by summing their weights at
    construction.
    """

    __slots__ = ("_vertices", "_out", "_in", "_frozen", "_rev")

    def __init__(self, edges, vertices=()):
        out = {}
        inc = {}
        verts = set(vertices)
        for t, h, w in edges:
            if not w > 0.0:
                raise ValueError(f"edge ({t}, {h}) has nonpositive weight {w}")
            verts.add(t)
            verts.add(h)
            row = out.setdefault(t, {})
            row[h] = row.get(h, 0.0) + w
            col = inc.setdefault(h, {})
            col[t] = col.get(t, 0.0) + w
        self._vertices = tuple(sorted(verts))
        self._out = out
        self._in = inc
        self._frozen = None
        self._rev = None

    @property
    def vertices(self) -> tuple:
        return self._vertices

    def out_edges(self, x) -> dict:
        """head -> weight for edges leaving x (empty dict if none)."""
        return self._out.get(x, {})

    def in_edges(self, x) -> dict:
        """tail -> weight for edges entering x."""
        return self._in.get(x, {})

    def edge_weight(self, t, h) -> float:
        return self._out.get(t, {}).get(h, 0.0)

    def out_weight(self, x) -> float:
        return sum(self._out.get(x, {}).values())

    def in_weight(self, x) -> float:
        return sum(self._in.get(x, {}).values())

    @property
    def num_edges(self) -> int:
        return sum(len(r) for r in self._out.values())

    def edges(self):
        for t in self._vertices:
            for h, w in sorted(self._out.get(t, {}).items()):
                yield t, h, w

    def reversed(self) -> "WeightedDigraph":
        """The edge-reversed graph, built on the first call and then shared."""
        if self._rev is None:
            self._rev = WeightedDigraph(
                ((h, t, w) for t, h, w in self.edges()), vertices=self._vertices
            )
        return self._rev

    def _layout(self) -> "_RowLayout":
        if self._frozen is None:
            self._frozen = _RowLayout(self)
        return self._frozen

    def dump(self) -> str:
        """Debug format: one ``tail head weight`` line per edge, sorted."""
        return "\n".join(f"{t} {h} {w!r}" for t, h, w in self.edges())


class _RowLayout:
    """The rows of a graph in one flat order: vertices sorted, and within a
    vertex its heads sorted, which is the order of ``edges()``.

    ``index`` maps a vertex to its position in ``vertices``, ``heads`` a
    vertex to its sorted heads, and ``pos`` an edge (tail, head) to its flat
    position.  Row i occupies ``indptr[i]:indptr[i+1]`` of the arrays
    ``tails`` and ``cols`` (vertex positions of tail and head) and
    ``weights``.  ``by_head`` lists the flat positions sorted by head, then
    tail (the order of the reversed graph's edges); the edges into vertex i
    are ``by_head[head_ptr[i]:head_ptr[i+1]]``.
    """

    __slots__ = ("index", "heads", "pos", "indptr", "tails", "cols", "weights",
                 "by_head", "head_ptr", "row_groups", "drawn", "_strong")

    def __init__(self, g: WeightedDigraph):
        import numpy as np

        self.index = {v: i for i, v in enumerate(g.vertices)}
        self.heads = {}
        self.pos = {}
        tails, cols, weights = [], [], []
        for i, t in enumerate(g.vertices):
            row = g.out_edges(t)
            self.heads[t] = heads = tuple(sorted(row))
            for h in heads:
                self.pos[t, h] = len(cols)
                tails.append(i)
                cols.append(self.index[h])
                weights.append(row[h])
        bounds = np.arange(len(g.vertices) + 1)
        self.tails = np.array(tails, dtype=np.intp)
        self.indptr = np.searchsorted(self.tails, bounds)
        self.cols = np.array(cols, dtype=np.intp)
        self.weights = np.array(weights, dtype=float)
        self.by_head = np.argsort(self.cols, kind="stable")
        self.head_ptr = np.searchsorted(self.cols[self.by_head], bounds)
        deg = np.diff(self.indptr)
        # (vertex positions, (rows, length) flat positions) per row length:
        # np.take(probs, flat, axis=-1).sum(-1) adds as each row's sum() does,
        # which reduceat, a left-to-right or a fancy-indexed sum do not.  Not
        # np.unique: its sort maps 0.4 MB more of numpy into the process.
        rows = [np.flatnonzero(deg == d) for d in sorted(set(deg.tolist()))]
        self.row_groups = [(r, self.indptr[r, None] + np.arange(deg[r[0]])) for r in rows]
        # the entries a Dirichlet sampler draws: all but lone self-loop rows
        self.drawn = np.flatnonzero(~((deg == 1)[self.tails] & (self.tails == self.cols)))
        self._strong = None

    def reach(self, sources, within=None, backward=False) -> list:
        """Flags over vertex positions: reachable from the positions in
        sources (with backward, reaching them), stepping only onto positions
        flagged in within (default all)."""
        if backward:
            ptr, nbrs = self.head_ptr.tolist(), self.tails[self.by_head].tolist()
        else:
            ptr, nbrs = self.indptr.tolist(), self.cols.tolist()
        seen = [False] * (len(ptr) - 1)
        for z in sources:
            seen[z] = True
        stack = list(sources)
        while stack:
            z = stack.pop()
            for w in nbrs[ptr[z]:ptr[z + 1]]:
                if not seen[w] and (within is None or within[w]):
                    seen[w] = True
                    stack.append(w)
        return seen

    def strongly_connected(self) -> bool:
        """Every vertex reaches every other (computed on the first call)."""
        if self._strong is None:
            self._strong = len(self.index) < 2 or (
                all(self.reach([0])) and all(self.reach([0], backward=True))
            )
        return self._strong


@dataclass(frozen=True)
class DivergenceReport:
    """Per-vertex incoming-minus-outgoing weight."""

    per_vertex: dict
    max_abs: float


def divergence_report(g: WeightedDigraph) -> DivergenceReport:
    per = {x: g.in_weight(x) - g.out_weight(x) for x in g.vertices}
    return DivergenceReport(per_vertex=per, max_abs=max(map(abs, per.values()), default=0.0))


def build_window(p: DirichletParams, a: int, b: int) -> WeightedDigraph:
    """Induced subgraph of the jump graph on the integer interval [a, b]:
    edge (x, x+i) with weight alpha_i whenever both endpoints lie inside."""
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    support = p.support
    edges = []
    for x in range(a, b + 1):
        for i in support:
            if a <= x + i <= b:
                edges.append((x, x + i, p.alphas[i]))
    return WeightedDigraph(edges, vertices=range(a, b + 1))


def build_drift_closure(p: DirichletParams, M: int) -> WeightedDigraph:
    """Close the window [0, M] into a zero-divergence graph for kappa1 > 0.

    Interior sites keep their jump edges with out-of-range heads clamped to 0
    or M (weights summed).  Missing incoming weight near the two ends is
    restored by compensation edges from 0 and from M, and a single recycling
    edge (M, 0) of weight kappa1 balances the endpoints.
    """
    dp = derive_params(p)
    if M <= p.R + p.L:
        raise MTooSmall(f"need M > R + L = {p.R + p.L}, got {M}")
    if dp.kappa1_is_zero or dp.kappa1 < 0.0:
        raise NonpositiveKappa1(f"kappa1 = {dp.kappa1}")
    edges = _clamped_interior(p, 1, M - 1, 0, M)
    # compensation at the left end: sources at or left of 0 collapse into 0
    for j in range(1, p.R + 1):
        w = sum(p.alphas.get(i, 0.0) for i in range(j, p.R + 1))
        if w > 0.0:
            edges.append((0, j, w))
    # compensation at the right end: sources at or right of M collapse into M
    for j in range(M - p.L, M):
        w = sum(p.alphas.get(i, 0.0) for i in range(-p.L, j - M + 1))
        if w > 0.0:
            edges.append((M, j, w))
    edges.append((M, 0, dp.kappa1))
    return WeightedDigraph(edges, vertices=range(M + 1))


def build_balanced_closure(p: DirichletParams, M: int) -> WeightedDigraph:
    """Close the window [-M, M] into a zero-divergence graph for kappa1 = 0.

    Same boundary compensation as the drift closure; since the two sides
    balance, no recycling edge is needed, and a unit-weight edge pair joining
    0 and -M is added (any positive weight preserves zero divergence).
    """
    dp = derive_params(p)
    if M <= p.R + p.L:
        raise MTooSmall(f"need M > R + L = {p.R + p.L}, got {M}")
    if not dp.kappa1_is_zero:
        raise NonzeroKappa1(f"kappa1 = {dp.kappa1}")
    edges = _clamped_interior(p, -M + 1, M - 1, -M, M)
    for t in range(1, p.R + 1):
        w = sum(p.alphas.get(i, 0.0) for i in range(t, p.R + 1))
        if w > 0.0:
            edges.append((-M, -M + t, w))
    for j in range(M - p.L, M):
        w = sum(p.alphas.get(i, 0.0) for i in range(-p.L, j - M + 1))
        if w > 0.0:
            edges.append((M, j, w))
    edges.append((0, -M, 1.0))
    edges.append((-M, 0, 1.0))
    return WeightedDigraph(edges, vertices=range(-M, M + 1))


def build_halfline(p: DirichletParams, W: int) -> WeightedDigraph:
    """Truncate the half-line graph to [0, W].

    Sites in [1, W] keep their jump edges; heads at or below 0 collapse into
    0 (realizing the edge i -> 0 of weight sum of the left-exiting weights)
    and heads beyond W clamp to W.  The origin gets the compensation edges
    (0, j).  All sites in [1, W-1] have zero divergence; the origin has net
    outflow kappa1 (the clamping at W is the truncation's own artifact).
    """
    if W <= p.R + p.L:
        raise WTooSmall(f"need W > R + L = {p.R + p.L}, got {W}")
    edges = _clamped_interior(p, 1, W, 0, W)
    for j in range(1, p.R + 1):
        w = sum(p.alphas.get(i, 0.0) for i in range(j, p.R + 1))
        if w > 0.0:
            edges.append((0, j, w))
    return WeightedDigraph(edges, vertices=range(W + 1))


def _clamped_interior(p: DirichletParams, lo: int, hi: int, floor: int, ceil: int):
    edges = []
    for x in range(lo, hi + 1):
        for i in p.support:
            h = x + i
            if h < floor:
                h = floor
            elif h > ceil:
                h = ceil
            edges.append((x, h, p.alphas[i]))
    return edges


def strongly_connected(g: WeightedDigraph, S) -> bool:
    """Is the induced subgraph on S strongly connected?

    For two or more vertices: every ordered pair of distinct vertices must be
    joined by a directed path staying inside S.  A singleton counts only if
    it carries a self-loop (a loop-free single vertex traps nothing: no walk
    can return to it without leaving).
    """
    S = set(S)
    if not S:
        return False
    missing = S.difference(g.vertices)
    if missing:
        raise ValueError(f"vertices not in graph: {sorted(missing)}")
    if len(S) == 1:
        (x,) = S
        return g.edge_weight(x, x) > 0.0
    within = [v in S for v in g.vertices]
    lay = g._layout()
    anchor = [lay.index[next(iter(S))]]
    return lay.reach(anchor, within) == within == lay.reach(anchor, within, backward=True)
