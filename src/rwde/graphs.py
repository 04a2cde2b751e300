"""Finite weighted digraphs: the walk's jump graph restricted to windows,
plus the zero-divergence drift closure and the half-line truncation used by
the verification suites.
"""
from __future__ import annotations

from .errors import MTooSmall, NonpositiveKappa1, WTooSmall
from .model import DirichletParams, derive_params


class WeightedDigraph:
    """Immutable directed graph with positive edge weights, held as flat rows.

    Parallel (tail, head) inputs are amalgamated by summing their weights in
    input order at construction.  The rows lie in one flat order: vertices
    sorted, and within a vertex its heads sorted, which is the order of
    ``edges()``.  ``index`` maps a vertex to its position in ``vertices`` and
    ``pos`` an edge (tail, head) to its flat position.  Row i occupies
    ``indptr[i]:indptr[i+1]`` of the arrays ``tails`` and ``cols`` (vertex
    positions of tail and head) and ``weights``.  ``by_head`` lists the flat
    positions sorted by head, then tail (the order of the reversed graph's
    edges); the edges into vertex i are ``by_head[head_ptr[i]:head_ptr[i+1]]``.
    """

    __slots__ = ("vertices", "index", "pos", "indptr", "tails", "cols", "weights", "by_head",
                 "head_ptr", "row_groups", "_heads", "_strong", "_rev", "_adj")

    def __init__(self, edges, vertices=()):
        import numpy as np

        acc = {}
        for t, h, w in edges:
            if not w > 0.0:
                raise ValueError(f"edge ({t}, {h}) has nonpositive weight {w}")
            acc[t, h] = acc.get((t, h), 0.0) + w
        self.vertices = tuple(sorted(set(vertices).union(*acc)))  # with every tail and head
        self.index = index = {v: i for i, v in enumerate(self.vertices)}
        keys = sorted(acc)
        self.pos = dict(zip(keys, range(len(keys))))
        bounds = np.arange(len(self.vertices) + 1)
        self.tails = np.array([index[t] for t, _ in keys], dtype=np.intp)
        self.indptr = np.searchsorted(self.tails, bounds)
        self.cols = np.array([index[h] for _, h in keys], dtype=np.intp)
        self.weights = np.array([acc[e] for e in keys], dtype=float)
        self.by_head = np.argsort(self.cols, kind="stable")
        self.head_ptr = np.searchsorted(self.cols[self.by_head], bounds)
        deg = np.diff(self.indptr)
        # (vertex positions, (rows, length) flat positions) per row length:
        # np.take(probs, flat, axis=-1).sum(-1) adds as each row's sum() does,
        # which reduceat, a left-to-right or a fancy-indexed sum do not.  Not
        # np.unique: its sort maps 0.4 MB more of numpy into the process.
        rows = [np.flatnonzero(deg == d) for d in sorted(set(deg.tolist()))]
        self.row_groups = [(r, self.indptr[r, None] + np.arange(deg[r[0]])) for r in rows]
        self._heads = self._strong = self._rev = self._adj = None

    def _edges_at(self, flat, ends) -> dict:
        return dict(zip(map(self.vertices.__getitem__, ends[flat].tolist()),
                        self.weights[flat].tolist()))

    def out_edges(self, x) -> dict:
        """head -> weight for edges leaving x, heads sorted (empty if none)."""
        i = self.index.get(x)
        return {} if i is None else self._edges_at(slice(*self.indptr[i:i + 2]), self.cols)

    def in_edges(self, x) -> dict:
        """tail -> weight for edges entering x, tails sorted."""
        i = self.index.get(x)
        return {} if i is None else self._edges_at(self.by_head[slice(*self.head_ptr[i:i + 2])],
                                                   self.tails)

    def edge_weight(self, t, h) -> float:
        k = self.pos.get((t, h))
        return 0.0 if k is None else float(self.weights[k])

    def out_weight(self, x) -> float:
        return sum(self.out_edges(x).values())

    def edges(self):
        """(tail, head, weight) in row order."""
        return ((t, h, w) for (t, h), w in zip(self.pos, self.weights.tolist()))

    def reversed(self) -> "WeightedDigraph":
        """The edge-reversed graph, built on the first call and then shared."""
        if self._rev is None:
            self._rev = WeightedDigraph(
                ((h, t, w) for t, h, w in self.edges()), vertices=self.vertices
            )
        return self._rev

    def dump(self) -> str:
        """Debug format: one ``tail head weight`` line per edge, sorted."""
        return "\n".join(f"{t} {h} {w!r}" for t, h, w in self.edges())

    @property
    def heads(self) -> dict:
        """vertex -> its sorted heads (built on the first read)."""
        if self._heads is None:
            ptr = self.indptr.tolist()
            cols = list(map(self.vertices.__getitem__, self.cols.tolist()))
            self._heads = {v: tuple(cols[ptr[i]:ptr[i + 1]]) for i, v in enumerate(self.vertices)}
        return self._heads

    def reach(self, sources, within=None, backward=False) -> list:
        """Flags over vertex positions: reachable from the positions in
        sources (with backward, reaching them), stepping only onto positions
        flagged in within (default all)."""
        if self._adj is None:  # (row pointers, neighbours) as lists, built once
            self._adj = ((self.indptr.tolist(), self.cols.tolist()),
                         (self.head_ptr.tolist(), self.tails[self.by_head].tolist()))
        ptr, nbrs = self._adj[backward]
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
            self._strong = len(self.vertices) < 2 or (
                all(self.reach([0])) and all(self.reach([0], backward=True))
            )
        return self._strong


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
    edges = _clamped_interior(p, 1, M - 1, 0, M) + _compensation(p, 0, 1) + _compensation(p, M, -1)
    edges.append((M, 0, dp.kappa1))
    return WeightedDigraph(edges, vertices=range(M + 1))


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
    edges = _clamped_interior(p, 1, W, 0, W) + _compensation(p, 0, 1)
    return WeightedDigraph(edges, vertices=range(W + 1))


def _clamped_interior(p: DirichletParams, lo: int, hi: int, floor: int, ceil: int):
    edges = []
    support = p.support
    for x in range(lo, hi + 1):
        for i in support:
            h = x + i
            if h < floor:
                h = floor
            elif h > ceil:
                h = ceil
            edges.append((x, h, p.alphas[i]))
    return edges


def _compensation(p: DirichletParams, end: int, side: int) -> list:
    """Compensation edges at an end of a closed window, where the sources
    beyond it collapse into it: for each offset k on the inner side (side +1
    at the left end, -1 at the right), the edge (end, end + k) carries the
    weight of the jumps i with the sign of k and |i| >= |k|, summed by
    increasing i."""
    edges = []
    for k in (range(1, p.R + 1) if side > 0 else range(-p.L, 0)):
        w = sum(p.alphas.get(i, 0.0) for i in (range(k, p.R + 1) if k > 0 else range(-p.L, k + 1)))
        if w > 0.0:
            edges.append((end, end + k, w))
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
    _check_vertices(g, S)
    if len(S) == 1:
        (x,) = S
        return g.edge_weight(x, x) > 0.0
    within = [v in S for v in g.vertices]
    anchor = [g.index[next(iter(S))]]
    return g.reach(anchor, within) == within == g.reach(anchor, within, backward=True)


def _check_vertices(g: WeightedDigraph, vs) -> None:
    """ValueError naming the members of vs that are not vertices of g."""
    missing = set(vs).difference(g.index)
    if missing:
        raise ValueError(f"vertices not in graph: {sorted(missing)}")
