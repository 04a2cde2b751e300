"""Sampling of Dirichlet environments on finite graphs and reproducible
counter-based random streams.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import IsolatedVertex
from .graphs import WeightedDigraph, _check_vertices

_U64 = (1 << 64) - 1

# Rows whose gamma draws underflow to exact zero are redrawn; tiny
# concentrations (the trapping regime) make this non-negligible.
_resample_count = 0


def resample_count() -> int:
    return _resample_count


@dataclass(frozen=True)
class RngStream:
    """Counter-based splittable random stream keyed by (seed, index).

    Distinct (seed, index) pairs give statistically independent Philox
    streams; identical pairs reproduce byte-identical draws.
    """

    seed: int
    index: tuple = ()

    def substream(self, *parts) -> "RngStream":
        return RngStream(self.seed, self.index + tuple(int(p) & _U64 for p in parts))

    def generator(self) -> Generator:
        seq = SeedSequence(entropy=self.seed & _U64, spawn_key=self.index)
        return Generator(Philox(seq))

    def python_random(self):
        """Fast stdlib RNG seeded from this stream (used in step loops)."""
        import random

        state = SeedSequence(entropy=self.seed & _U64, spawn_key=self.index).generate_state(2)
        return random.Random((int(state[0]) << 32) ^ int(state[1]))


_MIN_POSITIVE = 5e-324  # smallest subnormal double

# A gamma(a) variate with a < 1 falls below the smallest subnormal with
# chance about 5e-324 ** a = exp(-744.4 a), so a row is all zeros with chance
# about exp(-744.4 sum(a)).  Below this row weight a redraw succeeds with
# chance under 7.4e-5; at 1e-300 it never does.
_MIN_REDRAW_WEIGHT = 1e-7


def _row_sums(g: np.ndarray) -> np.ndarray:
    """g.sum(axis=1), bit for bit.  Below 8 columns numpy sums each row left
    to right, so column adds give the same floats without the per-row
    reduction overhead (20 us for 1024 rows of 2)."""
    if g.shape[1] >= 8:
        return g.sum(axis=1)
    sums = g[:, 0].copy()
    for j in range(1, g.shape[1]):
        sums += g[:, j]
    return sums


def _gamma_rows(gen: Generator, a: np.ndarray, n: int, redraw: bool = True):
    """n independent normalized gamma rows with shape vector a, all entries
    guaranteed strictly positive.

    Rows whose draws all underflow to zero are redrawn (see resample_count),
    or refused with a ValueError if a sums below _MIN_REDRAW_WEIGHT;
    with redraw=False such a row makes the call return None instead, so the
    n rows drawn are always the first n rows of any longer call on the same
    generator state.  Individual underflowed entries are clamped to the
    smallest positive double after normalization: their true conditional
    values sit below 1e-300, so the clamp is invisible to any moment or tail
    statistic while preserving the (0, 1] row invariant.
    """
    global _resample_count
    # standard_gamma: the variates of gamma(a) (scale 1) at less overhead
    g = gen.standard_gamma(a, size=(n, a.size))
    sums = _row_sums(g)
    bad = np.flatnonzero(sums == 0.0)  # entries are >= 0: a zero sum is an all-zero row
    if bad.size and not redraw:
        return None
    if bad.size and a.sum() < _MIN_REDRAW_WEIGHT:
        raise ValueError(f"Dirichlet weights {a.tolist()} sum below {_MIN_REDRAW_WEIGHT}: their "
                         f"gamma rows underflow to all zeros too often to redraw")
    while bad.size:
        _resample_count += int(bad.size)
        g[bad] = gen.standard_gamma(a, size=(bad.size, a.size))
        sums[bad] = _row_sums(g[bad])
        bad = bad[sums[bad] == 0.0]
    rows = g / sums[:, None]
    return np.maximum(rows, _MIN_POSITIVE, out=rows)  # clamps exactly the zeros


class Environment:
    """One environment, ``probs`` in the order of ``graph.edges()``: an
    adapter kept only for the benchmark, whose tracer wraps __init__ and
    whose beta-law check reads row.  The library's one environment form is
    a row of the (k, edges) matrix of sample_rows; ROADMAP item 19 deletes
    this class and sample_environments once the benchmark reads that."""

    __slots__ = ("graph", "probs")

    def __init__(self, graph: WeightedDigraph, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != graph.weights.shape:
            raise ValueError(f"need shape ({graph.weights.size},), got {probs.shape}")
        check_rows(graph, probs[None])
        self.graph = graph
        self.probs = probs

    def row(self, x):
        """(the sorted heads of x, their probabilities as a view of probs)."""
        g = self.graph
        i = g.index.get(x)
        if i is None:
            _check_vertices(g, [x])
        lo, hi = g.indptr[i], g.indptr[i + 1]
        return tuple(map(g.vertices.__getitem__, g.cols[lo:hi].tolist())), self.probs[lo:hi]


ROW_SUM_TOL = 1e-12  # how far from 1 check_rows lets a row sum lie


def check_rows(g: WeightedDigraph, probs: np.ndarray) -> None:
    """ValueError unless every row of the (k, edges) matrix probs, environment
    j in the order of ``g.edges()``, is a probability vector at each vertex:
    entries in (0, 1] and a sum within ROW_SUM_TOL of 1 (NaN fails).
    IsolatedVertex if a vertex of g has no out-edge."""
    _check_out_edges(g)
    vals = np.where((probs > 0.0) & (probs <= 1.0), probs, np.nan)  # a bad entry spoils its sum
    bad = ~(np.abs(np.add.reduceat(vals, g.indptr[:-1], axis=1) - 1.0) <= ROW_SUM_TOL)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"row at {g.vertices[j]!r} is not a probability vector: "
                         f"{probs[i, g.indptr[j]:g.indptr[j + 1]].tolist()}")


def sample_environments(g: WeightedDigraph, stream: RngStream, n: int) -> list:
    """The rows of sample_rows as Environments, for the benchmark."""
    return [Environment(g, row) for row in sample_rows(g, stream, n)]


def _check_out_edges(g: WeightedDigraph) -> None:
    """IsolatedVertex if a vertex of g has no out-edge."""
    groups = g.row_groups
    if groups and groups[0][1].shape[1] == 0:
        raise IsolatedVertex(f"vertex {g.vertices[groups[0][0][0]]!r} has no outgoing edges")


# Rows per gamma call in sample_rows: a beta-law window of 40 environments
# is one call, and 2000 environments on 512 sites draw 1 MB of variates at a
# time.
_RUN_ROWS = 1 << 16


def sample_rows(g: WeightedDigraph, stream: RngStream, n: int) -> np.ndarray:
    """n environments on g from one RngStream, a pure function of (stream,
    n): an (n, edges) matrix whose row j is environment j in the order of
    ``g.edges()``.

    The environments are drawn vertex by vertex: vertex x's n rows come from
    ``_gamma_rows`` after those of the vertices before it.  A run of
    consecutive vertices with equal weight rows is drawn in calls of up to
    _RUN_ROWS rows, which give the same variates and floats as one call per
    vertex; if a row of a call underflows to zeros, the generator is rewound
    and the call's vertices are drawn one by one, which redraws and counts
    such rows where the per-vertex calls would."""
    _check_out_edges(g)
    gen = stream.generator()
    out = np.empty((n, g.weights.size))
    ptr, cols, weights = g.indptr.tolist(), g.cols.tolist(), g.weights.tolist()
    runs, prev = [], None
    for i in range(len(ptr) - 1):
        row = None if cols[ptr[i]:ptr[i + 1]] == [i] else weights[ptr[i]:ptr[i + 1]]
        if row is None:
            out[:, ptr[i]] = 1.0  # a lone self-loop is certain
        elif row == prev:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
        prev = row
    step = max(1, _RUN_ROWS // max(n, 1))
    for lo, hi in runs:
        a = g.weights[ptr[lo]:ptr[lo + 1]]
        for v in range(lo, hi, step):
            m = min(step, hi - v)
            state = gen.bit_generator.state
            rows = _gamma_rows(gen, a, m * n, redraw=False)
            if rows is None:
                gen.bit_generator.state = state
                rows = np.concatenate([_gamma_rows(gen, a, n) for _ in range(m)])
            np.copyto(out[:, ptr[v]:ptr[v + m]].reshape(n, m, a.size),
                      rows.reshape(m, n, a.size).transpose(1, 0, 2))
    return out
