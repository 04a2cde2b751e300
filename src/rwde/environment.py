"""Sampling of Dirichlet environments on finite graphs, reproducible
counter-based random streams, and the simplex utilities (amalgamation,
restriction checks) used throughout the verification suites.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import BadPartition, IsolatedVertex, NonpositiveConcentration
from .graphs import WeightedDigraph

_U64 = (1 << 64) - 1

# Rows whose gamma draws underflow to exact zero are redrawn; tiny
# concentrations (the trapping regime) make this non-negligible.
_resample_count = 0


def resample_count() -> int:
    return _resample_count


def reset_resample_count() -> None:
    global _resample_count
    _resample_count = 0


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


def _as_generator(rng) -> Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def sample_dirichlet(concentrations, rng) -> np.ndarray:
    """One draw from the Dirichlet law via normalized Gamma(a_i, 1) variates.

    Rows containing an exact floating-point zero (gamma underflow at small
    shapes) are redrawn; see resample_count().
    """
    gen = _as_generator(rng)
    a = np.asarray(concentrations, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise NonpositiveConcentration("need a nonempty 1-d concentration vector")
    if not np.all(a > 0.0):
        raise NonpositiveConcentration(f"concentrations must be > 0, got {a}")
    if a.size == 1:
        return np.array([1.0])
    return _gamma_rows(gen, a, 1)[0]


_MIN_POSITIVE = 5e-324  # smallest subnormal double


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

    Rows whose draws all underflow to zero are redrawn (see resample_count);
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
    while bad.size:
        _resample_count += int(bad.size)
        g[bad] = gen.standard_gamma(a, size=(bad.size, a.size))
        sums[bad] = _row_sums(g[bad])
        bad = bad[sums[bad] == 0.0]
    rows = g / sums[:, None]
    return np.maximum(rows, _MIN_POSITIVE, out=rows)  # clamps exactly the zeros


class Environment:
    """Transition rows on a finite graph: row(x) is a probability vector over
    the out-neighbors of x."""

    __slots__ = ("graph", "_rows", "_probs")

    ROW_SUM_TOL = 1e-12

    def __init__(self, graph: WeightedDigraph, rows: dict | None = None, _probs=None):
        self.graph = graph
        if _probs is not None:
            # flat rows from the batch sampler: support, sums and positivity
            # are guaranteed by construction
            self._rows = None
            self._probs = _probs
            return
        checked, flat = {}, []
        for x, sorted_heads in graph._layout().heads.items():
            heads, probs = rows[x]
            heads, probs = tuple(heads), np.asarray(probs, dtype=float)
            if sorted_heads != tuple(sorted(heads)) or probs.shape != (len(heads),):
                raise ValueError(f"row support at {x} does not match out-edges")
            checked[x] = (heads, probs)
            flat.append(probs if heads == sorted_heads
                        else probs[sorted(range(len(heads)), key=heads.__getitem__)])
        self._rows = checked
        self._probs = np.concatenate(flat or [np.empty(0)])
        _check_rows(graph, self._probs[None])

    @property
    def vertices(self) -> tuple:
        return self.graph.vertices

    @property
    def probs(self) -> np.ndarray:
        """All transition probabilities, row by row in the order of
        ``graph.edges()``."""
        return self._probs

    def row(self, x):
        if self._rows is None:
            lay = self.graph._layout()
            ptr = lay.indptr.tolist()
            self._rows = {
                v: (heads, self._probs[ptr[i]:ptr[i + 1]])
                for i, (v, heads) in enumerate(lay.heads.items())
            }
        return self._rows[x]

    def prob(self, x, y) -> float:
        k = self.graph._layout().pos.get((x, y))
        return 0.0 if k is None else float(self._probs[k])

    def dump(self) -> str:
        """Golden-test format: ``x head prob`` lines, sorted."""
        lines = []
        for x in self.vertices:
            heads, probs = self.row(x)
            for h, q in sorted(zip(heads, probs)):
                lines.append(f"{x} {h} {q!r}")
        return "\n".join(lines)


def _check_rows(g: WeightedDigraph, probs: np.ndarray) -> None:
    """ValueError unless each row of the (k, edges) matrix probs sums to 1
    within Environment.ROW_SUM_TOL and has its entries in (0, 1]."""
    for rows, flat in g._layout().row_groups:
        block = np.take(probs, flat, axis=1)
        bad = ((np.abs(block.sum(axis=2) - 1.0) > Environment.ROW_SUM_TOL)
               | ((block <= 0.0) | (block > 1.0)).any(axis=2))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"row at {g.vertices[rows[j]]!r} is not a probability "
                             f"vector: {block[i, j].tolist()}")


def sample_environment(g: WeightedDigraph, rng) -> Environment:
    """One environment on g: independent rows, row at x Dirichlet with the
    out-edge weights at x as concentrations."""
    return sample_environments(g, rng, 1)[0]


def sample_environments(g: WeightedDigraph, rng, n: int) -> list:
    """n independent environments, sampled per vertex in one batch.

    Vertices are processed in sorted order from a single generator, so the
    output is a pure function of (stream, n).  For n == 1 one gamma call
    draws every row that is not a lone self-loop and each row is divided by
    its own ``sum()``: the variates and floats of the per-vertex calls, so
    the same environment.  If a row underflows to zeros, the generator is
    rewound and the per-vertex path, which redraws and counts such rows,
    runs instead.
    """
    gen = _as_generator(rng)
    lay = g._layout()
    groups = lay.row_groups
    if groups and groups[0][1].shape[1] == 0:
        raise IsolatedVertex(f"vertex {g.vertices[groups[0][0][0]]!r} has no outgoing edges")
    if n == 1:
        state = gen.bit_generator.state
        probs = np.ones(lay.weights.size)
        # the variates of gamma(a) (scale 1) at half its call overhead
        probs[lay.drawn] = gen.standard_gamma(lay.weights[lay.drawn])
        for _, flat in groups:
            rows = probs[flat]
            sums = rows.sum(axis=1, keepdims=True)
            if not sums.all():
                gen.bit_generator.state = state
                break
            probs[flat] = rows / sums
        else:
            probs[probs == 0.0] = _MIN_POSITIVE
            return [Environment(g, _probs=probs)]
    blocks = []
    for i, (x, heads) in enumerate(lay.heads.items()):
        if heads == (x,):
            blocks.append(np.ones((n, 1)))
        else:
            blocks.append(_gamma_rows(gen, lay.weights[lay.indptr[i]:lay.indptr[i + 1]], n))
    flat = np.concatenate(blocks, axis=1) if blocks else np.empty((n, 0))
    return [Environment(g, _probs=row) for row in flat]


def amalgamate(v, partition) -> np.ndarray:
    """Block sums of a probability vector over a disjoint cover of indices."""
    v = np.asarray(v, dtype=float)
    seen = []
    for block in partition:
        seen.extend(block)
    if sorted(seen) != list(range(v.size)):
        raise BadPartition(f"blocks {partition!r} do not cover 0..{v.size - 1} exactly")
    return np.array([v[list(block)].sum() for block in partition])
