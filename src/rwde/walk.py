"""Quenched and reinforced walk simulation, regeneration structure, and
velocity estimation.

Walks over the full integer line sample their environment lazily in blocks of
1024 sites keyed by (seed, block index), so the realized environment does not
depend on the order in which the walk explores it.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .environment import RngStream, _gamma_rows
from .errors import DeadEnd, NotAPath
from .graphs import WeightedDigraph, _check_vertices
from .model import DirichletParams, derive_params
from .stats import mean_and_se

_BLOCK = 1024
_NS_ENV = 1
_NS_WALK = 2
_CHUNK = 1024  # uniforms per draw from a reinforced walk's generator


@dataclass(frozen=True)
class VelocityEstimate:
    v_hat: float
    std_error: float
    method: str
    steps: int
    replicas: int
    used_replicas: int


@dataclass(frozen=True)
class MeanHittingEstimate:
    mean: float
    std_error: float
    censored_fraction: float
    horizon: int
    replicas: int


def simulate_line(p: DirichletParams, steps: int, rng: RngStream) -> np.ndarray:
    """Positions of one quenched walk from 0 on the full integer line, in a
    freshly sampled environment keyed by the stream."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return _LineWalker(p).positions(rng, steps)


def simulate_derrw_batch(g: WeightedDigraph, start, horizon: int, runs: int, rng: RngStream,
                         stop_on_return_to=None) -> list:
    """Positions (a tuple per run) of `runs` directed edge reinforced walks
    from `start`, run one after another on the single Philox stream
    ``rng.generator()``.

    Every run starts from the base weights, takes at most `horizon` steps and
    stops on reaching `stop_on_return_to` after at least one step.  Each step
    draws exactly one uniform u, also at a vertex with one out-edge, and takes
    the first out-edge, heads sorted, whose running weight sum exceeds u
    times the vertex's current total (the last edge if none does); that
    edge's weight and the vertex's total then grow by 1.0.  A run continues
    the stream where the previous one stopped, so n runs are the first n runs
    of any longer batch from the same stream.
    """
    _check_vertices(g, [start])
    verts = g.vertices
    ptr = g.indptr.tolist()
    cols = g.cols.tolist()
    base = g.weights.tolist()
    base_total = [math.fsum(base[ptr[i]:ptr[i + 1]]) for i in range(len(verts))]
    first = g.index[start]
    stop = g.index.get(stop_on_return_to, -1)
    # uniforms come in chunks; the stream does not depend on the chunk size
    size = min(_CHUNK, runs * horizon)
    chunks = map(np.ndarray.tolist, map(rng.generator().random, repeat(size)))
    uniform = chain.from_iterable(chunks).__next__
    out = []
    for _ in range(runs):
        weights = base[:]
        total = base_total[:]
        i = first
        path = [start]
        for _ in range(horizon):
            e = ptr[i]
            last = ptr[i + 1] - 1
            if last < e:
                raise DeadEnd(f"vertex {verts[i]!r} has no outgoing edges")
            r = uniform() * total[i]
            acc = weights[e]
            while r >= acc and e < last:
                e += 1
                acc += weights[e]
            weights[e] += 1.0
            total[i] += 1.0
            i = cols[e]
            path.append(verts[i])
            if i == stop:
                break
        out.append(tuple(path))
    return out


def annealed_path_probability(g: WeightedDigraph, path) -> float:
    """Probability of the exact vertex sequence under the reinforced-walk
    (equivalently, annealed) law: the product over steps of
    (w(e) + previous traversals of e) / (total weight at the tail + previous
    departures from the tail)."""
    path = list(path)
    if len(path) < 2:
        return 1.0
    extra_e = {}
    extra_v = {}
    prob = 1.0
    for t, h in zip(path, path[1:]):
        w = g.edge_weight(t, h)
        if w <= 0.0:
            raise NotAPath(f"({t!r}, {h!r}) is not an edge")
        total = g.out_weight(t) + extra_v.get(t, 0)
        prob *= (w + extra_e.get((t, h), 0)) / total
        extra_e[(t, h)] = extra_e.get((t, h), 0) + 1
        extra_v[t] = extra_v.get(t, 0) + 1
    return prob


def regeneration_times(positions, tail_buffer: int) -> list:
    """Times n >= 1 at which the walk is strictly right of its entire past
    and never again right of its current position.

    The future condition can only be checked inside the observed window; it is
    asserted for n <= len - 1 - tail_buffer and candidates violated within the
    window are discarded.
    """
    if tail_buffer < 0:
        raise ValueError("tail_buffer must be >= 0")
    x = np.asarray(positions)
    n = x.size
    if n <= 1:
        return []
    prefix_max = np.maximum.accumulate(x)
    past_ok = np.empty(n, dtype=bool)
    past_ok[0] = False
    past_ok[1:] = x[1:] > prefix_max[:-1]
    suffix_min = np.minimum.accumulate(x[::-1])[::-1]
    future_ok = np.empty(n, dtype=bool)
    future_ok[-1] = True
    future_ok[:-1] = x[:-1] <= suffix_min[1:]
    limit = n - 1 - tail_buffer
    idx = np.nonzero(past_ok & future_ok)[0]
    return idx[idx <= limit].tolist()


def default_tail_buffer(p: DirichletParams) -> int:
    """Observation buffer bounding the chance that a declared regeneration is
    violated beyond the horizon."""
    dp = derive_params(p)
    return 10 * (p.L + p.R) * math.ceil(1.0 / max(abs(dp.kappa1), 0.1))


def estimate_velocity(p: DirichletParams, steps: int, replicas: int,
                      method: str = "endpoint", seed: int = 0) -> VelocityEstimate:
    """Limiting-velocity estimate over independent replicas, each walking a
    freshly sampled environment on the integer line.

    endpoint: average of X_steps / steps.  regeneration: per-replica ratio of
    regeneration increments (position over time), discarding the first cycle;
    the standard error is taken across replicas either way.
    """
    if method not in ("endpoint", "regeneration"):
        raise ValueError(f"unknown method {method!r}")
    if steps < 1 or replicas < 1:
        raise ValueError(f"need steps >= 1 and replicas >= 1, "
                         f"got steps={steps}, replicas={replicas}")
    buffer = default_tail_buffer(p)
    if method == "regeneration" and steps < buffer + 2:
        # regeneration_times declares times in [1, steps - buffer] only, and
        # a replica's estimate needs two of them
        raise ValueError(f"regeneration needs steps >= the tail buffer {buffer} "
                         f"(default_tail_buffer) + 2, got steps={steps}")
    dp = derive_params(p)
    if dp.kappa1_is_zero:
        warnings.warn("kappa1 = 0 (recurrent): velocity estimate will be ~0")
    walker = _LineWalker(p)
    values = []
    for rep in range(replicas):
        stream = RngStream(seed, (rep,))
        if method == "endpoint":
            x = walker.final_position(stream, steps)
            values.append(x / steps)
        else:
            xs = walker.positions(stream, steps)
            taus = regeneration_times(xs, buffer)
            if len(taus) >= 2:
                dx = float(xs[taus[-1]] - xs[taus[0]])
                dt = float(taus[-1] - taus[0])
                values.append(dx / dt)
    if not values:
        return VelocityEstimate(float("nan"), float("nan"), method, steps, replicas, 0)
    mean, se = mean_and_se(values)
    return VelocityEstimate(mean, se, method, steps, replicas, len(values))


def estimate_mean_hitting(p: DirichletParams, horizon: int, replicas: int,
                          seed: int = 0) -> MeanHittingEstimate:
    """Empirical mean of the first time the walk reaches the right half-line
    [1, inf), reporting the fraction of replicas censored by the horizon
    instead of imputing them (a growing censored fraction is the signature of
    an infinite expectation)."""
    if horizon < 1 or replicas < 1:
        raise ValueError(f"need horizon >= 1 and replicas >= 1, "
                         f"got horizon={horizon}, replicas={replicas}")
    dp = derive_params(p)
    if dp.kappa1 <= 0:
        warnings.warn("mean hitting time of [1, inf) is intended for kappa1 > 0")
    walker = _LineWalker(p)
    hits = []
    censored = 0
    for rep in range(replicas):
        stream = RngStream(seed, (rep,))
        t = walker.first_time_at_or_above(stream, 1, horizon)
        if t is None:
            censored += 1
        else:
            hits.append(t)
    mean, se = mean_and_se(hits) if hits else (float("nan"), float("nan"))
    return MeanHittingEstimate(mean, se, censored / replicas, horizon, replicas)


def _first_rows(level: int) -> int:
    """Rows of block 0 that a first passage to `level` can read."""
    return min(max(level, 1), _BLOCK)


def _segment_runner(rnd, offs, append=None):
    """run(tab, lo, i, d): d steps from index i of a window with first site
    lo, no bounds check, returning the new index.  offs is None for a
    nearest-neighbour table (the right-step probability per site), else the
    support, chosen by bisecting the site's thresholds.  With `append` every
    new position is passed to it."""
    if offs is None and append is None:
        def run(tab, lo, i, d):
            for _ in range(d):
                i += 1 if rnd() < tab[i] else -1
            return i
    elif offs is None:
        def run(tab, lo, i, d):
            for _ in range(d):
                i += 1 if rnd() < tab[i] else -1
                append(lo + i)
            return i
    elif append is None:
        def run(tab, lo, i, d):
            for _ in range(d):
                i += offs[bisect_right(tab[i], rnd())]
            return i
    else:
        def run(tab, lo, i, d):
            for _ in range(d):
                i += offs[bisect_right(tab[i], rnd())]
                append(lo + i)
            return i
    return run


class _LineWalker:
    """Quenched walks on the integer line with block-lazy environments.

    Block b covers sites [1024*b, 1024*b + 1023] and is sampled from the
    stream (seed, rep, ENV, b), so the realized rows never depend on the
    order of first visits.  Exactly the blocks the walk visits are sampled.

    Every walk runs in segments (`_walk`): a window `tab` of one or two
    adjacent sampled blocks with first site `lo` holds the walk at index
    i = x - lo.  With jumps in [-L, R] the next
    d = min(i // L, (len(tab) - 1 - i) // R) + 1 steps (at most the steps
    left) read only rows inside the window, so they run without a bounds
    check.  Leaving the window samples the block entered if it is new and
    joins it to its neighbour on the side the walk came from; if a jump
    longer than a block skipped that neighbour, the window is the entered
    block alone.  A first passage to `level` also caps d at
    (level - x - 1) // R + 1 (at 1 before the first step), so it can hit
    only on a segment's last step.  A general site picks its offset by
    bisecting its thresholds, which gives the same offset as a linear scan,
    ties included.

    First passage reads the row at 0 and then only rows below `level`, so
    block 0 is drawn as its first min(max(level, 1), 1024) rows: the same
    rows as the full block, since gamma variates are drawn in row order.  If
    one of those rows underflows to all zeros, the full block is drawn from a
    fresh generator on the same key instead, so the redraw matches.
    """

    def __init__(self, p: DirichletParams):
        self.p = p
        self.support = p.support
        self.weights = np.array([p.alphas[i] for i in self.support])
        self.nn = self.support == (-1, 1)

    # -- block sampling ------------------------------------------------------

    def _rows(self, stream: RngStream, b: int, a: np.ndarray, rows: int) -> np.ndarray:
        """The first `rows` normalized gamma rows of block b."""
        key = stream.substream(_NS_ENV, b)
        if rows < _BLOCK:
            out = _gamma_rows(key.generator(), a, rows, redraw=False)
            if out is not None:
                return out
        return _gamma_rows(key.generator(), a, _BLOCK)

    def _nn_block(self, stream: RngStream, b: int, rows: int = _BLOCK) -> list:
        """Per site, the probability of the step to the right."""
        a = np.array([self.p.alphas[1], self.p.alphas[-1]])
        return self._rows(stream, b, a, rows)[:, 0].copy().tolist()

    def _gen_block(self, stream: RngStream, b: int, rows: int = _BLOCK) -> list:
        """Per site, the first k-1 cumulative row sums as Python floats: the
        thresholds between the k offsets (the last sum is never read)."""
        g = self._rows(stream, b, self.weights, rows)
        for j in range(1, g.shape[1] - 1):
            g[:, j] += g[:, j - 1]  # np.cumsum(axis=1) adds in this order
        flat = iter(g[:, :-1].ravel().tolist())
        return list(zip(*[flat] * (g.shape[1] - 1)))  # regroup by site

    # -- walks -----------------------------------------------------------------

    def _walk(self, stream: RngStream, steps: int, level, run) -> tuple:
        """Drive a walk of at most `steps` steps from 0 in segments;
        run(tab, lo, i, d) takes d steps from index i of the window and
        returns the new index.  With a `level` the walk stops on reaching
        it.  Returns (final position, steps taken)."""
        if steps < 1:
            return 0, 0
        block = self._nn_block if self.nn else self._gen_block
        L, R = self.p.L, self.p.R
        blocks = {0: block(stream, 0, _BLOCK if level is None else _first_rows(level))}
        tab, lo = blocks[0], 0
        x = n = 0
        while n < steps:
            i = x - lo
            if not 0 <= i < len(tab):
                b = x >> 10
                if b not in blocks:
                    blocks[b] = block(stream, b)
                first = b if i < 0 else b - 1  # the block entered and its neighbour
                if first in blocks and first + 1 in blocks:
                    tab, lo = blocks[first] + blocks[first + 1], first << 10
                else:  # a jump skipped the neighbour
                    tab, lo = blocks[b], b << 10
                i = x - lo
            d = min(i // L, (len(tab) - 1 - i) // R) + 1
            if d > steps - n:
                d = steps - n
            if level is not None:
                d = min(d, max((level - x - 1) // R + 1, 1))
            x = lo + run(tab, lo, i, d)
            n += d
            if level is not None and x >= level:
                break
        return x, n

    def _runner(self, stream: RngStream, append=None):
        rnd = stream.substream(_NS_WALK).python_random().random
        return _segment_runner(rnd, None if self.nn else self.support, append)

    def final_position(self, stream: RngStream, steps: int) -> int:
        return self._walk(stream, steps, None, self._runner(stream))[0]

    def positions(self, stream: RngStream, steps: int) -> np.ndarray:
        out = [0]
        self._walk(stream, steps, None, self._runner(stream, out.append))
        return np.fromiter(out, np.int64, len(out))  # np.array(out) would scan for a dtype

    def first_time_at_or_above(self, stream: RngStream, level: int, horizon: int):
        x, n = self._walk(stream, horizon, level, self._runner(stream))
        return n if n and x >= level else None
