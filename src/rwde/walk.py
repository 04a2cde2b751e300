"""Quenched and reinforced walk simulation, path statistics, regeneration
structure, and velocity estimation.

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

from .environment import Environment, RngStream, _gamma_rows
from .errors import DeadEnd, NotAPath, StartOutsideWindow
from .graphs import WeightedDigraph
from .model import DirichletParams, derive_params

_BLOCK = 1024
_NS_ENV = 1
_NS_WALK = 2
_CHUNK = 1024  # uniforms per draw from a reinforced walk's generator


@dataclass(frozen=True)
class Trajectory:
    start: int
    positions: tuple  # positions[0] == start
    stop_reason: str  # horizon | hit_target | left_window
    seed: int = 0
    stream: tuple = ()


@dataclass(frozen=True)
class WalkStats:
    """Path statistics per the hitting-time / occupation-count definitions.

    hitting[x] / first_return[x]: H_x and first positive hitting time (None
    when not reached within the horizon).  visits[x]: total time at x.
    visits_before_exit[(x, S)]: time at x before first leaving S.
    trips[(x, y)]: visits to x whose most recent y-visit is more recent than
    the most recent x-visit.  crossings[(x, y)]: leftward crossings of the
    interval, i.e. times at or left of x more recently preceded by a visit at
    or right of y.
    """

    hitting: dict
    first_return: dict
    visits: dict
    visits_before_exit: dict
    trips: dict
    crossings: dict
    regenerations: list

    def to_json(self) -> dict:
        def t(v):
            return None if v is None else int(v)

        return {
            "H": {str(x): t(v) for x, v in sorted(self.hitting.items())},
            "Htilde": {str(x): t(v) for x, v in sorted(self.first_return.items())},
            "N": {str(x): int(v) for x, v in sorted(self.visits.items())},
            "N_trips": {f"{x},{y}": int(v) for (x, y), v in sorted(self.trips.items())},
            "N_cross": {f"{x},{y}": int(v) for (x, y), v in sorted(self.crossings.items())},
            "regenerations": [int(v) for v in self.regenerations],
        }


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


def simulate_quenched(env: Environment, start: int, horizon: int, rng: RngStream,
                      targets=None) -> Trajectory:
    """Markov chain driven by the environment rows.

    Without targets the walk stops at the horizon or on entering the window's
    boundary band (within L of the left edge or R of the right edge, with L
    and R read off the edge offsets), where the clamped rows no longer match
    the infinite line.  With targets the walk stops on hitting any of them
    instead, and the band rule is disabled.
    """
    verts = env.vertices
    lo, hi = verts[0], verts[-1]
    if targets is None:
        l_eff = max((t - h for t, h, _ in env.graph.edges()), default=0)
        r_eff = max((h - t for t, h, _ in env.graph.edges()), default=0)
        lo_stop, hi_stop = lo + l_eff - 1, hi - r_eff + 1
        if not (lo_stop < start < hi_stop):
            raise StartOutsideWindow(f"start {start} not in interior ({lo_stop}, {hi_stop})")
        target_set = None
    else:
        target_set = set(targets)
        if start not in verts:
            raise StartOutsideWindow(f"start {start} not a vertex")
        lo_stop = hi_stop = None

    rnd = rng.python_random().random
    x = start
    positions = [x]
    reason = "horizon"
    for _ in range(horizon):
        heads, probs = env.row(x)
        r = rnd()
        acc = 0.0
        nxt = heads[-1]
        for h, q in zip(heads, probs):
            acc += q
            if r < acc:
                nxt = h
                break
        x = nxt
        positions.append(x)
        if target_set is not None:
            if x in target_set:
                reason = "hit_target"
                break
        elif x <= lo_stop or x >= hi_stop:
            reason = "left_window"
            break
    return Trajectory(start=start, positions=tuple(positions), stop_reason=reason,
                      seed=rng.seed, stream=rng.index)


def simulate_derrw(g: WeightedDigraph, start, horizon: int, rng: RngStream,
                   stop_on_return_to=None) -> Trajectory:
    """Directed edge reinforced walk: step along an edge with probability
    proportional to its current weight, then increase that weight by 1.  The
    one-run case of simulate_derrw_batch."""
    path = simulate_derrw_batch(g, start, horizon, 1, rng, stop_on_return_to)[0]
    hit = len(path) > 1 and path[-1] == stop_on_return_to
    return Trajectory(start=start, positions=path, stop_reason="hit_target" if hit else "horizon",
                      seed=rng.seed, stream=rng.index)


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
    lay = g._layout()
    verts = g.vertices
    ptr = lay.indptr.tolist()
    cols = lay.cols.tolist()
    base = lay.weights.tolist()
    base_total = [math.fsum(base[ptr[i]:ptr[i + 1]]) for i in range(len(verts))]
    first = lay.index[start]
    stop = lay.index.get(stop_on_return_to, -1)
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


def trajectory_stats(traj: Trajectory, sites=(), site_sets=(), pairs=(),
                     tail_buffer: int = 0) -> WalkStats:
    """Single left-to-right scan computing all queried statistics.

    pairs entries are (x, y) with x < y.  site_sets entries are (x, S) with
    x in S; the count stops at the first exit from S.
    """
    xs = traj.positions
    sites = tuple(sites)
    hitting = {s: None for s in sites}
    first_return = {s: None for s in sites}
    visits = {s: 0 for s in sites}

    site_sets = [(x, frozenset(S)) for x, S in site_sets]
    in_set_open = {key: True for key in range(len(site_sets))}
    visits_before_exit = {(x, S): 0 for x, S in site_sets}

    pairs = tuple(pairs)
    for x, y in pairs:
        if not x < y:
            raise ValueError(f"pair {x, y} must have x < y")
    pair_sites = {v for pair in pairs for v in pair}
    last_at = {v: None for v in pair_sites}  # most recent visit time
    last_le = {x: None for x, _ in pairs}    # most recent time at or left of x
    last_ge = {y: None for _, y in pairs}    # most recent time at or right of y
    trips = {pair: 0 for pair in pairs}
    crossings = {pair: 0 for pair in pairs}

    for n, z in enumerate(xs):
        if z in hitting:
            if hitting[z] is None:
                hitting[z] = n
            if n >= 1 and first_return[z] is None:
                first_return[z] = n
            visits[z] += 1
        for key, (sx, S) in enumerate(site_sets):
            if in_set_open[key]:
                if z not in S:
                    in_set_open[key] = False
                elif z == sx:
                    visits_before_exit[(sx, S)] += 1
        for x, y in pairs:
            if z == x:
                lx = last_at[x]
                ly = last_at[y]
                if ly is not None and (lx is None or ly > lx):
                    trips[(x, y)] += 1
            if z <= x:
                ge = last_ge[y]
                le = last_le[x]
                if ge is not None and (le is None or ge > le):
                    crossings[(x, y)] += 1
        # bookkeeping updates come after the checks: conditions look at j < n
        if z in pair_sites:
            last_at[z] = n
        for x, y in pairs:
            if z <= x:
                last_le[x] = n
            if z >= y:
                last_ge[y] = n

    return WalkStats(
        hitting=hitting,
        first_return=first_return,
        visits=visits,
        visits_before_exit=visits_before_exit,
        trips=trips,
        crossings=crossings,
        regenerations=regeneration_times(traj, tail_buffer),
    )


def regeneration_times(traj: Trajectory, tail_buffer: int) -> list:
    """Times n >= 1 at which the walk is strictly right of its entire past
    and never again right of its current position.

    The future condition can only be checked inside the observed window; it is
    asserted for n <= len - 1 - tail_buffer and candidates violated within the
    window are discarded.
    """
    if tail_buffer < 0:
        raise ValueError("tail_buffer must be >= 0")
    x = np.asarray(traj.positions)
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
    return [int(i) for i in idx if i <= limit]


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
    dp = derive_params(p)
    if dp.kappa1_is_zero:
        warnings.warn("kappa1 = 0 (recurrent): velocity estimate will be ~0")
    walker = _LineWalker(p)
    values = []
    buffer = default_tail_buffer(p)
    for rep in range(replicas):
        stream = RngStream(seed, (rep,))
        if method == "endpoint":
            x = walker.final_position(stream, steps)
            values.append(x / steps)
        else:
            xs = walker.positions(stream, steps)
            taus = _regen_indices(xs, buffer)
            if len(taus) >= 2:
                dx = float(xs[taus[-1]] - xs[taus[0]])
                dt = float(taus[-1] - taus[0])
                values.append(dx / dt)
    if not values:
        return VelocityEstimate(float("nan"), float("nan"), method, steps, replicas, 0)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return VelocityEstimate(mean, se, method, steps, replicas, len(values))


def estimate_mean_hitting(p: DirichletParams, horizon: int, replicas: int,
                          seed: int = 0) -> MeanHittingEstimate:
    """Empirical mean of the first time the walk reaches the right half-line
    [1, inf), reporting the fraction of replicas censored by the horizon
    instead of imputing them (a growing censored fraction is the signature of
    an infinite expectation)."""
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
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
    if hits:
        mean = float(np.mean(hits))
        se = float(np.std(hits, ddof=1) / math.sqrt(len(hits))) if len(hits) > 1 else 0.0
    else:
        mean = float("nan")
        se = float("nan")
    return MeanHittingEstimate(mean, se, censored / replicas, horizon, replicas)


def _regen_indices(xs: np.ndarray, tail_buffer: int) -> list:
    traj = Trajectory(start=int(xs[0]), positions=xs, stop_reason="horizon")
    return regeneration_times(traj, tail_buffer)


class _LineWalker:
    """Quenched walks on the integer line with block-lazy environments.

    Block b covers sites [1024*b, 1024*b + 1023] and is sampled from the
    stream (seed, rep, ENV, b), so the realized rows never depend on the
    order of first visits.
    """

    def __init__(self, p: DirichletParams):
        self.p = p
        self.support = p.support
        self.weights = np.array([p.alphas[i] for i in self.support])
        self.nn = self.support == (-1, 1)

    # -- block sampling ------------------------------------------------------

    def _nn_block(self, stream: RngStream, b: int) -> list:
        gen = stream.substream(_NS_ENV, b).generator()
        a_right = self.p.alphas[1]
        a_left = self.p.alphas[-1]
        rows = _gamma_rows(gen, np.array([a_right, a_left]), _BLOCK)
        return rows[:, 0].tolist()

    def _gen_block(self, stream: RngStream, b: int) -> list:
        """Per site, the first k-1 cumulative row sums as Python floats: the
        thresholds between the k offsets (the last sum is never read)."""
        gen = stream.substream(_NS_ENV, b).generator()
        rows = _gamma_rows(gen, self.weights, _BLOCK)
        flat = iter(np.cumsum(rows[:, :-1], axis=1).ravel().tolist())
        return list(zip(*[flat] * (rows.shape[1] - 1)))  # regroup by site

    def _block_at(self, stream: RngStream, blocks: dict, x: int) -> tuple:
        """The block holding site x, sampled on first use, and its first site."""
        b = x >> 10
        blk = blocks.get(b)
        if blk is None:
            sample = self._nn_block if self.nn else self._gen_block
            blk = blocks[b] = sample(stream, b)
        return blk, b << 10

    # -- kernels ---------------------------------------------------------------
    #
    # Each loop keeps the current block `blk` and its first site `lo`, and
    # looks a block up only when x leaves [lo, lo + 1024), i.e. when
    # (x - lo) >> 10 is nonzero.  lo starts at 1024 so that the first step
    # samples block 0.  The general kernel bisects the site's threshold
    # table, which picks the same offset as a linear scan, ties included.

    def final_position(self, stream: RngStream, steps: int) -> int:
        rnd = stream.substream(_NS_WALK).python_random().random
        blocks = {}
        blk, lo = None, _BLOCK
        x = 0
        if self.nn:
            for _ in range(steps):
                i = x - lo
                if i >> 10:
                    blk, lo = self._block_at(stream, blocks, x)
                    i = x - lo
                x += 1 if rnd() < blk[i] else -1
            return x
        offs = self.support
        for _ in range(steps):
            i = x - lo
            if i >> 10:
                blk, lo = self._block_at(stream, blocks, x)
                i = x - lo
            x += offs[bisect_right(blk[i], rnd())]
        return x

    def positions(self, stream: RngStream, steps: int) -> np.ndarray:
        rnd = stream.substream(_NS_WALK).python_random().random
        blocks = {}
        blk, lo = None, _BLOCK
        x = 0
        out = [0]
        append = out.append
        if self.nn:
            for _ in range(steps):
                i = x - lo
                if i >> 10:
                    blk, lo = self._block_at(stream, blocks, x)
                    i = x - lo
                x += 1 if rnd() < blk[i] else -1
                append(x)
        else:
            offs = self.support
            for _ in range(steps):
                i = x - lo
                if i >> 10:
                    blk, lo = self._block_at(stream, blocks, x)
                    i = x - lo
                x += offs[bisect_right(blk[i], rnd())]
                append(x)
        return np.fromiter(out, np.int64, len(out))  # np.array(out) would scan for a dtype

    def first_time_at_or_above(self, stream: RngStream, level: int, horizon: int):
        rnd = stream.substream(_NS_WALK).python_random().random
        blocks = {}
        blk, lo = None, _BLOCK
        x = 0
        if self.nn:
            for n in range(1, horizon + 1):
                i = x - lo
                if i >> 10:
                    blk, lo = self._block_at(stream, blocks, x)
                    i = x - lo
                x += 1 if rnd() < blk[i] else -1
                if x >= level:
                    return n
            return None
        offs = self.support
        for n in range(1, horizon + 1):
            i = x - lo
            if i >> 10:
                blk, lo = self._block_at(stream, blocks, x)
                i = x - lo
            x += offs[bisect_right(blk[i], rnd())]
            if x >= level:
                return n
        return None
