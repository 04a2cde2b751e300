"""Exact quenched computations on finite environments by subtraction-free
elimination: hitting probabilities, expected occupation before exit,
invariant measures, time reversal, and the escape probability from the
origin of a half-line truncation.  Every solve takes k environments on a
graph g as a (k, edges) matrix probs, row j environment j in ``g.edges()``
order; one environment is ``probs[None]``.
"""
from __future__ import annotations

import numpy as np

from .environment import _MIN_POSITIVE, check_rows
from .errors import (
    NoExit,
    NotStronglyConnected,
    SingularSystem,
    UnreachableBoundary,
)
from .graphs import WeightedDigraph, _check_vertices, strongly_connected
from .model import DirichletParams, derive_params

RESIDUAL_TOL = 1e-10


def hitting_rows(g: WeightedDigraph, target, taboo, probs: np.ndarray) -> np.ndarray:
    """z -> P^z(hit target before taboo) for k environments on g: row j of
    the result is environment j's bounded harmonic solution with boundary
    values 1 on the target and 0 on the taboo, clamped to [0, 1], in
    ``g.vertices`` order.  ValueError names target or taboo members that are
    not vertices, and rejects an empty target and a target that meets the
    taboo."""
    if not target:
        raise ValueError("target set must be nonempty")
    if set(target) & set(taboo):
        raise ValueError("target and taboo sets must be disjoint")
    _check_vertices(g, [*target, *taboo])
    kind = np.zeros(len(g.vertices), dtype=np.int8)
    for k, part in ((1, target), (2, taboo)):
        kind[[g.index[v] for v in part]] = k
    return _hitting(g, kind, probs)


def _hitting(g: WeightedDigraph, kind: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """hitting_rows with the vertex classes kind: 0 unknown, 1 target, 2
    taboo; kind gains the sure classes below in place.

    Every probability is positive, so which values are 0 or 1 is a property
    of the graph (Prob0/Prob1, Baier-Katoen, Principles of Model Checking):
    a vertex that cannot reach the target has h = 0, and one that cannot
    reach the taboo has h = 1 (every vertex it can reach reaches the
    target).  Only the other vertices are eliminated."""
    inner = (kind == 0).tolist()
    hits, meets = (np.array(g.reach(np.flatnonzero(kind == k).tolist(), inner, backward=True))
                   for k in (1, 2))
    missing = np.flatnonzero((kind == 0) & ~hits & ~meets)
    if missing.size:
        raise UnreachableBoundary("no path to target/taboo from "
                                  f"{[g.vertices[i] for i in missing[:5].tolist()]!r}")
    kind[(kind == 0) & ~meets] = 1
    kind[(kind == 0) & ~hits] = 2
    out = np.zeros((len(probs), len(g.vertices)))
    out[:, kind == 1] = 1.0
    if (kind == 0).any():
        # adding 0.0 turns a clamped -0.0 into 0.0
        out[:, kind == 0] = np.clip(_eliminate(g, kind, probs), 0.0, 1.0) + 0.0
    return out


# Unknowns times environments per batch of the elimination: 1024 half-lines
# of 512 sites are one batch, in about 20 MB for nearest-neighbour jumps.
_SOLVE_ENTRIES = 1 << 19


def _eliminate(g: WeightedDigraph, kind: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """P(reach class 1 before class 2) from the class-0 vertices (unknowns),
    as a (k, unknowns) matrix, by state reduction (Grassmann, Taksar and
    Heyman 1985).  The unknowns are eliminated in position order.  Unknown
    j's exit rate is the sum of its entries to later unknowns and its target
    and taboo mass, never 1 - p(j, j), so no loop entry is read.  Each later
    unknown that jumps into j takes j's row, scaled by that jump over j's
    rate.  A backward pass then gives
    h(j) = (t(j) + sum_e a(j, j + e) h(j + e)) / rate(j).  Every operation
    adds, multiplies or divides non-negative numbers, so each value is
    accurate relative to its own size (O'Cinneide 1993), and the fill stays
    inside the band of the unknowns' jumps.  Each environment is a column
    of its own, so its floats do not depend on the batch."""
    unknown = kind == 0
    where = np.cumsum(unknown) - 1
    n = int(where[-1]) + 1
    rows, heads = unknown[g.tails], kind[g.cols]
    off = np.flatnonzero(rows & (heads == 0) & (g.tails != g.cols))
    tail, head = where[g.tails[off]], where[g.cols[off]]
    lo, hi = int(np.max(tail - head, initial=0)), int(np.max(head - tail, initial=0))
    B = lo + hi + 1
    exits = [np.flatnonzero(rows & (heads == k)) for k in (1, 2)]
    out = np.empty((len(probs), n))
    step = max(1, _SOLVE_ENTRIES // n)
    for first in range(0, len(probs), step):
        chunk = probs[first:first + step]
        k = len(chunk)
        # unknown i's row: its entries to unknowns i - lo .. i + hi in
        # columns 0 .. B - 1, then its target and its taboo mass; lo zero
        # rows pad the end for the skewed view below
        a = np.zeros((n + lo, B + 2, k))
        a[tail, lo + head - tail] = chunk[:, off].T
        for col, e in zip((B, B + 1), exits):  # each row's mass summed left to right
            np.add.at(a[:, col], where[g.tails[e]], chunk[:, e].T)
        # skew[j, d, e] is unknown j + d's entry to unknown j + e, and
        # below[j, d - 1] the target and taboo mass of unknown j + d
        s0, s1, s2 = a.strides
        skew = np.lib.stride_tricks.as_strided(a[:, lo:], (n, lo + 1, hi + 1, k), (s0, s0 - s1, s1, s2))
        below = np.lib.stride_tricks.as_strided(a[1:, B:], (n, lo, 2, k), (s0, s0, s1, s2))
        rate = np.empty((n, k))
        with np.errstate(all="ignore"):  # a zero or non-finite rate is caught below
            for row, into, fill, exits_below, r in zip(a[:n, lo + 1:], skew[:, 1:, :1],
                                                       skew[:, 1:, 1:], below, rate):
                r[...] = np.add.accumulate(row)[-1]  # left to right for any k
                if lo:
                    f = into / r
                    fill += f * row[:hi]
                    exits_below += f * row[hi:]
        bad = ~((rate > 0.0) & (rate < np.inf))
        if bad.any():
            j = int(np.flatnonzero(bad.any(axis=1))[0])
            raise SingularSystem(f"exit rate {rate[j][bad[j]][0]:.3e} at vertex "
                                 f"{g.vertices[np.flatnonzero(unknown)[j]]!r}")
        x = np.zeros((n + hi, k))
        for j in range(n - 1, -1, -1):
            x[j] = sum(a[j, lo + 1:B] * x[j + 1:j + 1 + hi], a[j, B]) / rate[j]
        out[first:first + k] = x[:n].T
    return out


def visits_rows(g: WeightedDigraph, x, S, probs: np.ndarray) -> np.ndarray:
    """Expected number of visits to x, started at x, before first leaving S,
    for k environments on g: entry j of the result is environment j's.

    Only x's strongly connected component C within S leads back to x, so
    the visits are 1 over x's censored exit mass: sum_y p(x, y) h(y), with
    h the chance of hitting the vertices outside C before x, and a closed
    class elsewhere in S cannot make the system singular.  Signals NoExit
    when no edge leaves C (the walk surely returns to x and the expectation
    is infinite), and SingularSystem when the exit mass underflows to 0."""
    S = sorted(set(S))
    if x not in S:
        raise ValueError(f"start {x!r} not in S")
    _check_vertices(g, S)
    ix = g.index[x]
    within = list(map(set(S).__contains__, g.vertices))
    comp = np.array(g.reach([ix], within)) & np.array(g.reach([ix], within, backward=True))
    if not (comp[g.tails] & ~comp[g.cols]).any():
        raise NoExit(f"the walk returns to {x!r} surely: no edge leaves its component in {S!r}")
    kind = np.where(comp, 0, 1).astype(np.int8)
    kind[ix] = 2
    escape = _step_from(g, ix, _hitting(g, kind, probs), probs)
    bad = ~((escape > 0.0) & (escape < np.inf))
    if bad.any():
        raise SingularSystem(f"exit mass {escape[bad][0]:.3e} from {x!r}")
    return 1.0 / escape


def _step_from(g: WeightedDigraph, i: int, h: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum_y p(v, y) h(y) over the out-edges of the vertex v at position i,
    for each row of probs and h, summed left to right."""
    total = 0.0
    for e in range(g.indptr[i], g.indptr[i + 1]):
        total = total + probs[:, e] * h[:, g.cols[e]]
    return total


def escape_rows(p: DirichletParams, g: WeightedDigraph, probs: np.ndarray) -> tuple:
    """The origin's escape probability on the half-line truncation g = [0, W]
    for k environments, with a truncation bound from the same solve: entry
    j of the two result arrays is environment j's value and bound.

    value = sum_y p(0, y) h(y), with h the chance of reaching the far band
    [W-L+1, W] before returning to 0.  It falls as W grows, toward the
    never-return probability.  No finite window gives a lower bound in a
    random environment: what lies beyond W can always send the walk back.

    truncation bounds how much value falls from the window W' = W // 2
    (the same environment on [0, W'], heads above W' clamped) to W.  A walk
    from below W'-L+1 first lands at or beyond it in B' = [W'-L+1, W'-L+R],
    so by the strong Markov property upper(W') - value <= upper(W') *
    max_B'(1 - h) and value >= upper(W') * min_B' h, which gives
    truncation = value * max_B'(1 - h) / min_B' h.  It does not bound the
    distance to the never-return probability itself, only the last halving
    of the window.  When B' reaches 0 (W < 2L) min_B' h is 0 and the bound
    is inf."""
    dp = derive_params(p)
    if dp.kappa1_is_zero or dp.kappa1 < 0.0:
        raise ValueError(f"escape probability needs kappa1 > 0, got {dp.kappa1}")
    W = max(g.vertices)
    if g.vertices != tuple(range(W + 1)):
        raise ValueError("environment must live on a half-line truncation [0, W]")
    h = hitting_rows(g, frozenset(range(W - p.L + 1, W + 1)), frozenset([0]), probs)
    value = _step_from(g, 0, h, probs)
    first = W // 2 - p.L + 1
    landing = h[:, max(first, 0):max(first + p.R, 1)]  # B' within [0, W], vertex 0 if W < 2L
    with np.errstate(divide="ignore", invalid="ignore"):
        truncation = value * np.max(1.0 - landing, axis=1) / np.min(landing, axis=1)
    return value, truncation


def stationary_rows(g: WeightedDigraph, probs: np.ndarray) -> np.ndarray:
    """Stationary probabilities pi (pi P = pi, sum(pi) = 1) for k
    environments on a strongly connected g: row j of the result is
    environment j's, in ``g.vertices`` order."""
    n = len(g.vertices)
    if not strongly_connected(g, g.vertices):
        raise NotStronglyConnected("support graph is not strongly connected")
    P = np.zeros((len(probs), n, n))
    P[:, g.tails, g.cols] = probs
    Q, pi = P.copy(), np.ones((len(probs), n))
    with np.errstate(all="ignore"):  # an underflow ends as a bad component below
        # GTH (Grassmann, Taksar, Heyman 1985): j's exit rate is its off-diagonal
        # sum, not 1 - p(j, j); no subtraction, so pi is relatively accurate
        for j in range(n - 1, 0, -1):
            Q[:, :j, j] /= Q[:, j, :j].sum(axis=1, keepdims=True)
            Q[:, :j, :j] += Q[:, :j, j, None] * Q[:, j, None, :j]
        for j in range(1, n):
            pi[:, j] = np.matmul(pi[:, None, :j], Q[:, :j, j, None])[:, 0, 0]
        pi = pi / pi.sum(axis=1, keepdims=True)
    if not np.all(pi >= np.finfo(float).tiny):  # a zero, subnormal or NaN component
        raise SingularSystem(f"stationary solve gave a component {pi.min():.3e}")
    residual = np.max(np.abs(np.matmul(pi[:, None, :], P)[:, 0] - pi), initial=0.0)
    if not residual <= RESIDUAL_TOL:
        raise SingularSystem(f"stationarity residual {residual:.3e}")
    return pi


def reverse_rows(g: WeightedDigraph, probs: np.ndarray) -> np.ndarray:
    """Reversed chains of k environments on g: row j of the result is
    environment j's reversal, whose entry x -> y is pi(y) p(y, x) / pi(x),
    with columns in ``g.reversed().edges()`` order.  Cycles keep their
    probability with the orientation flipped."""
    pi = stationary_rows(g, probs)
    gr = g.reversed()
    # reversed edge (x, y) is forward edge (y, x), listed by by_head; np.take
    # keeps out C-ordered, as verify.time_reversal's moments sum it; dividing
    # first, with pi normal, leaves 0.0 only below the smallest subnormal
    out = np.take(pi, gr.cols, axis=1) * (np.take(probs, g.by_head, axis=1)
                                          / np.take(pi, gr.tails, axis=1))
    for _, flat in gr.row_groups:
        block = np.take(out, flat, axis=1)
        out[:, flat] = block / block.sum(axis=2, keepdims=True)  # drop the solve's drift
    out[out == 0.0] = _MIN_POSITIVE  # as the sampler clamps an underflow
    check_rows(gr, out)
    return out
