"""Exact quenched computations on finite environments by linear algebra:
hitting probabilities, expected occupation before exit, invariant measures,
time reversal, and the escape-probability bracket on half-line truncations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .environment import _MIN_POSITIVE, Environment, check_rows
from .errors import (
    NoExit,
    NotStronglyConnected,
    SingularSystem,
    UnreachableBoundary,
)
from .graphs import WeightedDigraph, _check_vertices
from .model import DirichletParams, derive_params

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class HittingProblem:
    """Reach the target set A before the absorbing taboo set B."""

    env: Environment
    target: frozenset
    taboo: frozenset

    def __post_init__(self):
        if not self.target:
            raise ValueError("target set must be nonempty")
        if self.target & self.taboo:
            raise ValueError("target and taboo sets must be disjoint")


@dataclass(frozen=True)
class EscapeBracket:
    """Bounds on the never-return probability from the origin of a half-line
    truncation; lower <= true value's truncation estimate <= upper."""

    lower: float
    upper: float
    window: int

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def hitting_probability(problem: HittingProblem) -> dict:
    """z -> P^z(hit target before taboo) for the vertices z in order: the
    bounded harmonic solution with boundary values 1 on the target and 0 on
    the taboo, clamped to [0, 1] once the solve has passed its residual check."""
    env = problem.env
    h = hitting_rows(env.graph, problem.target, problem.taboo, env.probs[None])
    return dict(zip(env.vertices, h[0].tolist()))


# Unknowns times environments per batch in hitting_rows: 40 half-lines of
# 512 sites are one batch, and 2000 are solved 64 at a time, in about 5 MB.
_SOLVE_ENTRIES = 1 << 15


def hitting_rows(g: WeightedDigraph, target, taboo, probs: np.ndarray) -> np.ndarray:
    """hitting_probability for k environments on g: row j of the (k, edges)
    matrix probs is environment j in ``g.edges()`` order, and row j of the
    result its values in ``g.vertices`` order; ValueError names target or
    taboo members that are not vertices.  The masks, the reachability
    classes and the system's structure are set up once; each row is then
    filled, solved, checked and clamped as a solve of its own.

    Every probability is positive, so which values are 0 or 1 is a property
    of the graph (Prob0/Prob1, Baier-Katoen, Principles of Model Checking):
    a vertex that cannot reach the target has h = 0, and one that cannot
    reach the taboo has h = 1 (every vertex it can reach reaches the
    target).  Only the other vertices are solved for: a region that surely
    hits the target can make the system ill-conditioned, and its solve can
    pass the residual check with values off in the fifth digit."""
    _check_vertices(g, [*target, *taboo])
    # 0: unknown, 1: target or surely hits it, 2: taboo or never hits the target
    kind = np.zeros(len(g.vertices), dtype=np.int8)
    for k, part in ((1, target), (2, taboo)):
        kind[[g.index[v] for v in part]] = k
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
    unknown = np.flatnonzero(kind == 0)
    if not unknown.size:
        return out

    n = unknown.size
    where, system, fill = _system_on(g, kind == 0)
    to_target = np.flatnonzero((kind[g.tails] == 0) & (kind[g.cols] == 1))
    b_rows = where[g.tails[to_target]]
    step = max(1, _SOLVE_ENTRIES // n)
    for lo in range(0, len(probs), step):
        chunk = probs[lo:lo + step]
        k = len(chunk)
        # b accumulates each row's target probabilities left to right
        b = np.bincount((np.arange(k)[:, None] * n + b_rows).ravel(),
                        weights=chunk[:, to_target].ravel(), minlength=k * n).reshape(k, n)
        x = system.solve(*fill(chunk), b)
        # adding 0.0 turns a clamped -0.0 into 0.0
        out[lo:lo + k, unknown] = np.clip(x, 0.0, 1.0) + 0.0
    return out


def expected_visits(env: Environment, x, S) -> float:
    """Expected number of visits to x, started at x, before first leaving S.

    Only x's strongly connected component C within S leads back to x, so the
    system runs over C, and a closed class elsewhere in S cannot make it
    singular.  Signals NoExit when no edge leaves C (the walk surely returns
    to x and the expectation is infinite).
    """
    S = sorted(set(S))
    if x not in S:
        raise ValueError(f"start {x!r} not in S")
    g = env.graph
    _check_vertices(g, S)
    ix = g.index[x]
    within = list(map(set(S).__contains__, g.vertices))
    comp = np.array(g.reach([ix], within)) & np.array(g.reach([ix], within, backward=True))
    if not (comp[g.tails] & ~comp[g.cols]).any():
        raise NoExit(f"the walk returns to {x!r} surely: no edge leaves its component in {S!r}")
    where, system, fill = _system_on(g, comp)
    e = np.zeros((1, system.n))
    e[0, where[ix]] = 1.0
    y = float(system.solve(*fill(env.probs[None]), e)[0, where[ix]])
    if not y > 0.0:  # at least the visit at the start; a nan fails too
        raise SingularSystem(f"expected visits solve gave {y:.3e}")
    return y


def escape_probability_bracket(p: DirichletParams, env: Environment) -> EscapeBracket:
    """Bracket the origin's never-return probability on a half-line
    truncation [0, W].

    Upper bound: absorption anywhere in the right reentry band
    [W-L+1, W] counts as certain escape.  Lower bound: only reaching the far
    vertex W counts as escape, and absorption elsewhere in the band counts as
    certain return to 0.  For nearest-neighbor jumps the band is the single
    vertex W and the two bounds coincide.
    """
    lower, upper = escape_brackets(p, env.graph, env.probs[None])
    return EscapeBracket(lower=float(lower[0]), upper=float(upper[0]), window=max(env.vertices))


def escape_brackets(p: DirichletParams, g: WeightedDigraph, probs: np.ndarray) -> tuple:
    """escape_probability_bracket for k environments on the half-line g: row
    j of the (k, edges) matrix probs is environment j in ``g.edges()`` order,
    and entry j of the two result arrays its lower and upper bound."""
    dp = derive_params(p)
    if dp.kappa1_is_zero or dp.kappa1 < 0.0:
        raise ValueError(f"escape bracket needs kappa1 > 0, got {dp.kappa1}")
    W = max(g.vertices)
    if g.vertices != tuple(range(W + 1)):
        raise ValueError("environment must live on a half-line truncation [0, W]")
    band = frozenset(range(W - p.L + 1, W + 1))
    h_up = hitting_rows(g, band, frozenset([0]), probs)
    # with L = 1 the band is {W} and the lower problem is the upper one
    h_lo = h_up if p.L == 1 else hitting_rows(g, frozenset([W]), frozenset([0]) | (band - {W}), probs)
    upper = lower = 0.0
    for j, h in enumerate(g.cols[:g.indptr[1]].tolist()):  # vertex 0 is row 0
        # each row's sum over vertex 0's heads, left to right
        upper = upper + probs[:, j] * h_up[:, h]
        lower = lower + probs[:, j] * h_lo[:, h]
    return lower, upper


def invariant_measure(env: Environment) -> dict:
    """Stationary probability pi of the row-stochastic environment on a
    strongly connected finite graph: pi P = pi, sum(pi) = 1."""
    return dict(zip(env.vertices, stationary_rows(env.graph, env.probs[None])[0].tolist()))


def time_reverse(env: Environment) -> Environment:
    """Reversed-chain environment: new row prob x -> y is
    pi(y) * prob(y, x) / pi(x); cycles keep their probability with the
    orientation flipped."""
    return Environment(env.graph.reversed(), reverse_rows(env.graph, env.probs[None])[0])


def redirect_to(env: Environment, x, y) -> Environment:
    """Surgery: replace the row at x with a sure jump to y (used by the
    harmonic monotonicity checks)."""
    g = env.graph
    _check_vertices(g, (x, y))
    edges = [(t, h, w) for t, h, w in g.edges() if t != x]
    edges.append((x, y, 1.0))
    # the new graph keeps g's rows in g's order, with x's row the edge (x, y)
    lo, hi = g.indptr[g.index[x]:g.index[x] + 2]
    probs = np.concatenate((env.probs[:lo], [1.0], env.probs[hi:]))
    return Environment(WeightedDigraph(edges, vertices=g.vertices), probs)


# --- linear algebra ----------------------------------------------------------


def _system_on(g: WeightedDigraph, keep: np.ndarray) -> tuple:
    """I - P over the vertex positions flagged in keep: each position's place
    among the unknowns, the _System, and fill(probs), the (diag, vals) of the
    rows of a (k, edges) matrix probs, with the loops on the diagonal."""
    where = np.cumsum(keep) - 1
    inner = keep[g.tails] & keep[g.cols]
    loop = inner & (g.tails == g.cols)
    off = np.flatnonzero(inner & ~loop)
    loop = np.flatnonzero(loop)
    system = _System(int(keep.sum()), where[g.tails[off]], where[g.cols[off]])
    loop_rows = where[g.tails[loop]]

    def fill(probs):
        diag = np.ones((len(probs), system.n))
        diag[:, loop_rows] = 1.0 - probs[:, loop]
        return diag, -probs[:, off]

    return where, system, fill


class _System:
    """A unit-diagonal system of n unknowns: a diagonal plus off-diagonal
    entries at the positions (rows, cols), listed row by row.  Every system
    is one band matrix whose bandwidth is the largest |col - row|, up to
    n - 1 when it is dense."""

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray):
        self.n, self.rows, self.cols = n, rows, cols
        self.bw = int(np.abs(cols - rows).max(initial=0))
        # the residual sums each row left to right, diagonal first
        r_all = np.concatenate((np.arange(n), rows))
        self.order = np.argsort(r_all, kind="stable")
        self.r_all = r_all[self.order]
        self.c_all = np.concatenate((np.arange(n), cols))[self.order]

    def solve(self, diag: np.ndarray, vals: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solutions of the k systems given by the rows of diag (k, n), vals
        (k, entries) and b (k, n), one solve each."""
        n, bw, k = self.n, self.bw, len(b)
        ab = np.zeros((k, 2 * bw + 1, n))
        ab[:, bw] = diag
        ab[:, bw + self.rows - self.cols, self.cols] = vals
        v_all = np.concatenate((diag, vals), axis=1)[:, self.order]
        shift = (np.arange(k)[:, None] * n + self.r_all).ravel()

        def residual(x, sel):
            # one bincount over the rows sel, each summed as a solve of its own
            m = len(x)
            return b[sel] - np.bincount(shift[:m * self.r_all.size],
                                        weights=(v_all[sel] * x[:, self.c_all]).ravel(),
                                        minlength=m * n).reshape(m, n)

        x = np.array([_banded(bw, ab_i, b_i) for ab_i, b_i in zip(ab, b)]).reshape(k, n)
        r = residual(x, slice(None))
        resid = np.abs(r).max(axis=1)
        for i in np.flatnonzero(resid > RESIDUAL_TOL).tolist():  # refinement cannot mend a nan
            x[i] = x[i] + _banded(bw, ab[i], r[i])
            resid[i] = np.abs(residual(x[i:i + 1], slice(i, i + 1))).max()
        bad = np.flatnonzero(~(resid <= RESIDUAL_TOL))  # a NaN residual fails too
        if bad.size:
            raise SingularSystem(f"banded solve residual {resid[bad[0]]:.3e}")
        return x


def _banded(bw: int, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return scipy.linalg.solve_banded((bw, bw), ab, b)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(str(exc)) from exc


def stationary_rows(g: WeightedDigraph, probs: np.ndarray) -> np.ndarray:
    """invariant_measure for k environments on g: row j of the (k, edges)
    matrix probs is environment j in ``g.edges()`` order, and row j of the
    result its stationary probabilities in ``g.vertices`` order."""
    n = len(g.vertices)
    if not g.strongly_connected():
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
    """time_reverse for k environments on g: row j of the (k, edges) matrix
    probs is environment j in ``g.edges()`` order, and row j of the result its
    reversal, with columns in ``g.reversed().edges()`` order."""
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
