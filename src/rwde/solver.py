"""Exact quenched computations on finite environments by linear algebra:
hitting probabilities, expected occupation before exit, invariant measures,
time reversal, and the escape-probability bracket on half-line truncations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .environment import Environment, _check_rows
from .errors import (
    NoExit,
    NotStronglyConnected,
    SingularSystem,
    UnreachableBoundary,
)
from .graphs import WeightedDigraph
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
    """z -> P^z(hit target before taboo), the bounded harmonic solution with
    boundary values 1 on the target and 0 on the taboo.  Values are clamped
    to [0, 1] once the solve has passed its residual check."""
    env = problem.env
    out = dict.fromkeys(problem.target, 1.0)
    out.update(dict.fromkeys(problem.taboo, 0.0))
    g = env.graph
    lay = g._layout()
    # 0: unknown, 1: target, 2: taboo
    kind = np.zeros(len(g.vertices), dtype=np.int8)
    for k, part in ((1, problem.target), (2, problem.taboo)):
        kind[[lay.index[v] for v in part if v in lay.index]] = k
    unknown = np.flatnonzero(kind == 0)
    if not unknown.size:
        return out

    n = unknown.size
    if n == len(g.vertices) or not lay.strongly_connected():
        seen = lay.reach(np.flatnonzero(kind).tolist(), backward=True)
        missing = [g.vertices[i] for i in unknown.tolist() if not seen[i]]
        if missing:
            raise UnreachableBoundary(f"no path to target/taboo from {missing[:5]!r}")
    where = np.full(len(g.vertices), -1)
    where[unknown] = np.arange(n)
    probs = env.probs
    live = kind[lay.tails] == 0
    head_kind = kind[lay.cols]
    to_target = live & (head_kind == 1)
    inner = live & (head_kind == 0)
    loop = inner & (lay.tails == lay.cols)
    off = inner & ~loop
    # b accumulates each row's target probabilities left to right
    b = np.bincount(where[lay.tails[to_target]], weights=probs[to_target], minlength=n)
    diag = np.ones(n)
    diag[where[lay.tails[loop]]] = 1.0 - probs[loop]
    verts = list(map(g.vertices.__getitem__, unknown.tolist()))
    x = _solve_structured(verts, diag, where[lay.tails[off]], where[lay.cols[off]], -probs[off], b)
    # adding 0.0 turns a clamped -0.0 into 0.0
    out.update(zip(verts, (np.clip(x, 0.0, 1.0) + 0.0).tolist()))
    return out


def expected_visits(env: Environment, x, S) -> float:
    """Expected number of visits to x, started at x, before first leaving S.

    Signals NoExit when no exit from S is reachable from x (the expectation
    is infinite).
    """
    S = sorted(set(S))
    if x not in S:
        raise ValueError(f"start {x!r} not in S")
    lay = env.graph._layout()
    inside = np.zeros(len(env.vertices), dtype=bool)
    inside[[lay.index[v] for v in S]] = True
    reached = np.array(lay.reach([lay.index[x]], inside.tolist()))
    if not (reached[lay.tails] & ~inside[lay.cols]).any():
        raise NoExit(f"the walk cannot leave {S!r} from {x!r}")

    # the system runs over the part of S that x reaches inside S: a closed
    # class elsewhere in S would make it singular
    n = int(reached.sum())
    where = np.cumsum(reached) - 1  # position within the reached part
    keep = reached[lay.tails] & reached[lay.cols]
    M = np.eye(n)
    M[where[lay.tails[keep]], where[lay.cols[keep]]] -= env.probs[keep]
    e = np.zeros(n)
    e[where[lay.index[x]]] = 1.0
    y = _dense_solve(M, e)
    return float(y[where[lay.index[x]]])


def escape_probability_bracket(p: DirichletParams, env: Environment) -> EscapeBracket:
    """Bracket the origin's never-return probability on a half-line
    truncation [0, W].

    Upper bound: absorption anywhere in the right reentry band
    [W-L+1, W] counts as certain escape.  Lower bound: only reaching the far
    vertex W counts as escape, and absorption elsewhere in the band counts as
    certain return to 0.  For nearest-neighbor jumps the band is the single
    vertex W and the two bounds coincide.
    """
    dp = derive_params(p)
    if dp.kappa1_is_zero or dp.kappa1 < 0.0:
        raise ValueError(f"escape bracket needs kappa1 > 0, got {dp.kappa1}")
    W = max(env.vertices)
    if env.vertices != tuple(range(W + 1)):
        raise ValueError("environment must live on a half-line truncation [0, W]")
    band = frozenset(range(W - p.L + 1, W + 1))
    h_up = hitting_probability(HittingProblem(env, target=band, taboo=frozenset([0])))
    h_lo = hitting_probability(
        HittingProblem(env, target=frozenset([W]), taboo=frozenset([0]) | (band - {W}))
    )
    lay = env.graph._layout()
    heads, probs = lay.heads[0], env.probs[:lay.indptr[1]]  # vertex 0 is row 0
    upper = sum(q * h_up[h] for h, q in zip(heads, probs))
    lower = sum(q * h_lo[h] for h, q in zip(heads, probs))
    return EscapeBracket(lower=float(lower), upper=float(upper), window=W)


def invariant_measure(env: Environment) -> dict:
    """Stationary probability pi of the row-stochastic environment on a
    strongly connected finite graph: pi P = pi, sum(pi) = 1."""
    return dict(zip(env.vertices, _stationary(env.graph, env.probs[None])[0].tolist()))


def time_reverse(env: Environment) -> Environment:
    """Reversed-chain environment: new row prob x -> y is
    pi(y) * prob(y, x) / pi(x); cycles keep their probability with the
    orientation flipped."""
    return Environment(env.graph.reversed(), _probs=_reverse(env.graph, env.probs[None])[0])


def redirect_to(env: Environment, x, y) -> Environment:
    """Surgery: replace the row at x with a sure jump to y (used by the
    harmonic monotonicity checks)."""
    edges = [(t, h, w) for t, h, w in env.graph.edges() if t != x]
    edges.append((x, y, 1.0))
    g2 = WeightedDigraph(edges, vertices=env.graph.vertices)
    rows = {v: env.row(v) for v in g2.vertices}
    rows[x] = ((y,), np.array([1.0]))
    return Environment(g2, rows)


# --- linear algebra ----------------------------------------------------------


def _solve_structured(unknown, diag, rows, cols, vals, b):
    """Solve the unit-diagonal system diag + (rows, cols, vals) = b, the
    off-diagonal entries listed row by row; banded when the unknowns are
    consecutive integers with small bandwidth."""
    n = len(unknown)
    bw = int(np.abs(cols - rows).max(initial=0))
    if (
        n > 50
        and bw < n // 4
        and all(isinstance(v, int) for v in unknown)
        and unknown == list(range(unknown[0], unknown[0] + n))
    ):
        ab = np.zeros((2 * bw + 1, n))
        ab[bw] = diag
        ab[bw + rows - cols, cols] = vals
        # the residual sums each row left to right, diagonal first
        r_all = np.concatenate((np.arange(n), rows))
        order = np.argsort(r_all, kind="stable")
        r_all, c_all = r_all[order], np.concatenate((np.arange(n), cols))[order]
        v_all = np.concatenate((diag, vals))[order]

        def residual(x):
            return b - np.bincount(r_all, weights=v_all * x[c_all], minlength=n)

        try:
            x = scipy.linalg.solve_banded((bw, bw), ab, b)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SingularSystem(str(exc)) from exc
        r = residual(x)
        if float(np.max(np.abs(r))) > RESIDUAL_TOL:  # refinement cannot mend a nan
            x = x + scipy.linalg.solve_banded((bw, bw), ab, r)
            r = residual(x)
        resid = float(np.max(np.abs(r)))
        if not resid <= RESIDUAL_TOL:  # a NaN residual fails too
            raise SingularSystem(f"banded solve residual {resid:.3e}")
        return x
    M = np.diag(diag)
    M[rows, cols] = vals
    return _dense_solve(M, b)


def _dense_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense LU with one step of iterative refinement to RESIDUAL_TOL."""
    try:
        lu, piv = scipy.linalg.lu_factor(M)
        x = scipy.linalg.lu_solve((lu, piv), b)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(str(exc)) from exc
    resid = float(np.max(np.abs(M @ x - b)))
    if resid > RESIDUAL_TOL:  # refinement cannot mend a nan
        x = x + scipy.linalg.lu_solve((lu, piv), b - M @ x)
        resid = float(np.max(np.abs(M @ x - b)))
    if not resid <= RESIDUAL_TOL:  # a NaN residual fails too
        raise SingularSystem(f"residual {resid:.3e} after refinement")
    return x


def _stationary(g: WeightedDigraph, probs: np.ndarray) -> np.ndarray:
    """Stationary probabilities (see invariant_measure) of k environments on
    g, given as the rows of a (k, edges) matrix; one _dense_solve each."""
    lay = g._layout()
    n = len(g.vertices)
    if not lay.strongly_connected():
        raise NotStronglyConnected("support graph is not strongly connected")
    P = np.zeros((len(probs), n, n))
    P[:, lay.tails, lay.cols] = probs
    A = np.ascontiguousarray(P.transpose(0, 2, 1)) - np.eye(n)  # C-ordered, as P.T - I was
    A[:, -1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.array([_dense_solve(M, b) for M in A]).reshape(len(probs), n)
    if not np.all((pi > 0.0) & (pi < np.inf)):
        # a small residual does not keep tiny components from the wrong side of 0
        raise SingularSystem(f"stationary solve gave a component {pi.min():.3e} <= 0")
    pi = pi / pi.sum(axis=1, keepdims=True)
    residual = np.max(np.abs(np.matmul(pi[:, None, :], P)[:, 0] - pi), initial=0.0)
    if not residual <= RESIDUAL_TOL:
        raise SingularSystem(f"stationarity residual {residual:.3e}")
    return pi


def _reverse(g: WeightedDigraph, probs: np.ndarray) -> np.ndarray:
    """time_reverse of k environments on g, given as the rows of a (k, edges)
    matrix; the result's columns follow ``g.reversed().edges()``."""
    pi = _stationary(g, probs)
    rlay = g.reversed()._layout()
    # reversed edge (x, y) is forward edge (y, x), listed by by_head; np.take
    # keeps out C-ordered, the layout verify.time_reversal's moments sum over
    out = (np.take(pi, rlay.cols, axis=1) * np.take(probs, g._layout().by_head, axis=1)
           / np.take(pi, rlay.tails, axis=1))
    for _, flat in rlay.row_groups:
        block = np.take(out, flat, axis=1)
        out[:, flat] = block / block.sum(axis=2, keepdims=True)  # drop the solve's drift
    _check_rows(g.reversed(), out)
    return out
