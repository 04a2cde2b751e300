"""Statistical verification suites behind ``rwde verify``.

Each suite draws seeded Monte Carlo evidence for one structural identity of
the model and returns (passed, evidence).  Thresholds follow the suite-wide
policy in stats: hard failure below p = 0.001, warning below 0.01; moment
comparisons use 3 or 4 standard errors as stated per suite.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import solver, stats, walk
from .cli import FLAGS, SUITES
from .environment import RngStream, sample_rows
from .errors import GcdViolation, UnreachableBoundary
from .graphs import WeightedDigraph, build_drift_closure, build_halfline, build_window
from .kappa import min_exit_weight
from .model import DirichletParams, derive_params, validate_params

CLOSURE_M = 6  # both reversal suites run on the drift closure of [0, CLOSURE_M]
DERRW_DEPTH = 4  # the derrw suite counts the paths of this many steps
HARMONIC_SLACK = 1e-10  # the largest drop of a hitting probability put down to rounding


def run_suite(name: str, p: DirichletParams | None, *, seed: int, replicas: int | None = None,
              window: int | None = None, steps: int | None = None) -> tuple:
    if name not in FLAGS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    for flag, value in (("replicas", replicas), ("window", window), ("steps", steps)):
        if value is not None and f"--{flag}" not in FLAGS[name]:
            raise ValueError(f"verify {name} reads only {', '.join(FLAGS[name])}, not --{flag}")
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if name == "beta-law":
        return beta_law(p, replicas=2000 if replicas is None else replicas,
                        window=512 if window is None else window, seed=seed)
    if name == "derrw":
        return derrw_equivalence(runs=1_000_000 if steps is None else steps, seed=seed)
    if name == "reversal":
        return time_reversal(p, draws=10_000 if replicas is None else replicas, seed=seed)
    if name == "loop-reversal":
        return loop_reversal(p, runs=1_000_000 if steps is None else steps, seed=seed)
    if name == "harmonic":
        return harmonic_monotonicity(instances=1000 if replicas is None else replicas, seed=seed)
    return tournier_exponent(n_envs=100_000 if replicas is None else replicas, seed=seed)


# --- beta escape law ---------------------------------------------------------


# The largest mean truncation bound (solver.escape_rows) the beta-law suite
# accepts: the escape probabilities may still fall by this much on average
# between half the window and the window.
WIDTH_TOL = 1e-3


def beta_law(p: DirichletParams, replicas: int, window: int, seed: int) -> tuple:
    """Escape probabilities over independent half-line environments must
    follow the beta law with parameters (kappa1, d-), and their mean
    truncation bound must lie below WIDTH_TOL."""
    dp = derive_params(p)
    g = _halfline(p.L, p.R, tuple(sorted(p.alphas.items())), window)  # WTooSmall if window <= R + L
    if window < 2 * p.L:
        # the truncation bound looks at the window's half, whose landing band
        # then reaches the origin, and is inf for every environment
        raise ValueError(f"beta-law window {window} < 2L = {2 * p.L}: half the window "
                         f"has no room for a landing band of width L = {p.L}")
    # the environments of sample_environments, solved in one batch
    values, truncations = solver.escape_rows(p, g, sample_rows(g, RngStream(seed), replicas))
    report = stats.ks_test(values, stats.beta_cdf(dp.kappa1, dp.d_minus))
    mean_truncation = float(truncations.mean())
    passed = report.p_value > stats.P_FAIL and mean_truncation < WIDTH_TOL
    evidence = {
        "kappa1": dp.kappa1,
        "d_minus": dp.d_minus,
        "window": window,
        "replicas": replicas,
        "ks_statistic": report.statistic,
        "ks_p_value": report.p_value,
        "mean_bracket_width": mean_truncation,  # the name earlier reports and their readers use
        "width_tolerance": WIDTH_TOL,
        "warn": report.p_value < stats.P_WARN,
    }
    return passed, evidence


@functools.lru_cache(maxsize=8)
def _halfline(L: int, R: int, alphas: tuple, window: int) -> WeightedDigraph:
    """build_halfline, kept per (L, R, sorted weights, window) with the
    reachability lists the solver builds on it."""
    return build_halfline(DirichletParams(L, R, dict(alphas)), window)


# --- reinforced walk equals annealed law ------------------------------------


# Runs per random stream in the reinforced-walk suites: run i is run
# i % RUN_BATCH of the batch drawn from RngStream(seed).substream(i // RUN_BATCH).
# One stream per batch saves seeding a generator (about 30 us) per run, and a
# suite holds the paths of one batch at a time: batches of 4096 raised the
# peak memory of the suites by about 0.3 MB over batches of 1024.
RUN_BATCH = 1024


def _reinforced_runs(g: WeightedDigraph, horizon: int, runs: int, seed: int,
                     stop_on_return_to=None):
    """Positions of `runs` reinforced walks from vertex 0, batch by batch."""
    base = RngStream(seed)
    for b, first in enumerate(range(0, runs, RUN_BATCH)):
        yield from walk.simulate_derrw_batch(g, 0, horizon, min(RUN_BATCH, runs - first),
                                             base.substream(b), stop_on_return_to)


def derrw_graph() -> WeightedDigraph:
    """Three vertices, out-degree two everywhere: 16 paths of depth 4."""
    return WeightedDigraph(
        [
            (0, 1, 1.0), (0, 2, 2.0),
            (1, 0, 1.5), (1, 2, 1.0),
            (2, 0, 1.0), (2, 1, 0.5),
        ]
    )


def derrw_equivalence(runs: int, seed: int) -> tuple:
    """Path frequencies of the reinforced walk against the closed-form
    annealed path probabilities, every path of DERRW_DEPTH steps within 4 SE."""
    g = derrw_graph()
    paths = [(0,)]
    for _ in range(DERRW_DEPTH):
        paths = [q + (h,) for q in paths for h in sorted(g.out_edges(q[-1]))]
    counts = dict.fromkeys(paths, 0)
    for path in _reinforced_runs(g, DERRW_DEPTH, runs, seed):
        counts[path] += 1
    rows = []
    for q in paths:
        pr = walk.annealed_path_probability(g, q)
        freq = counts[q] / runs
        se = (pr * (1.0 - pr) / runs) ** 0.5
        rows.append({"path": list(q), "expected": pr, "observed": freq, "z": abs(freq - pr) / se})
    worst = max(row["z"] for row in rows)
    return worst <= 4.0, {
        "runs": runs,
        "depth": DERRW_DEPTH,
        "paths": len(paths),
        "total_expected": float(sum(row["expected"] for row in rows)),
        "worst_z": worst,
        "per_path": rows,
    }


# --- time reversal -----------------------------------------------------------


def time_reversal(p: DirichletParams, draws: int, seed: int) -> tuple:
    """Cycle identity (deterministic, 1e-10 in log products) plus the
    distributional match: reversing `draws` environments (stream (2,))
    against sampling `draws` directly on the edge-reversed graph (stream
    (3,)), first/second moments within 3 SE.  Each reversed environment must
    give every closed walk its forward product; _closed_walks checks the |E|
    walks that imply it."""
    if draws < 2:
        raise ValueError(f"the moment comparison needs at least 2 draws, got {draws}")
    g = build_drift_closure(p, CLOSURE_M)
    gr = g.reversed()
    fwd = sample_rows(g, RngStream(seed, (2,)), draws)
    a = solver.reverse_rows(g, fwd)  # one column per reversed edge, in the order of gr.edges()
    # gr's edges sorted by head, then tail, reverse g's edges in g's order
    log_p, log_q = _closed_walks(g, fwd), _closed_walks(g, a[:, gr.by_head])
    max_cycle_err = float(np.max(np.abs(log_p - log_q), initial=0.0))  # a NaN fails

    b = sample_rows(gr, RngStream(seed, (3,)), draws)
    z = []
    for mat_a, mat_b in ((a, b), (a * a, b * b)):
        diff = np.abs(mat_a.mean(axis=0) - mat_b.mean(axis=0))
        se = np.sqrt(mat_a.var(ddof=1, axis=0) / draws + mat_b.var(ddof=1, axis=0) / draws)
        det = se == 0.0  # deterministic rows (single out-edge) must match exactly
        z.append(np.where(det, np.where(diff > 0.0, np.inf, 0.0), diff / np.where(det, 1.0, se)))
    worst_z = float(np.max(z))  # a NaN fails

    passed = max_cycle_err <= 1e-10 and worst_z <= 3.0
    return passed, {
        "closure_size": CLOSURE_M,
        "cycle_environments": draws,
        "cycles_per_environment": g.weights.size,
        "max_cycle_error": max_cycle_err,
        "moment_draws": draws,
        "worst_moment_z": worst_z,
    }


def _closed_walks(g: WeightedDigraph, probs: np.ndarray) -> np.ndarray:
    """Log products of probs ((environments, edges), g's edge order) along
    one closed walk per edge (x, y): 0 -> x on an out-tree, (x, y), y -> 0 on
    an in-tree.  Each tree grows from 0, breadth first, along the first edge
    that leaves it, so g must be strongly connected.  Two environments with
    equal products on these walks have equal products on every closed walk;
    summing logs keeps every walk in range where the products underflow."""
    n = len(g.vertices)
    logs = np.log(probs)
    to, back = np.zeros((2, probs.shape[0], n))
    # the out-tree steps from tails to heads, the in-tree from heads to tails
    for near, far, total in ((g.tails, g.cols, to), (g.cols, g.tails, back)):
        hops = np.where(np.arange(n) == 0, 0, n)  # steps to 0 in the tree; n: not in it yet
        for _ in range(n - 1):
            e = np.argmin(np.where(hops[far] == n, hops[near], n))
            total[:, far[e]] = total[:, near[e]] + logs[:, e]
            hops[far[e]] = hops[near[e]] + 1
    return to[:, g.tails] + logs + back[:, g.cols]


# --- loop reversal -----------------------------------------------------------


def loop_reversal(p: DirichletParams, runs: int, seed: int) -> tuple:
    """First-return entry point: the annealed chance that the step into the
    first return to 0 comes from y equals w(y, 0) / sum_v w(v, 0)."""
    g = build_drift_closure(p, CLOSURE_M)
    in_edges = g.in_edges(0)
    total_in = sum(in_edges.values())
    counts = {y: 0 for y in in_edges}
    completed = 0
    for path in _reinforced_runs(g, 10_000, runs, seed, stop_on_return_to=0):
        if len(path) > 1 and path[-1] == 0:  # returned, possibly at the horizon
            completed += 1
            counts[path[-2]] += 1
    worst_z = 0.0 if completed else float("inf")  # no return: no frequency to score
    rows = []
    for y in sorted(in_edges) if completed else ():
        pr = in_edges[y] / total_in
        freq = counts[y] / completed
        # the square root before the division keeps a subnormal share's se
        # above 0; a neighbour with an expected share of exactly 1.0 must
        # match exactly
        se = math.sqrt(pr * (1.0 - pr)) / math.sqrt(completed)
        z = abs(freq - pr) / se if se else (0.0 if freq == pr else float("inf"))
        worst_z = max(worst_z, z)
        rows.append({"from": y, "expected": pr, "observed": freq, "z": z})
    # returns have a heavy (trap-driven) tail; a vanishing fraction of runs
    # may outlive the horizon, censoring far below the 4-SE resolution
    passed = worst_z <= 4.0 and completed >= 0.999 * runs
    return passed, {
        "closure_size": CLOSURE_M,
        "runs": runs,
        "completed": completed,
        "worst_z": worst_z,
        "per_neighbor": rows,
    }


# --- harmonic monotonicity ---------------------------------------------------


def harmonic_monotonicity(instances: int, seed: int) -> tuple:
    """Redirecting one site to jump surely to a no-worse site never lowers
    any hitting probability.  The draws need few guards: weights in
    [0.2, 2.2] on both endpoints fail validation only by a gcd of 2; every
    window [0, n >= 5] with L, R <= 2 is strongly connected (m0 <= 3), so the
    first solve reaches A from every site; |A | B| <= 4 leaves x and y
    choices; and a swap needs h[y] < h[x] <= 1, so y is outside A (h = 1
    there) and the swapped pair keeps x outside A | B and y outside B."""
    rnd = RngStream(seed).python_random()
    done = 0
    worst_drop = 0.0
    attempts = 0
    while done < instances and attempts < instances * 60:
        attempts += 1
        L = rnd.randrange(1, 3)
        R = rnd.randrange(1, 3)
        alphas = {}
        for i in range(-L, R + 1):
            if i in (-L, R) or rnd.random() < 0.6:
                alphas[i] = 0.2 + 2.0 * rnd.random()
        try:
            p = validate_params(L, R, alphas)
        except GcdViolation:
            continue
        n = rnd.randrange(5, 9)
        g = build_window(p, 0, n)
        probs = sample_rows(g, RngStream(seed, (2, attempts)), 1)
        verts = list(g.vertices)
        rnd.shuffle(verts)
        a_size = rnd.randrange(1, 3)
        b_size = rnd.randrange(1, 3)
        A = frozenset(verts[:a_size])
        B = frozenset(verts[a_size:a_size + b_size])
        candidates = [v for v in g.vertices if v not in A | B]
        x = candidates[rnd.randrange(len(candidates))]
        y_opts = [v for v in g.vertices if v not in B and v != x]
        y = y_opts[rnd.randrange(len(y_opts))]
        h = solver.hitting_rows(g, A, B, probs)[0].tolist()  # on [0, n], position v is vertex v
        if h[y] < h[x]:
            x, y = y, x  # precondition wants the target of the redirect no worse
        g2, probs2 = _redirect(g, probs, x, y)
        try:
            h2 = solver.hitting_rows(g2, A, B, probs2)[0].tolist()
        except UnreachableBoundary:
            continue
        drop = min(new - old for old, new in zip(h, h2))
        worst_drop = min(worst_drop, drop)
        done += 1
    passed = done >= instances and worst_drop >= -HARMONIC_SLACK
    return passed, {
        "instances": done,
        "worst_drop": worst_drop,
        "slack": HARMONIC_SLACK,
    }


def _redirect(g: WeightedDigraph, probs: np.ndarray, x, y) -> tuple:
    """Surgery on the environments probs ((k, edges), g's edge order): the
    row at x becomes a sure jump to y.  Returns the new graph and its
    probabilities, which keep g's rows in g's order."""
    edges = [(t, h, w) for t, h, w in g.edges() if t != x]
    edges.append((x, y, 1.0))
    lo, hi = g.indptr[g.index[x]:g.index[x] + 2]
    ones = np.ones((len(probs), 1))
    return (WeightedDigraph(edges, vertices=g.vertices),
            np.concatenate((probs[:, :lo], ones, probs[:, hi:]), axis=1))


# --- trap-moment exponent ----------------------------------------------------


def tournier_graph() -> WeightedDigraph:
    """Five vertices including the sink 4.  The only strongly connected
    subset containing 0 is the pair {0, 1}, whose exit weight is 1.5."""
    return WeightedDigraph(
        [
            (0, 1, 3.0), (0, 4, 0.75),
            (1, 0, 3.0), (1, 4, 0.75),
            (2, 0, 1.0), (2, 4, 1.0),
            (3, 2, 1.0), (3, 4, 1.0),
            (4, 4, 1.0),
        ]
    )


def tournier_exponent(n_envs: int, seed: int) -> tuple:
    """Hill tail index of quenched expected self-visits at 0 across
    environments, within 0.3 of the minimum exit weight over strongly
    connected sets containing 0."""
    g = tournier_graph()
    beta_min, witness = min_exit_weight(g, 0)
    flat = sample_rows(g, RngStream(seed), n_envs)
    samples = solver.visits_rows(g, 0, [0, 1, 2, 3], flat)

    # cross-check the first environments against a dense solve of
    # (I - Q) G = e_0 over the transient vertices 0-3, relative to G >= 1,
    # which reaches thousands of visits near a trap (a NaN fails)
    inner = (g.tails < 4) & (g.cols < 4)
    mats = np.tile(np.eye(4), (min(3, n_envs), 1, 1))
    mats[:, g.tails[inner], g.cols[inner]] -= flat[:len(mats), inner]
    dense = np.linalg.solve(mats, np.eye(4)[:, :1])[:, 0, 0]
    G = samples[:len(dense)]
    max_dev = float(np.max(np.abs(dense - G) / G, initial=0.0))

    k = stats.default_hill_k(n_envs)
    estimate = stats.hill_estimator(samples, k)
    lo, hi = beta_min - 0.3, beta_min + 0.3
    passed = lo <= estimate <= hi and max_dev <= 1e-9
    return passed, {
        "environments": n_envs,
        "min_exit_weight": beta_min,
        "witness": list(witness),
        "hill_k": k,
        "hill_estimate": estimate,
        "window": [lo, hi],
        "solver_cross_check_dev": max_dev,
    }
