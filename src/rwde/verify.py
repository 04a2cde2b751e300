"""Statistical verification suites behind ``rwde verify``.

Each suite draws seeded Monte Carlo evidence for one structural identity of
the model and returns (passed, evidence).  Thresholds follow the suite-wide
policy in stats: hard failure below p = 0.001, warning below 0.01; moment
comparisons use 3 or 4 standard errors as stated per suite.
"""
from __future__ import annotations

import numpy as np

from . import solver, stats, walk
from .environment import (
    Environment,
    RngStream,
    _gamma_rows,
    sample_environment,
    sample_environments,
)
from .errors import UnreachableBoundary
from .graphs import WeightedDigraph, build_drift_closure, build_halfline, build_window
from .kappa import min_exit_weight
from .model import DirichletParams, derive_params, validate_params

SUITES = ("beta-law", "derrw", "reversal", "loop-reversal", "harmonic", "tournier")


def run_suite(name: str, p: DirichletParams | None, *, seed: int, replicas: int | None = None,
              window: int | None = None, steps: int | None = None) -> tuple:
    for flag, value in (("replicas", replicas), ("window", window), ("steps", steps)):
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
    if name == "tournier":
        return tournier_exponent(n_envs=100_000 if replicas is None else replicas, seed=seed)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")


# --- beta escape law ---------------------------------------------------------


def beta_law(p: DirichletParams, replicas: int, window: int, seed: int,
             width_tol: float = 1e-3) -> tuple:
    """Escape-bracket midpoints over independent half-line environments must
    follow the beta law with parameters (kappa1, d-)."""
    dp = derive_params(p)
    g = build_halfline(p, window)
    envs = sample_environments(g, RngStream(seed), replicas)
    mids = np.empty(replicas)
    widths = np.empty(replicas)
    for i, env in enumerate(envs):
        br = solver.escape_probability_bracket(p, env)
        mids[i] = br.midpoint
        widths[i] = br.width
    report = stats.ks_test(mids, stats.beta_cdf(dp.kappa1, dp.d_minus))
    mean_width = float(widths.mean())
    passed = report.p_value > stats.P_FAIL and mean_width < width_tol
    evidence = {
        "kappa1": dp.kappa1,
        "d_minus": dp.d_minus,
        "window": window,
        "replicas": replicas,
        "ks_statistic": report.statistic,
        "ks_p_value": report.p_value,
        "mean_bracket_width": mean_width,
        "width_tolerance": width_tol,
        "warn": report.p_value < stats.P_WARN,
    }
    return passed, evidence


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


def derrw_equivalence(runs: int, seed: int, depth: int = 4) -> tuple:
    """Path frequencies of the reinforced walk against the closed-form
    annealed path probabilities, every depth-`depth` path within 4 SE."""
    g = derrw_graph()
    paths = [(0,)]
    for _ in range(depth):
        paths = [q + (h,) for q in paths for h in sorted(g.out_edges(q[-1]))]
    expected = {q: walk.annealed_path_probability(g, q) for q in paths}

    counts = {q: 0 for q in paths}
    for path in _reinforced_runs(g, depth, runs, seed):
        counts[path] += 1

    worst = 0.0
    rows = []
    for q in paths:
        pr = expected[q]
        freq = counts[q] / runs
        se = (pr * (1.0 - pr) / runs) ** 0.5
        z = abs(freq - pr) / se
        worst = max(worst, z)
        rows.append({"path": list(q), "expected": pr, "observed": freq, "z": z})
    passed = worst <= 4.0
    return passed, {
        "runs": runs,
        "depth": depth,
        "paths": len(paths),
        "total_expected": float(sum(expected.values())),
        "worst_z": worst,
        "per_path": rows,
    }


# --- time reversal -----------------------------------------------------------


def time_reversal(p: DirichletParams, draws: int, seed: int, M: int = 6,
                  n_envs: int = 100, n_cycles: int = 100) -> tuple:
    """Per-environment cycle identity (deterministic, 1e-10) plus the
    distributional match: reversing sampled environments against sampling
    directly on the edge-reversed graph, first/second moments within 3 SE."""
    g = build_drift_closure(p, M)
    gr = g.reversed()
    pos, rpos = g._layout().pos, gr._layout().pos
    base = RngStream(seed)
    max_cycle_err = 0.0
    for i in range(n_envs):
        env = sample_environment(g, base.substream(0, i))
        fwd = env.probs.tolist()
        bwd = solver.time_reverse(env).probs.tolist()
        rnd = base.substream(1, i).python_random()
        for _ in range(n_cycles):
            cyc = _random_cycle(g, rnd)
            if cyc is None:
                continue
            p_fwd = 1.0
            for t, h in zip(cyc, cyc[1:]):
                p_fwd *= fwd[pos[t, h]]
            rcyc = cyc[::-1]
            p_bwd = 1.0
            for t, h in zip(rcyc, rcyc[1:]):
                p_bwd *= bwd[rpos[t, h]]
            max_cycle_err = max(max_cycle_err, abs(p_fwd - p_bwd))

    # one column per reversed edge, in the order of gr.edges()
    a = np.empty((draws, len(rpos)))
    b = np.empty((draws, len(rpos)))
    for k in range(draws):
        a[k] = solver.time_reverse(sample_environment(g, base.substream(2, k))).probs
        b[k] = sample_environment(gr, base.substream(3, k)).probs
    worst_z = 0.0
    for mat_a, mat_b in ((a, b), (a * a, b * b)):
        diff = np.abs(mat_a.mean(axis=0) - mat_b.mean(axis=0))
        se = np.sqrt(mat_a.var(ddof=1, axis=0) / draws + mat_b.var(ddof=1, axis=0) / draws)
        det = se == 0.0  # deterministic rows (single out-edge) must match exactly
        if np.any(diff[det] > 0.0):
            worst_z = float("inf")
        if np.any(~det):
            worst_z = max(worst_z, float(np.max(diff[~det] / se[~det])))

    passed = max_cycle_err <= 1e-10 and worst_z <= 3.0
    return passed, {
        "closure_size": M,
        "cycle_environments": n_envs,
        "cycles_per_environment": n_cycles,
        "max_cycle_error": max_cycle_err,
        "moment_draws": draws,
        "worst_moment_z": worst_z,
    }


def _random_cycle(g: WeightedDigraph, rnd, max_len: int = 64):
    verts = g.vertices
    out = g._layout().heads
    for _ in range(32):
        start = verts[rnd.randrange(len(verts))]
        path = [start]
        x = start
        for _ in range(max_len):
            heads = out[x]
            x = heads[rnd.randrange(len(heads))]
            path.append(x)
            if x == start:
                return path
    return None


# --- loop reversal -----------------------------------------------------------


def loop_reversal(p: DirichletParams, runs: int, seed: int, M: int = 6) -> tuple:
    """First-return entry point: the annealed chance that the step into the
    first return to 0 comes from y equals w(y, 0) / sum_v w(v, 0)."""
    g = build_drift_closure(p, M)
    in_edges = g.in_edges(0)
    total_in = sum(in_edges.values())
    counts = {y: 0 for y in in_edges}
    completed = 0
    for path in _reinforced_runs(g, 10_000, runs, seed, stop_on_return_to=0):
        if len(path) > 1 and path[-1] == 0:  # returned, possibly at the horizon
            completed += 1
            counts[path[-2]] += 1
    worst_z = 0.0
    rows = []
    for y in sorted(in_edges):
        pr = in_edges[y] / total_in
        freq = counts[y] / completed
        se = (pr * (1.0 - pr) / completed) ** 0.5
        z = abs(freq - pr) / se
        worst_z = max(worst_z, z)
        rows.append({"from": y, "expected": pr, "observed": freq, "z": z})
    # returns have a heavy (trap-driven) tail; a vanishing fraction of runs
    # may outlive the horizon, censoring far below the 4-SE resolution
    passed = worst_z <= 4.0 and completed >= 0.999 * runs
    return passed, {
        "closure_size": M,
        "runs": runs,
        "completed": completed,
        "worst_z": worst_z,
        "per_neighbor": rows,
    }


# --- harmonic monotonicity ---------------------------------------------------


def harmonic_monotonicity(instances: int, seed: int, slack: float = 1e-10) -> tuple:
    """Redirecting one site to jump surely to a no-worse site never lowers
    any hitting probability."""
    rnd = RngStream(seed).python_random()
    gen = RngStream(seed, (1,)).generator()
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
        except Exception:
            continue
        n = rnd.randrange(5, 9)
        g = build_window(p, 0, n)
        env = sample_environment(g, RngStream(seed, (2, attempts)))
        verts = list(g.vertices)
        rnd.shuffle(verts)
        a_size = rnd.randrange(1, 3)
        b_size = rnd.randrange(1, 3)
        A = frozenset(verts[:a_size])
        B = frozenset(verts[a_size:a_size + b_size])
        candidates = [v for v in g.vertices if v not in A | B]
        if not candidates:
            continue
        x = candidates[rnd.randrange(len(candidates))]
        y_opts = [v for v in g.vertices if v not in B and v != x]
        if not y_opts:
            continue
        y = y_opts[rnd.randrange(len(y_opts))]
        try:
            h = solver.hitting_probability(solver.HittingProblem(env, A, B))
        except UnreachableBoundary:
            continue
        if h[y] < h[x]:
            x, y = y, x  # precondition wants the target of the redirect no worse
            if x in A | B or y in B:
                continue
        env2 = solver.redirect_to(env, x, y)
        try:
            h2 = solver.hitting_probability(solver.HittingProblem(env2, A, B))
        except UnreachableBoundary:
            continue
        drop = min(h2[z] - h[z] for z in g.vertices)
        worst_drop = min(worst_drop, drop)
        done += 1
    passed = done >= instances and worst_drop >= -slack
    return passed, {
        "instances": done,
        "worst_drop": worst_drop,
        "slack": slack,
    }


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


def tournier_exponent(n_envs: int, seed: int, lo: float = 1.2, hi: float = 1.8) -> tuple:
    """Hill tail index of quenched expected self-visits at 0 across
    environments, against the minimum exit weight over strongly connected
    sets containing 0."""
    g = tournier_graph()
    beta_min, witness = min_exit_weight(g, 0)
    gen = RngStream(seed).generator()
    lay = g._layout()
    # rows of the transient vertices 0-3, then the sink's certain self-loop
    flat = np.concatenate(
        [_gamma_rows(gen, lay.weights[lay.indptr[v]:lay.indptr[v + 1]], n_envs) for v in range(4)]
        + [np.ones((n_envs, 1))], axis=1)
    inner = (lay.tails < 4) & (lay.cols < 4)
    mats = np.tile(np.eye(4), (n_envs, 1, 1))
    mats[:, lay.tails[inner], lay.cols[inner]] -= flat[:, inner]
    e0 = np.zeros((4, 1))
    e0[0, 0] = 1.0
    sols = np.linalg.solve(mats, np.broadcast_to(e0, (n_envs, 4, 1)))
    samples = sols[:, 0, 0]

    # cross-check a few entries against the scalar solver path
    max_dev = 0.0
    for k in range(3):
        ref = solver.expected_visits(Environment(g, _probs=flat[k]), 0, [0, 1, 2, 3])
        max_dev = max(max_dev, float(abs(ref - samples[k])))

    k = stats.default_hill_k(n_envs)
    estimate = stats.hill_estimator(samples, k)
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
