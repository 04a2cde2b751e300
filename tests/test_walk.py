import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwde.environment import Environment, RngStream, sample_environment
from rwde.errors import DeadEnd, NotAPath, StartOutsideWindow
from rwde.graphs import WeightedDigraph, build_window
from rwde.model import validate_params
from rwde.walk import (
    Trajectory,
    annealed_path_probability,
    default_tail_buffer,
    estimate_mean_hitting,
    estimate_velocity,
    regeneration_times,
    simulate_derrw,
    simulate_derrw_batch,
    simulate_line,
    simulate_quenched,
    trajectory_stats,
)


def _deterministic_right_env(n):
    g = WeightedDigraph([(x, x + 1, 1.0) for x in range(n)] + [(n, n, 1.0)])
    rows = {x: ((x + 1,), np.array([1.0])) for x in range(n)}
    rows[n] = ((n,), np.array([1.0]))
    return Environment(g, rows)


def test_quenched_deterministic_path():
    env = _deterministic_right_env(10)
    traj = simulate_quenched(env, 0, 100, RngStream(1), targets=(9,))
    assert traj.positions == tuple(range(10))
    assert traj.stop_reason == "hit_target"


def test_quenched_window_band_stop():
    p = validate_params(1, 1, {-1: 1.0, 1: 1.0})
    g = build_window(p, 0, 6)
    env = sample_environment(g, RngStream(2))
    traj = simulate_quenched(env, 3, 10_000, RngStream(3))
    assert traj.stop_reason == "left_window"
    assert traj.positions[-1] in (0, 6)
    for a, b in zip(traj.positions, traj.positions[1:]):
        assert -1 <= b - a <= 1
    with pytest.raises(StartOutsideWindow):
        simulate_quenched(env, 0, 10, RngStream(3))


def test_quenched_one_step_frequencies():
    g = WeightedDigraph([(0, 1, 1.0), (0, 2, 2.0), (1, 0, 1.0), (2, 0, 1.0)])
    env = sample_environment(g, RngStream(5))
    p01 = env.prob(0, 1)
    n = 30_000
    base = RngStream(6)
    count = 0
    for i in range(n):
        traj = simulate_quenched(env, 0, 1, base.substream(i), targets=(1, 2))
        count += traj.positions[1] == 1
    se = math.sqrt(p01 * (1 - p01) / n)
    assert abs(count / n - p01) <= 3 * se


def test_quenched_seeded_rerun_identical():
    p = validate_params(1, 2, {-1: 1.0, 1: 0.3, 2: 0.7})
    g = build_window(p, -20, 20)
    env = sample_environment(g, RngStream(7))
    a = simulate_quenched(env, 0, 500, RngStream(8, (1,)))
    b = simulate_quenched(env, 0, 500, RngStream(8, (1,)))
    assert a.positions == b.positions


def test_derrw_single_edge_deterministic():
    g = WeightedDigraph([(0, 1, 2.0), (1, 0, 1.0)])
    traj = simulate_derrw(g, 0, 5, RngStream(9))
    assert traj.positions == (0, 1, 0, 1, 0, 1)


def test_derrw_initial_urn_split():
    g = WeightedDigraph([(0, 1, 1.0), (0, 2, 1.0), (1, 1, 1.0), (2, 2, 1.0)])
    n = 20_000
    base = RngStream(10)
    count = sum(
        simulate_derrw(g, 0, 1, base.substream(i)).positions[1] == 1 for i in range(n)
    )
    assert abs(count / n - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_derrw_dead_end():
    g = WeightedDigraph([(0, 1, 1.0)], vertices=[0, 1])
    with pytest.raises(DeadEnd):
        simulate_derrw(g, 0, 3, RngStream(0))
    with pytest.raises(DeadEnd):
        simulate_derrw_batch(g, 0, 3, 5, RngStream(0))


def _derrw_reference(g, start, horizon, runs, rng, stop=None):
    """One gen.random() per step, weights keyed by edge, heads scanned in
    sorted order."""
    gen = rng.generator()
    out = []
    for _ in range(runs):
        weights = {(t, h): w for t, h, w in g.edges()}
        total = {v: math.fsum(g.out_edges(v).values()) for v in g.vertices}
        x, path = start, [start]
        for _ in range(horizon):
            heads = sorted(g.out_edges(x))
            if not heads:
                raise DeadEnd(x)
            r, acc = gen.random() * total[x], 0.0
            for h in heads:
                acc += weights[x, h]
                if r < acc:
                    break
            weights[x, h] += 1.0
            total[x] += 1.0
            x = h
            path.append(x)
            if x == stop:
                break
        out.append(tuple(path))
    return out


@st.composite
def _derrw_cases(draw):
    """Graphs on 2-6 vertices labelled 0, 10, 20, ..., every vertex with at
    least one out-edge (self-loops allowed), weights in [0.1, 3]."""
    n = draw(st.integers(2, 6))
    verts = [10 * k for k in range(n)]
    edges = []
    for t in verts:
        for h in draw(st.lists(st.sampled_from(verts), min_size=1, max_size=n, unique=True)):
            edges.append((t, h, draw(st.floats(0.1, 3.0))))
    stop = draw(st.one_of(st.none(), st.sampled_from(verts)))
    return WeightedDigraph(edges), draw(st.sampled_from(verts)), stop


@settings(max_examples=150, deadline=None)
@given(case=_derrw_cases(), horizon=st.integers(0, 40), runs=st.integers(1, 12),
       extra=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_derrw_batch_matches_reference(case, horizon, runs, extra, seed):
    g, start, stop = case
    rng = RngStream(seed, (3,))
    batch = simulate_derrw_batch(g, start, horizon, runs, rng, stop_on_return_to=stop)
    assert batch == _derrw_reference(g, start, horizon, runs, rng, stop)
    longer = simulate_derrw_batch(g, start, horizon, runs + extra, rng, stop_on_return_to=stop)
    assert longer[:runs] == batch
    traj = simulate_derrw(g, start, horizon, rng, stop_on_return_to=stop)
    assert traj.positions == batch[0]


def test_derrw_return_at_horizon_is_a_hit():
    g = WeightedDigraph([(0, 1, 1.0), (1, 0, 1.0)])
    assert simulate_derrw_batch(g, 0, 2, 3, RngStream(4), stop_on_return_to=0) == [(0, 1, 0)] * 3
    assert simulate_derrw(g, 0, 2, RngStream(4), stop_on_return_to=0).stop_reason == "hit_target"
    assert simulate_derrw(g, 0, 1, RngStream(4), stop_on_return_to=0).stop_reason == "horizon"
    assert simulate_derrw(g, 0, 0, RngStream(4), stop_on_return_to=0).stop_reason == "horizon"


def test_annealed_path_probability_examples():
    g = WeightedDigraph([(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
    # one step: mean of the first-step row
    assert annealed_path_probability(g, (0, 1)) == pytest.approx(0.5)
    # loop then leave: integral of x(1-x) over the uniform row value
    assert annealed_path_probability(g, (0, 0, 1)) == pytest.approx(1 / 6, abs=1e-15)
    with pytest.raises(NotAPath):
        annealed_path_probability(g, (1, 0))


def test_annealed_path_probability_total_mass():
    g = WeightedDigraph(
        [(0, 1, 1.0), (0, 2, 2.0), (1, 0, 1.5), (1, 2, 1.0), (2, 0, 1.0), (2, 1, 0.5)]
    )
    paths = [(0,)]
    for _ in range(3):
        paths = [q + (h,) for q in paths for h in sorted(g.out_edges(q[-1]))]
    total = sum(annealed_path_probability(g, q) for q in paths)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_trajectory_stats_hand_example():
    traj = Trajectory(start=0, positions=(0, 1, 0, -1, 2), stop_reason="horizon")
    st = trajectory_stats(traj, sites=(0, 1), pairs=((-1, 1),))
    assert st.hitting[0] == 0 and st.first_return[0] == 2
    assert st.visits[0] == 2
    assert st.hitting[1] == 1
    assert st.trips[(-1, 1)] == 1  # the visit to -1 follows the visit to 1


def test_trajectory_stats_monotone_path_has_no_backtracks():
    traj = Trajectory(start=0, positions=tuple(range(30)), stop_reason="horizon")
    st = trajectory_stats(traj, pairs=((2, 5), (0, 1)))
    assert all(v == 0 for v in st.trips.values())
    assert all(v == 0 for v in st.crossings.values())


def test_trajectory_stats_visits_before_exit():
    traj = Trajectory(start=0, positions=(0, 1, 0, 2, 0, 5, 0), stop_reason="horizon")
    st = trajectory_stats(traj, site_sets=(((0), frozenset({0, 1, 2})),))
    # counting stops once the walk first leaves {0, 1, 2} (at position 5)
    assert st.visits_before_exit[(0, frozenset({0, 1, 2}))] == 3


def test_trajectory_stats_inequalities_random():
    rnd = np.random.default_rng(12)
    for _ in range(20):
        steps = rnd.choice([start for start in (50, 120)])
        incs = rnd.choice([-2, -1, 1, 2], size=steps)
        pos = np.concatenate([[0], np.cumsum(incs)])
        traj = Trajectory(start=0, positions=tuple(int(v) for v in pos), stop_reason="horizon")
        x, y = -1, 2
        st = trajectory_stats(traj, sites=(x,), pairs=((x, y),))
        assert st.trips[(x, y)] <= st.visits[x]
        assert st.trips[(x, y)] <= st.crossings[(x, y)]


def test_regeneration_times_examples():
    t1 = Trajectory(start=0, positions=(0, 1, 2, 3), stop_reason="horizon")
    assert regeneration_times(t1, 0) == [1, 2, 3]
    t2 = Trajectory(start=0, positions=(0, 1, 0, 1, 2), stop_reason="horizon")
    assert regeneration_times(t2, 0) == [4]
    assert regeneration_times(t2, 10) == []


def test_velocity_endpoint_ballistic():
    p = validate_params(1, 1, {-1: 1.0, 1: 3.0})
    est = estimate_velocity(p, steps=50_000, replicas=60, seed=14)
    assert est.v_hat == pytest.approx(1 / 3, abs=0.03)
    assert est.std_error < 0.02


def test_velocity_methods_agree():
    p = validate_params(1, 1, {-1: 1.0, 1: 3.0})
    a = estimate_velocity(p, steps=50_000, replicas=50, method="endpoint", seed=15)
    b = estimate_velocity(p, steps=50_000, replicas=50, method="regeneration", seed=16)
    assert b.used_replicas == 50
    combined = math.hypot(a.std_error, b.std_error)
    assert abs(a.v_hat - b.v_hat) <= 3 * combined


def test_velocity_recurrent_warns():
    p = validate_params(1, 1, {-1: 1.0, 1: 1.0})
    with pytest.warns(UserWarning):
        est = estimate_velocity(p, steps=2000, replicas=10, seed=17)
    assert abs(est.v_hat) < 0.2


def test_regeneration_increments_uncorrelated():
    from rwde.walk import _LineWalker

    p = validate_params(1, 1, {-1: 1.0, 1: 3.0})
    walker = _LineWalker(p)
    buffer = default_tail_buffer(p)
    incs = []
    for rep in range(30):
        xs = walker.positions(RngStream(18, (rep,)), 20_000)
        taus = regeneration_times(
            Trajectory(start=0, positions=xs, stop_reason="horizon"), buffer
        )
        incs.extend(np.diff(xs[taus]).tolist())
    incs = np.asarray(incs, dtype=float)
    lag = np.corrcoef(incs[:-1], incs[1:])[0, 1]
    assert abs(lag) <= 3.0 / math.sqrt(incs.size - 1)


def test_line_estimates_reject_empty_samples():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    with pytest.raises(ValueError):
        estimate_velocity(p, steps=0, replicas=3)
    with pytest.raises(ValueError):
        estimate_velocity(p, steps=100, replicas=0, method="regeneration")
    with pytest.raises(ValueError):
        estimate_mean_hitting(p, horizon=100, replicas=0, seed=1)
    with pytest.raises(ValueError):
        simulate_line(p, -1, RngStream(1))
    assert simulate_line(p, 0, RngStream(1)).tolist() == [0]


def test_mean_hitting_nearly_deterministic_family():
    # all weight on the right jump: the first step almost surely lands in [1, inf)
    p = validate_params(1, 1, {-1: 1e-6, 1: 1e6})
    est = estimate_mean_hitting(p, horizon=1000, replicas=300, seed=19)
    assert est.censored_fraction == 0.0
    assert est.mean == pytest.approx(1.0, abs=1e-2)


def test_mean_hitting_ballistic_is_stable():
    p = validate_params(1, 4, {-1: 1.0, 1: 1.0, 4: 0.5})
    est = estimate_mean_hitting(p, horizon=100_000, replicas=400, seed=20)
    assert est.censored_fraction < 0.01
    assert est.mean < 50


def test_mean_hitting_heavy_tail_signature():
    # kappa1 < 1: the expectation is infinite, so horizon * censored fraction
    # (the truncated-tail mass scale) keeps growing with the horizon
    p = validate_params(16, 5, {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ests = [
            estimate_mean_hitting(p, horizon=h, replicas=4000, seed=21)
            for h in (30, 100, 300)
        ]
    fracs = [e.censored_fraction for e in ests]
    assert fracs[0] > 0.0
    assert fracs[0] >= fracs[1] >= fracs[2]  # plain censoring shrinks
    masses = [h * e.censored_fraction for h, e in zip((30, 100, 300), ests)]
    assert masses[0] < masses[1] < masses[2]


def test_walk_stats_json_contract():
    traj = Trajectory(start=0, positions=(0, 1, 0, -1, 2), stop_reason="horizon")
    blob = trajectory_stats(traj, sites=(0,), pairs=((-1, 1),)).to_json()
    assert set(blob) == {"H", "Htilde", "N", "N_trips", "N_cross", "regenerations"}
    assert blob["H"]["0"] == 0 and blob["Htilde"]["0"] == 2
    assert blob["N_trips"]["-1,1"] == 1
    assert blob["regenerations"] == [4]


def test_walk_increments_respect_jump_bounds():
    from rwde.walk import _LineWalker

    p = validate_params(16, 5, {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67})
    xs = _LineWalker(p).positions(RngStream(22), 5000)
    steps = np.diff(xs)
    assert set(np.unique(steps)).issubset({-16, 2, 5})


# Seeded line-walker outputs, pinned byte for byte.  A deliberate change of a
# walk or environment stream must update these values in the open and say so
# in CHANGES.md.
_GOLDEN_PARAMS = {
    "nn": ((1, 1, {-1: 1.0, 1: 4.0}), 5000),
    "general": ((1, 4, {-1: 1.0, 1: 1.0, 4: 0.5}), 3000),
    "b7": ((16, 5, {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67}), 3000),
}
_GOLDEN = {
    "nn": (
        [(2602, "3eef8f63f216ce22"), (2618, "f455ba5776f62185"), (2402, "702d1213f0fac038")],
        {"endpoint": 0.49573333333333336, "regeneration": 0.4955424465216773},
        {-3: [1, 1, 1, 1], 0: [1, 1, 1, 2], 1: [1, 1, 1, 3], 4: [26, 4, 4, 8],
         40: [100, 56, 80, 64], 300: [None, None, None, None]},
    ),
    "general": (
        [(1373, "87888bb372d84fd3"), (1421, "1ca323b4e5602c54"), (1767, "5329830724c844a8")],
        {"endpoint": 0.4945555555555556, "regeneration": 0.494847503862934},
        {-3: [1, 1, 1, 1], 0: [1, 2, 1, 1], 1: [1, 9, 1, 1], 4: [4, 10, 4, 1],
         40: [63, 28, 108, 246], 300: [None, None, None, None]},
    ),
    "b7": (
        [(1194, "331b72999e482b93"), (741, "108b3c1eace15d9e"), (117, "f4a91b8ddeb2c5b2")],
        {"endpoint": 0.5266666666666667, "regeneration": 0.992086252179243},
        {-3: [1, 1, 1, 1], 0: [1, 1, 1, 1], 1: [1, 1, 1, 1], 4: [2, 1, 2, 2],
         40: [16, 11, 22, 38], 300: [210, 206, 131, 171]},
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_line_walker_golden_streams(name):
    from rwde.walk import _LineWalker

    (L, R, alphas), steps = _GOLDEN_PARAMS[name]
    lines, v_hat, first_times = _GOLDEN[name]
    p = validate_params(L, R, alphas)
    for rep, (end, digest) in enumerate(lines):
        xs = simulate_line(p, steps, RngStream(11, (rep,)))
        assert xs.dtype == np.int64 and int(xs[-1]) == end
        assert hashlib.sha256(np.asarray(xs, dtype="<i8").tobytes()).hexdigest()[:16] == digest
    for method, value in v_hat.items():
        assert estimate_velocity(p, steps, 3, method, seed=12).v_hat == value
    walker = _LineWalker(p)
    for level, expected in first_times.items():
        got = [walker.first_time_at_or_above(RngStream(13, (rep,)), level, 400) for rep in range(4)]
        assert got == expected


def _linear_scan_offset(cum_row, offs, r):
    """Offset choice by scanning a full cumulative row (the reference)."""
    j = 0
    while j < len(offs) - 1 and r >= cum_row[j]:
        j += 1
    return offs[j]


_SUPPORTS = st.sets(st.integers(-6, 6), min_size=2, max_size=6).filter(
    lambda s: min(s) < 0 < max(s) and math.gcd(*(abs(i) for i in s if i)) == 1
)
_WEIGHTS = st.one_of(st.sampled_from([1e-6, 1e-4, 1e-3, 1e-2]), st.floats(0.01, 5.0))


@settings(max_examples=60, deadline=None)
@given(support=_SUPPORTS, data=st.data(), seed=st.integers(0, 2**32 - 1),
       block=st.integers(-3, 3))
def test_threshold_table_bisect_matches_linear_scan(support, data, seed, block):
    from bisect import bisect_right

    from rwde.environment import _gamma_rows
    from rwde.walk import _BLOCK, _NS_ENV, _LineWalker

    offs = tuple(sorted(support))
    alphas = {i: data.draw(_WEIGHTS) for i in offs}
    p = validate_params(-offs[0], offs[-1], alphas)
    walker = _LineWalker(p)
    stream = RngStream(seed, (0,))
    table = walker._gen_block(stream, block)
    rows = _gamma_rows(stream.substream(_NS_ENV, block).generator(), walker.weights, _BLOCK)
    cum = np.cumsum(rows, axis=1)
    # bit for bit: the table is the full cumsum without its last column
    assert len(table) == _BLOCK
    assert np.array(table, dtype=float).tobytes() == np.ascontiguousarray(cum[:, :-1]).tobytes()

    sites = data.draw(st.lists(st.integers(0, _BLOCK - 1), min_size=1, max_size=20))
    for site in sites:
        row = cum[site]
        thresholds = row[:-1].tolist()
        uniforms = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=5))
        # exact thresholds and their neighbours are where ties would show
        uniforms += thresholds
        uniforms += [math.nextafter(t, 0.0) for t in thresholds]
        uniforms += [math.nextafter(t, 1.0) for t in thresholds]
        for r in uniforms:
            assert offs[bisect_right(table[site], r)] == _linear_scan_offset(tuple(row), offs, r)
