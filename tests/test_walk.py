import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwde import verify
from rwde.environment import RngStream
from rwde.errors import DeadEnd, NotAPath
from rwde.graphs import WeightedDigraph
from rwde.model import parse_alphas, validate_params
from rwde.walk import (
    annealed_path_probability,
    default_tail_buffer,
    estimate_mean_hitting,
    estimate_velocity,
    regeneration_times,
    simulate_derrw_batch,
    simulate_line,
)
from conftest import plain_gamma_rows


def test_derrw_single_edge_deterministic():
    g = WeightedDigraph([(0, 1, 2.0), (1, 0, 1.0)])
    assert simulate_derrw_batch(g, 0, 5, 1, RngStream(9)) == [(0, 1, 0, 1, 0, 1)]


def test_derrw_initial_urn_split():
    g = WeightedDigraph([(0, 1, 1.0), (0, 2, 1.0), (1, 1, 1.0), (2, 2, 1.0)])
    n = 20_000
    base = RngStream(10)
    count = sum(
        simulate_derrw_batch(g, 0, 1, 1, base.substream(i))[0][1] == 1 for i in range(n)
    )
    assert abs(count / n - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_derrw_dead_end():
    g = WeightedDigraph([(0, 1, 1.0)], vertices=[0, 1])
    with pytest.raises(DeadEnd):
        simulate_derrw_batch(g, 0, 3, 1, RngStream(0))
    with pytest.raises(DeadEnd):
        simulate_derrw_batch(g, 0, 3, 5, RngStream(0))


def test_derrw_unknown_start_is_a_value_error():
    with pytest.raises(ValueError, match=r"vertices not in graph: \[7\]"):
        simulate_derrw_batch(verify.derrw_graph(), 7, 3, 1, RngStream(1))
    with pytest.raises(ValueError, match=r"vertices not in graph: \['a'\]"):
        simulate_derrw_batch(verify.derrw_graph(), "a", 3, 2, RngStream(1))


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
    assert simulate_derrw_batch(g, start, horizon, 1, rng, stop_on_return_to=stop) == batch[:1]


def test_derrw_return_at_horizon_is_a_hit():
    g = WeightedDigraph([(0, 1, 1.0), (1, 0, 1.0)])
    assert simulate_derrw_batch(g, 0, 2, 3, RngStream(4), stop_on_return_to=0) == [(0, 1, 0)] * 3
    assert simulate_derrw_batch(g, 0, 1, 2, RngStream(4), stop_on_return_to=0) == [(0, 1)] * 2
    assert simulate_derrw_batch(g, 0, 0, 2, RngStream(4), stop_on_return_to=0) == [(0,)] * 2


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


def test_regeneration_times_examples():
    assert regeneration_times((0, 1, 2, 3), 0) == [1, 2, 3]
    assert regeneration_times((0, 1, 0, 1, 2), 0) == [4]
    assert regeneration_times((0, 1, 0, 1, 2), 10) == []


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


def test_line_estimators_share_one_zero_drift_rule():
    # kappa1 = 1e-13 lies within KAPPA1_ZERO_RTOL of 0, so the library treats
    # the walk as recurrent: the mean hitting estimator warns as the velocity
    # estimator does (it warned only at kappa1 <= 0); a clear drift warns
    # from neither
    p, dp = parse_alphas("-1:1,1:1.0000000000001")
    assert dp.kappa1_is_zero and dp.kappa1 > 0.0
    with pytest.warns(UserWarning, match=r"kappa1 = 0 \(recurrent\)"):
        estimate_velocity(p, steps=100, replicas=2, seed=1)
    with pytest.warns(UserWarning, match="intended for kappa1 > 0"):
        estimate_mean_hitting(p, horizon=100, replicas=2, seed=1)
    p, _ = parse_alphas("-1:1,1:2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_velocity(p, steps=100, replicas=2, seed=1)
        estimate_mean_hitting(p, horizon=100, replicas=2, seed=1)


def test_regeneration_increments_uncorrelated():
    from rwde.walk import _LineWalker

    p = validate_params(1, 1, {-1: 1.0, 1: 3.0})
    walker = _LineWalker(p)
    buffer = default_tail_buffer(p)
    incs = []
    for rep in range(30):
        xs = walker.positions(RngStream(18, (rep,)), 20_000)
        taus = regeneration_times(xs, buffer)
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
    with pytest.raises(ValueError, match="tail buffer 20"):  # no two regenerations fit
        estimate_velocity(p, steps=21, replicas=3, method="regeneration")
    with pytest.raises(ValueError):
        estimate_mean_hitting(p, horizon=100, replicas=0, seed=1)
    with pytest.raises(ValueError):
        estimate_mean_hitting(p, horizon=-5, replicas=3)
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


def _reference_line_walk(p, stream, steps, level=None):
    """One step at a time over full 1024-site blocks, each block drawn as
    plain gamma rows on its own key and every row looked up by a linear
    scan of its cumulative sums.  A nearest-neighbour row is drawn right
    jump first.  Returns (path, first time at or above level, blocks read)."""
    offs = (1, -1) if p.support == (-1, 1) else p.support
    weights = np.array([p.alphas[i] for i in offs])
    rnd = stream.substream(2).python_random().random
    blocks = {}
    x, path = 0, [0]
    for n in range(1, steps + 1):
        b = x >> 10
        if b not in blocks:
            rows, _ = plain_gamma_rows(stream.substream(1, b).generator(), weights, 1024)
            blocks[b] = np.cumsum(rows, axis=1)
        x += _linear_scan_offset(tuple(blocks[b][x - (b << 10)]), offs, rnd())
        path.append(x)
        if level is not None and x >= level:
            return path, n, set(blocks)
    return path, None, set(blocks)


def _spy_blocks(monkeypatch, walker):
    """Record the block indices and row counts the walker samples."""
    seen = []
    for name in ("_nn_block", "_gen_block"):
        sample = getattr(walker, name)

        def spy(stream, b, rows=1024, sample=sample):
            seen.append((b, rows))
            return sample(stream, b, rows)

        monkeypatch.setattr(walker, name, spy)
    return seen


_REFERENCE_SUPPORTS = {
    "nn": (1, 1, {-1: 1.0, 1: 4.0}),
    "general": (1, 4, {-1: 1.0, 1: 1.0, 4: 0.5}),
    "b7": (16, 5, {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67}),
    # whole rows underflow at these weights, so short first blocks fall back
    "tiny": (1, 1, {-1: 1e-3, 1: 2e-3}),
    "tiny_general": (2, 1, {-2: 2e-3, -1: 1e-3, 1: 2e-3}),
    # jumps longer than a block, which can skip the block next to the one
    # they land in
    "wide_left": (1100, 1, {-1100: 1.0, 1: 1.0}),
    "wide_right": (1, 1500, {-1: 1.0, 1500: 0.01}),
}


def _horizon(alphas, steps):
    """`steps`, but at most 1100 where a left jump passes a whole block: such
    a walk samples a new block about every other step."""
    return min(steps, 1100) if min(alphas) < -1024 else steps


@pytest.mark.parametrize("name", sorted(_REFERENCE_SUPPORTS))
def test_first_passage_matches_per_step_reference(name, monkeypatch):
    import rwde.walk as walk_mod

    prefix_results = []
    gamma_rows = walk_mod._gamma_rows

    def spy_rows(gen, a, n, redraw=True):
        out = gamma_rows(gen, a, n, redraw)
        if not redraw:
            prefix_results.append(out is not None)
        return out

    monkeypatch.setattr(walk_mod, "_gamma_rows", spy_rows)
    p = validate_params(*_REFERENCE_SUPPORTS[name])
    walker = walk_mod._LineWalker(p)
    seen = _spy_blocks(monkeypatch, walker)
    horizon = _horizon(p.alphas, 8000)
    for rep in range(3):
        stream = RngStream(31, (rep,))
        for level in (-3, 0, 1, 2, 5, 1023, 1024, 1025, 3000):
            seen.clear()
            _, expected, visited = _reference_line_walk(p, stream, horizon, level)
            assert walker.first_time_at_or_above(stream, level, horizon) == expected
            # exactly the visited blocks, block 0 drawn only up to the level
            assert sorted(b for b, _ in seen) == sorted(visited)
            assert dict(seen).get(0) == min(max(level, 1), 1024)
    if name.startswith("tiny"):
        assert False in prefix_results and True in prefix_results
    else:
        assert all(prefix_results)


@pytest.mark.parametrize("alphas", [{-1: 1.0, 1: 1.0}, {-1: 1.0, 1: 4.0}, {-1: 4.0, 1: 1.0}] + [
    pytest.param(alphas, id=name)
    for name, (_, _, alphas) in sorted(_REFERENCE_SUPPORTS.items()) if name != "nn"  # nn is alphas1
])
def test_line_walk_matches_per_step_reference(alphas, monkeypatch):
    # the symmetric walk starts on the -1|0 block edge; the drifting ones
    # leave their window to the right or to the left
    from rwde.walk import _LineWalker

    p = validate_params(-min(alphas), max(alphas), alphas)
    walker = _LineWalker(p)
    seen = _spy_blocks(monkeypatch, walker)
    for rep in range(3):
        stream = RngStream(32, (rep,))
        for steps in (0, 1, 1023, 1024, 1025, _horizon(alphas, 6000)):
            path, _, visited = _reference_line_walk(p, stream, steps)
            seen.clear()
            assert walker.final_position(stream, steps) == path[-1]
            assert sorted(b for b, _ in seen) == sorted(visited)
            assert walker.positions(stream, steps).tolist() == path
