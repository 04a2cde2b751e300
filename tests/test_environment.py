import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwde.environment import (
    ROW_SUM_TOL,
    RngStream,
    check_rows,
    resample_count,
    sample_rows,
)
from rwde.errors import IsolatedVertex
from rwde.graphs import WeightedDigraph, build_window
from rwde.model import validate_params
from conftest import plain_gamma_rows


def test_stream_reproducibility_and_independence():
    a = RngStream(42, (1,)).generator().random(5)
    b = RngStream(42, (1,)).generator().random(5)
    c = RngStream(42, (2,)).generator().random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert RngStream(42).substream(1, 2).index == (1, 2)


def test_dirichlet_marginal_mean():
    a, b = 2.0, 3.0
    n = 100_000
    g = WeightedDigraph([(0, 1, a), (0, 0, b), (1, 1, 1.0)])
    big = sample_rows(g, RngStream(102), n)[:, g.pos[0, 1]]
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    assert abs(big.mean() - mean) <= 3 * sd / math.sqrt(n)


def test_dirichlet_amalgamation_moments():
    # summing a 2-block of a 3-part vector matches the 2-part law
    con = (2.0, 3.0, 5.0)
    n = 100_000
    gen = RngStream(7).generator()
    from rwde.environment import _gamma_rows

    rows = _gamma_rows(gen, np.array(con), n)
    block = rows[:, 0] + rows[:, 1]
    a, b = con[0] + con[1], con[2]
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1))
    se_mean = math.sqrt(var / n)
    assert abs(block.mean() - mean) <= 3 * se_mean
    m2 = var + mean * mean
    se_m2 = np.std(block * block, ddof=1) / math.sqrt(n)
    assert abs((block * block).mean() - m2) <= 3 * se_m2


def test_restriction_independence():
    # renormalized sub-vector is uncorrelated with the block sum
    con = np.array([1.5, 2.5, 1.0, 0.8])
    n = 100_000
    from rwde.environment import _gamma_rows

    rows = _gamma_rows(RngStream(13).generator(), con, n)
    block = rows[:, 0] + rows[:, 1]
    renorm = rows[:, 0] / block
    corr = np.corrcoef(renorm, block)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n)


def test_environment_rows_sum_to_one():
    p = validate_params(2, 2, {-2: 0.4, -1: 1.0, 1: 1.2, 2: 0.6})
    g = build_window(p, 0, 10)
    probs = sample_rows(g, RngStream(3), 1)[0]
    for x, i in g.index.items():
        lo, hi = g.indptr[i], g.indptr[i + 1]
        assert abs(probs[lo:hi].sum() - 1.0) <= 1e-12
        assert {g.vertices[c] for c in g.cols[lo:hi]} == set(g.out_edges(x))


def test_environment_window_marginal_means():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    g = build_window(p, 0, 2)
    n = 100_000
    probs = sample_rows(g, RngStream(19), n)[:, g.pos[1, 2]]
    mean = 2.0 / 3.0
    sd = math.sqrt(2.0 * 1.0 / (9.0 * 4.0))
    assert abs(probs.mean() - mean) <= 3 * sd / math.sqrt(n)


def test_environment_small_weight_tail_exponent():
    # P(row entry < eps) behaves like eps^alpha: log-log slope within 0.15
    alpha = 0.5
    g = WeightedDigraph([(0, 1, alpha), (0, 0, 2.0), (1, 1, 1.0)])
    n = 120_000
    vals = sample_rows(g, RngStream(29), n)[:, g.pos[0, 1]]
    eps = 2.0 ** -np.arange(4, 11)
    fracs = np.array([(vals < e).mean() for e in eps])
    assert np.all(fracs > 0)
    slope = np.polyfit(np.log(eps), np.log(fracs), 1)[0]
    assert abs(slope - alpha) <= 0.15


def test_environment_determinism_byte_identical():
    p = validate_params(1, 2, {-1: 0.7, 1: 0.2, 2: 1.1})
    g = build_window(p, -3, 7)
    d1 = sample_rows(g, RngStream(5, (9,)), 1).tobytes()
    d2 = sample_rows(g, RngStream(5, (9,)), 1).tobytes()
    d3 = sample_rows(g, RngStream(5, (10,)), 1).tobytes()
    assert d1 == d2
    assert d1 != d3


def test_underflow_guard_resamples_and_clamps():
    # shapes this small underflow to exact zero most of the time; all-zero
    # rows must be redrawn and surviving zero entries clamped positive
    from rwde.environment import _gamma_rows

    before = resample_count()
    gen = RngStream(11).generator()
    draws = _gamma_rows(gen, np.array([1e-4, 2e-4]), 300)
    assert resample_count() > before
    assert np.all(draws > 0.0)
    assert np.allclose(draws.sum(axis=1), 1.0)


def test_gamma_rows_refuse_rows_that_always_underflow():
    # every gamma variate at shape 1e-300 is zero: the redraws never ended
    from rwde.environment import _MIN_REDRAW_WEIGHT, _gamma_rows

    before = resample_count()
    for a in ([1e-300, 1e-300], [0.4 * _MIN_REDRAW_WEIGHT, 0.5 * _MIN_REDRAW_WEIGHT]):
        with pytest.raises(ValueError, match="too often to redraw"):
            _gamma_rows(RngStream(12).generator(), np.array(a), 1024)
    assert resample_count() == before
    # the bound is on the row's total weight, not on its smallest entry
    assert _gamma_rows(RngStream(12).generator(), np.array([1e-300, 1.0]), 1024).shape == (1024, 2)


def test_sink_row_is_certain():
    g = WeightedDigraph([(0, 1, 1.0), (1, 1, 2.0)])
    probs = sample_rows(g, RngStream(0), 1)[0]
    assert probs[g.pos[1, 1]] == 1.0  # a lone self-loop
    assert probs[g.pos[0, 1]] == 1.0  # single out-edge


def test_isolated_vertex_rejected():
    g = WeightedDigraph([(0, 1, 1.0)], vertices=[0, 1, 2])
    with pytest.raises(IsolatedVertex):
        sample_rows(g, RngStream(0), 1)


def test_environment_validation():
    # the adapter the benchmark reads: its constructor checks the length and
    # the rows, and row(x) is x's sorted heads and a view of its entries
    from rwde.environment import Environment

    g = WeightedDigraph([(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 2, 1.0)])
    env = Environment(g, [1.0, 0.25, 0.75, 1.0])
    heads, probs = env.row(1)
    assert heads == (0, 2) and probs.tolist() == [0.25, 0.75] and probs.base is env.probs
    with pytest.raises(ValueError, match=r"vertices not in graph: \[99\]"):
        env.row(99)
    with pytest.raises(ValueError, match="row at 1 is not a probability vector"):
        Environment(g, [1.0, 0.5, 0.75, 1.0])
    for wrong in ([1.0, 0.25, 0.75], [1.0, 0.25, 0.75, 1.0, 1.0]):  # one entry short, one over
        with pytest.raises(ValueError, match=r"need shape \(4,\)"):
            Environment(g, wrong)


@st.composite
def _labelled_rows(draw):
    """A graph on 1-6 vertices labelled by ints or strings, every vertex with
    1-6 out-edges, and its rows as {x: (heads in shuffled order, probs)}."""
    n = draw(st.integers(1, 6))
    labels = st.integers(-50, 50) if draw(st.booleans()) else st.text("abxyz", min_size=1, max_size=3)
    names = draw(st.lists(labels, min_size=n, max_size=n, unique=True))
    rows, edges = {}, []
    for x in names:
        heads = draw(st.lists(st.sampled_from(names), min_size=1, max_size=n, unique=True))
        w = np.array([draw(st.floats(0.01, 1.0)) for _ in heads])
        rows[x] = (tuple(heads), w / w.sum())
        edges += [(x, h, 1.0) for h in heads]
    return WeightedDigraph(edges), rows


@settings(max_examples=200, deadline=None)
@given(_labelled_rows(), st.data())
def test_environment_matches_dict_reference(case, data):
    # an environment is a flat array in the order of g.edges(): x's row is
    # indptr-delimited, its heads read from cols, and check_rows refuses
    # every row that is not a probability vector
    g, rows = case
    ref = {(x, h): q for x, (heads, probs) in rows.items() for h, q in zip(heads, probs.tolist())}
    flat = np.array([ref[t, h] for t, h, _ in g.edges()])
    for x, j in g.index.items():
        heads = tuple(g.vertices[c] for c in g.cols[g.indptr[j]:g.indptr[j + 1]])
        assert heads == tuple(sorted(rows[x][0]))
        assert flat[g.indptr[j]:g.indptr[j + 1]].tolist() == [ref[x, h] for h in heads]
    check_rows(g, flat[None])

    tol = ROW_SUM_TOL
    i = data.draw(st.integers(0, flat.size - 1))
    lo = g.indptr[g.tails[i]]  # first entry of i's row
    bad = []
    for value in (np.nan, 0.0, -0.1, 1.5, flat[i] - 10 * tol, flat[i] + 10 * tol):
        v = flat.copy()
        v[i] = value
        bad.append(v)
    if g.indptr[g.tails[i] + 1] - lo >= 2:  # an entry <= 0 in a row that sums to 1
        for value in (0.0, -0.1):
            v = flat.copy()
            j = lo + (i == lo)
            v[j] += v[i] - value
            v[i] = value
            bad.append(v)
    else:  # a lone entry above 1 within the sum tolerance
        bad.append(np.where(np.arange(flat.size) == i, 1.0 + tol / 4, flat))
    for v in bad:
        with pytest.raises(ValueError):
            check_rows(g, np.array([flat, v]))  # the bad environment second
    ok = flat.copy()
    ok[i] -= tol / 4  # inside the tolerance
    check_rows(g, ok[None])


def _per_vertex_reference(g, gen, n=1):
    """n environments drawn vertex by vertex: all n rows of a vertex from one
    plain gamma call (all-zero rows redrawn, zeros clamped) before the next
    vertex's rows; lone self-loops are 1.  Returns the (n, edges)
    probabilities and the number of redraws."""
    blocks, redraws = [], 0
    for x in g.vertices:
        row = g.out_edges(x)
        heads = sorted(row)
        if heads == [x]:
            blocks.append(np.ones((n, 1)))
            continue
        rows, r = plain_gamma_rows(gen, np.array([row[h] for h in heads]), n)
        blocks.append(rows)
        redraws += r
    return np.concatenate(blocks, axis=1), redraws


@st.composite
def _sampling_graphs(draw):
    """12 vertices with out-degrees 1-10 (lone self-loops included) and
    concentrations from 1e-3, where whole rows underflow, to 5."""
    edges = []
    for x in range(12):
        heads = draw(st.lists(st.integers(0, 11), min_size=1, max_size=10, unique=True))
        for h in heads:
            edges.append((x, h, 10.0 ** draw(st.floats(-3.0, np.log10(5.0)))))
    return WeightedDigraph(edges)


@settings(max_examples=200, deadline=None)
@given(_sampling_graphs(), st.integers(0, 2**32))
def test_single_environment_matches_per_vertex_reference(g, seed):
    # one environment is drawn as any batch is, by runs of equal rows; it
    # must give the per-vertex floats byte for byte, sums of 8 or more
    # entries included, and redraw (and count) rows that underflow
    stream = RngStream(seed, (3,))
    expected, redraws = _per_vertex_reference(g, stream.generator())
    before = resample_count()
    got = sample_rows(g, stream, 1)[0]
    assert resample_count() - before == redraws
    assert got.tobytes() == expected.tobytes()


def test_single_environment_fallback_counts_redraws():
    # rows of two 1e-3 shapes underflow together in about a fifth of draws
    g = WeightedDigraph([(0, 1, 1e-3), (0, 2, 1e-3), (1, 0, 1.0), (2, 0, 1e-3), (2, 1, 1e-3)])
    total = 0
    for seed in range(20):
        expected, redraws = _per_vertex_reference(g, RngStream(seed).generator())
        before = resample_count()
        assert sample_rows(g, RngStream(seed), 1)[0].tobytes() == expected.tobytes()
        assert resample_count() - before == redraws
        total += redraws
    assert total > 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([1e-3, 2e-3, 1e-2]), st.floats(1e-3, 5.0)),
                min_size=1, max_size=10),
       st.integers(1, 300), st.integers(1, 300), st.integers(0, 2**32))
def test_gamma_rows_match_plain_sampler(con, n, m, seed):
    # row sums of 8 or more entries, whole-row underflow at the 1e-3 shapes,
    # and the prefix rule of the line walker: m rows drawn without redraws
    # are the first m rows of a longer draw, or None if one underflowed
    from rwde.environment import _gamma_rows

    a = np.array(con)
    stream = RngStream(seed, (5,))
    expected, redraws = plain_gamma_rows(stream.generator(), a, n)
    before = resample_count()
    got = _gamma_rows(stream.generator(), a, n)
    assert resample_count() - before == redraws
    assert got.tobytes() == expected.tobytes()

    longer, _ = plain_gamma_rows(stream.generator(), a, max(n, m))
    _, prefix_redraws = plain_gamma_rows(stream.generator(), a, m)
    before = resample_count()
    prefix = _gamma_rows(stream.generator(), a, m, redraw=False)
    assert resample_count() == before
    if prefix_redraws:
        assert prefix is None
    else:
        assert prefix.tobytes() == longer[:m].tobytes()


@st.composite
def _run_graphs(draw):
    """A ring of up to 30 vertices whose rows come in runs of equal weight
    rows (lone self-loops included), from a palette of up to three rows with
    concentrations from 1e-3, where whole rows underflow, to 5."""
    size = draw(st.integers(2, 30))
    palette = []
    for _ in range(draw(st.integers(1, 3))):
        offsets = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=min(size, 9),
                                unique=True))
        palette.append([(d, draw(st.one_of(st.sampled_from([1e-3, 2e-3]), st.floats(1e-3, 5.0))))
                        for d in offsets])
    edges, x = [], 0
    while x < size:
        row = draw(st.sampled_from(palette))
        for _ in range(draw(st.integers(1, size))):
            if x == size:
                break
            edges += [(x, (x + d) % size, w) for d, w in row]
            x += 1
    return WeightedDigraph(edges)


@settings(max_examples=200, deadline=None)
@given(_run_graphs(), st.integers(2, 40), st.integers(1, 200), st.integers(0, 2**32))
def test_run_batched_environments_match_per_vertex_reference(g, n, run_rows, seed):
    # runs of equal rows are drawn in calls of up to run_rows rows; the
    # result, the redraw count and the generator state after the call must
    # be those of one gamma call per vertex
    from unittest import mock

    from rwde import environment

    stream = RngStream(seed, (4,))
    ref_gen, gen = stream.generator(), stream.generator()
    expected, redraws = _per_vertex_reference(g, ref_gen, n)
    before = resample_count()
    with (mock.patch.object(environment, "_RUN_ROWS", run_rows),
          mock.patch.object(RngStream, "generator", return_value=gen)):  # to read its state after
        got = sample_rows(g, stream, n)
    assert resample_count() - before == redraws
    assert got.tobytes() == expected.tobytes()
    assert gen.random() == ref_gen.random()
