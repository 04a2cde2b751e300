import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwde.errors import MTooSmall, NonpositiveKappa1, WTooSmall
from rwde.graphs import (
    WeightedDigraph,
    build_drift_closure,
    build_halfline,
    build_window,
    strongly_connected,
)
from rwde.model import derive_params, validate_params
from conftest import random_params, reach_closure_oracle

NN12 = validate_params(1, 1, {-1: 1.0, 1: 2.0})


def _divergence(g):
    """In-weight minus out-weight per vertex position."""
    n = len(g.vertices)
    return np.bincount(g.cols, g.weights, n) - np.bincount(g.tails, g.weights, n)


def test_window_nearest_neighbor():
    g = build_window(NN12, 0, 2)
    assert dict(g.out_edges(0)) == {1: 2.0}
    assert dict(g.out_edges(1)) == {0: 1.0, 2: 2.0}
    assert dict(g.out_edges(2)) == {1: 1.0}


def test_window_self_loop():
    p = validate_params(1, 1, {-1: 1.0, 0: 0.5, 1: 1.0})
    g = build_window(p, 0, 0)
    assert list(g.edges()) == [(0, 0, 0.5)]


def test_window_translation_invariance():
    p = validate_params(2, 2, {-2: 0.3, -1: 1.0, 1: 1.5, 2: 0.7})
    g0 = build_window(p, 0, 6)
    g5 = build_window(p, 5, 11)
    assert [(t + 5, h + 5, w) for t, h, w in g0.edges()] == list(g5.edges())


def test_window_interior_out_weight():
    rnd = random.Random(11)
    for _ in range(10):
        p = random_params(rnd)
        g = build_window(p, 0, 4 * (p.L + p.R))
        total = sum(p.alphas.values())
        for x in range(p.L, 3 * (p.L + p.R)):
            assert g.out_weight(x) == pytest.approx(total, rel=1e-12)


def test_drift_closure_hand_construction():
    g = build_drift_closure(NN12, 3)
    assert dict(g.out_edges(0)) == {1: 2.0}
    assert dict(g.out_edges(1)) == {0: 1.0, 2: 2.0}
    assert dict(g.out_edges(2)) == {1: 1.0, 3: 2.0}
    assert dict(g.out_edges(3)) == {2: 1.0, 0: 1.0}  # recycling edge weight = drift
    assert np.abs(_divergence(g)).max() <= 1e-12


def test_drift_closure_preconditions():
    with pytest.raises(MTooSmall):
        build_drift_closure(NN12, 2)  # needs M > R + L
    sym = validate_params(1, 1, {-1: 1.0, 1: 1.0})
    with pytest.raises(NonpositiveKappa1):
        build_drift_closure(sym, 5)


def test_drift_closure_zero_divergence_randomized():
    rnd = random.Random(5)
    found = 0
    while found < 12:
        p = random_params(rnd)
        dp = derive_params(p)
        if dp.kappa1_is_zero or dp.kappa1 < 0:
            continue
        found += 1
        g = build_drift_closure(p, p.L + p.R + rnd.randrange(1, 6))
        assert np.abs(_divergence(g)).max() <= 1e-12 * (dp.d_plus + dp.d_minus)


def test_halfline_structure_and_divergence():
    g = build_halfline(NN12, 10)
    assert g.edge_weight(1, 0) == 1.0
    assert g.edge_weight(0, 1) == 2.0
    div = _divergence(g)  # vertex x sits at position x
    dp = derive_params(NN12)
    # net outflow kappa1 at the origin (in minus out = -kappa1)
    assert div[0] == pytest.approx(-dp.kappa1, abs=1e-12)
    for x in range(NN12.R + 1, 10 - NN12.L):
        assert abs(div[x]) <= 1e-12
    with pytest.raises(WTooSmall):
        build_halfline(NN12, 2)


def test_halfline_origin_outflow_randomized():
    rnd = random.Random(23)
    for _ in range(10):
        p = random_params(rnd)
        dp = derive_params(p)
        g = build_halfline(p, 3 * (p.L + p.R))
        div = _divergence(g)
        assert div[0] == pytest.approx(-dp.kappa1, abs=1e-12)
        for x in range(1, 2 * (p.L + p.R)):
            assert abs(div[x]) <= 1e-12


def test_strongly_connected_examples():
    g = build_window(NN12, 0, 3)
    assert strongly_connected(g, {0, 1})
    assert not strongly_connected(g, {0})  # no self-loop
    p = validate_params(1, 2, {-1: 1.0, 2: 1.0})
    g2 = build_window(p, 0, 4)
    assert not strongly_connected(g2, {0, 2})  # no return path avoiding 1
    assert strongly_connected(g2, {0, 1, 2, 3})
    loop = validate_params(1, 1, {-1: 1.0, 0: 1.0, 1: 1.0})
    g3 = build_window(loop, 0, 2)
    assert strongly_connected(g3, {1})


def test_strongly_connected_against_closure_oracle():
    rnd = random.Random(31)
    for _ in range(50):
        n = rnd.randrange(2, 20)
        edges = []
        for t in range(n):
            for h in range(n):
                if t != h and rnd.random() < 0.18:
                    edges.append((t, h, 0.1 + rnd.random()))
        if not edges:
            continue
        g = WeightedDigraph(edges, vertices=range(n))
        size = rnd.randrange(2, n + 1)
        S = rnd.sample(range(n), size)
        inside = set(S)
        reach = reach_closure_oracle(n, [(t, h) for t, h, _ in edges if t in inside and h in inside])
        expect = all(reach[a, b] for a in S for b in S if a != b)
        assert strongly_connected(g, S) == expect


def test_parallel_edges_amalgamate_in_sorted_rows():
    g = WeightedDigraph([(1, 0, 0.5), (0, 1, 1.0), (0, 1, 2.0)])
    assert g.edge_weight(0, 1) == 3.0
    assert list(g.edges()) == [(0, 1, 3.0), (1, 0, 0.5)]


def test_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        WeightedDigraph([(0, 1, 0.0)])


@st.composite
def _edge_lists(draw):
    """(edges, vertices): 1-6 int or string labels, up to 25 edges drawn
    from them (so parallel edges and self-loops are common), and extra
    labels that only vertices= names."""
    kind = st.integers(-40, 40) if draw(st.booleans()) else st.text("abxyz", min_size=1, max_size=3)
    labels = draw(st.lists(kind, min_size=1, max_size=6, unique=True))
    extra = draw(st.lists(kind, max_size=3))
    label = st.sampled_from(labels)
    weight = st.floats(1e-3, 10.0)
    edges = draw(st.lists(st.tuples(label, label, weight), max_size=25))
    return edges, extra + draw(st.lists(label, max_size=2))


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_graph_matches_dict_of_dicts_reference(case):
    edges, extra = case
    out = {}
    for t, h, w in edges:  # parallel edges sum in input order
        row = out.setdefault(t, {})
        row[h] = row.get(h, 0.0) + w
    verts = sorted({*extra, *(t for t, _, _ in edges), *(h for _, h, _ in edges)})
    ref = [(t, h, out[t][h]) for t in verts for h in sorted(out.get(t, {}))]
    inc = {}
    for t, h, w in ref:
        inc.setdefault(h, {})[t] = w
    g = WeightedDigraph(edges, vertices=extra)

    assert g.vertices == tuple(verts)
    assert list(g.edges()) == ref
    assert len(g.pos) == len(ref)
    assert list(g.reversed().edges()) == sorted((h, t, w) for t, h, w in ref)
    assert g.reversed().vertices == g.vertices
    for v in verts + ["not a vertex"]:
        row = sorted(out.get(v, {}).items())
        col = sorted(inc.get(v, {}).items())
        assert list(g.out_edges(v).items()) == row
        assert list(g.in_edges(v).items()) == col
        assert g.out_weight(v) == sum(w for _, w in row)  # summed in row order
    for t in verts:
        for h in verts:
            assert g.edge_weight(t, h) == out.get(t, {}).get(h, 0.0)

    # the flat rows, derived here from the reference
    at = {v: i for i, v in enumerate(verts)}
    tails = [at[t] for t, _, _ in ref]
    cols = [at[h] for _, h, _ in ref]
    deg = [len(out.get(v, {})) for v in verts]
    indptr = np.concatenate(([0], np.cumsum(deg, dtype=int))).tolist()
    by_head = sorted(range(len(ref)), key=lambda k: (cols[k], tails[k]))
    assert g.index == at
    assert g.pos == {(t, h): k for k, (t, h, _) in enumerate(ref)}
    assert g.indptr.tolist() == indptr
    assert g.tails.tolist() == tails and g.cols.tolist() == cols
    assert g.weights.tolist() == [w for _, _, w in ref]
    assert g.by_head.tolist() == by_head
    assert g.head_ptr.tolist() == [sum(c < i for c in cols) for i in range(len(verts) + 1)]
    groups = [(r.tolist(), flat.tolist()) for r, flat in g.row_groups]
    assert groups == [
        ([i for i in range(len(verts)) if deg[i] == d],
         [list(range(indptr[i], indptr[i + 1])) for i in range(len(verts)) if deg[i] == d])
        for d in sorted(set(deg))
    ]
