import hashlib
import json
import math
import pathlib
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwde import cli, solver, verify
from rwde.environment import _MIN_POSITIVE, RngStream, sample_rows
from rwde.errors import (
    GcdViolation,
    NoExit,
    NotStronglyConnected,
    SingularSystem,
    UnreachableBoundary,
)
from rwde.graphs import (
    WeightedDigraph,
    build_drift_closure,
    build_halfline,
    build_window,
    strongly_connected,
)
from rwde.model import parse_alphas, validate_params
from rwde.solver import hitting_rows, reverse_rows, stationary_rows, visits_rows
from conftest import gambler_ruin_up_probability

NN = validate_params(1, 1, {-1: 1.0, 1: 1.0})


def _nn_env(p_right):
    """A birth-death window [0, N] and one environment on it, with given
    up-probabilities at the interior sites (boundary rows forced by the
    window edges)."""
    g = build_window(NN, 0, len(p_right) + 1)
    return g, np.array([1.0, *(q for p in p_right for q in (1.0 - p, p)), 1.0])


def _hit(g, probs, target, taboo):
    """hitting_rows on the one environment probs: its values in g.vertices order."""
    return hitting_rows(g, target, taboo, probs[None])[0]


def _one(g, stream):
    """One environment on g, the first row of sample_rows."""
    return sample_rows(g, stream, 1)[0]


def _rows(g, probs):
    """The one environment probs as {x: {head: probability}}, vertices and
    heads sorted."""
    rows = {x: {} for x in g.vertices}
    for (x, h), q in zip(g.pos, probs.tolist()):
        rows[x][h] = q
    return rows


def _dump(g, probs):
    """``x head prob`` lines in the order of g.edges(): what the golden
    closure digests hash."""
    return "\n".join(f"{x} {h} {q!r}" for (x, h), q in zip(g.pos, probs))


def test_hitting_boundary_conditions():
    h = _hit(*_nn_env([0.5] * 4), frozenset([5]), frozenset([0]))
    assert h[5] == 1.0 and h[0] == 0.0


def test_hitting_symmetric_ruin():
    N = 10
    h = _hit(*_nn_env([0.5] * (N - 1)), frozenset([N]), frozenset([0]))
    for z in range(N + 1):
        assert h[z] == pytest.approx(z / N, abs=1e-10)


def test_hitting_random_environment_against_closed_form():
    rnd = np.random.default_rng(4)
    for _ in range(10):
        N = int(rnd.integers(5, 60))
        p_right = rnd.uniform(0.2, 0.9, size=N - 1)
        h = _hit(*_nn_env(p_right), frozenset([N]), frozenset([0]))
        oracle = gambler_ruin_up_probability(p_right)
        for z in range(N + 1):
            assert h[z] == pytest.approx(oracle[z], abs=1e-9)


def test_hitting_complementary_problems_sum_to_one():
    rnd = np.random.default_rng(11)
    p_right = rnd.uniform(0.2, 0.9, size=20)
    g, probs = _nn_env(p_right)
    N = len(p_right) + 1
    a = _hit(g, probs, frozenset([N]), frozenset([0]))
    b = _hit(g, probs, frozenset([0]), frozenset([N]))
    for z in g.vertices:
        assert a[z] + b[z] == pytest.approx(1.0, abs=1e-10)


def test_hitting_unreachable_boundary():
    g = WeightedDigraph([(0, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    with pytest.raises(UnreachableBoundary):
        _hit(g, np.ones(3), frozenset([0]), frozenset())


def test_hitting_relatively_accurate_beside_a_sure_region():
    # sites 0-5 reach the taboo 8 only through the target 6, so h = 1 there;
    # they reach 6 only through steps of probability 1.0e-3 and 1.7e-5, and
    # solving for them anyway put h(7) 5.7e-5 off while passing the residual
    # check.  From 7 the walk jumps to 5, 6, 7 or 8, so h(7) is exact in
    # fractions of its own row.
    p = validate_params(2, 1, {-2: 1.0990082245445978, -1: 0.7463830502972442,
                               0: 0.33587285203753964, 1: 0.22828147810405125})
    g = build_window(p, 0, 8)
    probs = _one(g, RngStream(8, (2, 954)))
    h = _hit(g, probs, frozenset({6}), frozenset({8}))
    q = {y: Fraction(probs[g.pos[7, y]]) for y in (5, 6, 8)}
    exact = (q[5] + q[6]) / (q[5] + q[6] + q[8])
    assert h[:6].tolist() == [1.0] * 6
    assert abs(Fraction(h[7]) - exact) <= Fraction(1, 10**12) * exact


def test_harmonic_surgery_never_lowers_values():
    p = validate_params(1, 2, {-1: 1.0, 1: 0.5, 2: 0.8})
    g = build_window(p, 0, 8)
    probs = sample_rows(g, RngStream(21), 1)
    A, B = frozenset([8]), frozenset([0])
    h = hitting_rows(g, A, B, probs)[0]
    interior = [v for v in g.vertices if v not in A | B]
    x = min(interior, key=lambda v: h[v])
    y = max(interior, key=lambda v: h[v])
    g2, probs2 = verify._redirect(g, probs, x, y)
    assert g2.out_edges(x) == {y: 1.0} and probs2[0, g2.pos[x, y]] == 1.0
    assert np.all(hitting_rows(g2, A, B, probs2)[0] >= h - 1e-10)


def test_harmonic_suite_windows_are_strongly_connected():
    # every support the harmonic suite can draw (L, R in {1, 2}, endpoints
    # present, each interior offset present or absent) fails validation only
    # by its gcd, and every window it solves on is strongly connected, so its
    # first hitting solve reaches the target from every site
    supports = 0
    for L in (1, 2):
        for R in (1, 2):
            interior = range(-L + 1, R)
            for mask in range(1 << len(interior)):
                alphas = {-L: 1.0, R: 1.0}
                alphas.update((i, 1.0) for b, i in enumerate(interior) if mask >> b & 1)
                try:
                    p = validate_params(L, R, alphas)
                except GcdViolation:
                    continue
                supports += 1
                for n in range(5, 9):
                    assert strongly_connected(build_window(p, 0, n), range(n + 1)), (alphas, n)
    assert supports == 16


def test_expected_visits_geometric():
    # single state with exit probability q is held 1/q times on average
    g = WeightedDigraph([(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
    q = 0.3
    assert visits_rows(g, 0, [0], np.array([[1.0 - q, q, 1.0]]))[0] == pytest.approx(1.0 / q, abs=1e-10)


def test_expected_visits_unknown_vertex_is_a_value_error():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    g = build_window(p, 0, 4)
    with pytest.raises(ValueError, match=r"vertices not in graph: \[99\]"):
        visits_rows(g, 1, [1, 2, 99], sample_rows(g, RngStream(1), 1))


def test_unknown_vertices_are_value_errors():
    # the hitting solve used to report the unknown target 99 as solved (1.0)
    p, _ = parse_alphas("-1:1,1:2")
    g = build_window(p, 0, 4)
    probs = _one(g, RngStream(1))
    missing = r"vertices not in graph: \[99\]"
    with pytest.raises(ValueError, match=missing):
        _hit(g, probs, frozenset([99]), frozenset([0]))
    with pytest.raises(ValueError, match=missing):
        _hit(g, probs, frozenset([4]), frozenset([0, 99]))


def test_empty_or_overlapping_target_is_a_value_error():
    # the batch call used to return all zeros for both
    p, _ = parse_alphas("-1:1,1:1")
    g = build_window(p, 0, 6)
    probs = sample_rows(g, RngStream(1), 1)
    for target, taboo, message in ((set(), {0}, "nonempty"), ({3}, {3}, "disjoint"),
                                   ({3, 6}, {0, 6}, "disjoint")):
        with pytest.raises(ValueError, match=message):
            hitting_rows(g, target, taboo, probs)


def test_expected_visits_no_exit():
    g = WeightedDigraph([(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(NoExit):
        visits_rows(g, 0, [0, 1], np.ones((1, 2)))


def test_expected_visits_ignores_unreachable_closed_class():
    # {1, 2} is a closed class inside S that 0 cannot reach; over all of S
    # the system is singular and the solve used to return nan
    g = WeightedDigraph([(0, 0, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 3, 1.0)])
    probs = np.array([[0.5, 0.5, 1.0, 1.0, 1.0]])
    assert visits_rows(g, 0, [0, 1, 2], probs).tolist() == [2.0]


def test_expected_visits_reaching_a_closed_class_in_s():
    # 0 leaves S through 3 or falls into the closed class {1, 2} inside S;
    # only its component {0} leads back to 0, so 0 is visited once, and the
    # closed class must not make the system singular
    g = WeightedDigraph([(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 3, 1.0)])
    probs = np.array([[0.5, 0.5, 1.0, 1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert visits_rows(g, 0, [0, 1, 2], probs).tolist() == [1.0]


def test_expected_visits_rejects_a_non_positive_solution():
    # from 38 the walk leaves S (through 12 -> 11) with a chance below the
    # rounding of the rows' sums, so an exact solve of (I - P) G = e with
    # these floats is negative (-1.9085) and a band LU raised SingularSystem;
    # with each loop implied by its row's exit mass the visits are finite,
    # about 1.25e25, and accurate relative to their size
    p = validate_params(1, 2, {-1: 0.5402508867090366, 0: 1.5387030276500022,
                               1: 1.380852156855922, 2: 0.862542020412901})
    g = build_window(p, 0, 54)
    probs = sample_rows(g, RngStream(80), 3)[:1]
    S = [v for v in g.vertices if v != 11]
    G = float(visits_rows(g, 38, S, probs)[0])
    exact = _exact_visits(_rows(g, probs[0]), 38, S)
    assert 1e25 < exact < 1e26
    assert abs(Fraction(G) - exact) <= Fraction(1, 10**12) * exact


def test_zero_or_nan_exit_rate_is_singular_system():
    # an exit rate that is 0 although the graph has an exit (all its entries
    # underflowed) or that is NaN cannot be divided by: SingularSystem, and
    # no warning on the way
    g = build_window(NN, 0, 4)
    x = g.index[2]
    good = sample_rows(g, RngStream(2), 1)[0]
    for bad in (0.0, np.nan):
        probs = np.array([good, good])
        probs[1, g.indptr[x]:g.indptr[x + 1]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="at vertex 2"):
                solver.hitting_rows(g, frozenset([4]), frozenset([0]), probs)
            with pytest.raises(SingularSystem, match="from 2"):
                solver.visits_rows(g, 2, [1, 2, 3], probs)


def _visits_until_hit(rows, start, targets, horizon, rng):
    """Visits to start of one walk on rows[x] = (sorted heads, probabilities),
    stopped on hitting targets or after horizon steps: each step draws one
    uniform and takes the first head whose running probability sum exceeds
    it (the last head if none does)."""
    rnd = rng.python_random().random
    x, visits = start, 1
    for _ in range(horizon):
        heads, probs = rows[x]
        r, acc, x = rnd(), 0.0, heads[-1]
        for h, q in zip(heads, probs):
            acc += q
            if r < acc:
                x = h
                break
        if x in targets:
            break
        visits += x == start
    return visits


def test_expected_visits_matches_monte_carlo():
    p = validate_params(1, 1, {-1: 0.8, 1: 1.4})
    g = build_window(p, 0, 4)
    probs = _one(g, RngStream(33))
    S = [1, 2, 3]
    exact = float(visits_rows(g, 2, S, probs[None])[0])
    n = 100_000
    base = RngStream(34)
    rows = {x: (tuple(row), list(row.values())) for x, row in _rows(g, probs).items()}
    total = 0
    counts = np.empty(n)
    for i in range(n):
        c = _visits_until_hit(rows, 2, (0, 4), 10_000, base.substream(i))
        counts[i] = c
        total += c
    mc = total / n
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(mc - exact) <= 3 * se


def test_escape_bracket_deterministic_right():
    W = 8
    g = WeightedDigraph([(x, x + 1, 1.0) for x in range(W)] + [(W, W, 1.0)])
    p = validate_params(1, 1, {-1: 1e-9, 1: 1.0})
    value, truncation = solver.escape_rows(p, g, np.ones((1, W + 1)))
    assert (value.tolist(), truncation.tolist()) == ([1.0], [0.0])


def test_escape_bracket_constant_drift():
    # p = 2/3 everywhere: h(z) = (1 - 2^-z) / (1 - 2^-W) is the chance of
    # reaching W before 0 from z, the escape probability is h(1) and the
    # truncation bound reads h at B' = {W / 2}
    W = 64
    g = build_halfline(NN, W)
    probs = np.array([[1.0] + [1 / 3, 2 / 3] * W])
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    (value,), (truncation,) = solver.escape_rows(p, g, probs)
    h = lambda z: (1 - Fraction(1, 2**z)) / (1 - Fraction(1, 2**W))
    assert value == pytest.approx(float(h(1)), rel=1e-12)
    exact = h(1) * (1 - h(W // 2)) / h(W // 2)
    assert truncation == pytest.approx(float(exact), rel=1e-5)
    assert 1.1e-10 < truncation < 1.2e-10


def test_escape_bracket_matches_product_formula():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    W = 128
    g = build_halfline(p, W)
    probs = _one(g, RngStream(55))
    value, _ = solver.escape_rows(p, g, probs[None])
    p_right = probs[[g.pos[z, z + 1] for z in range(1, W)]]
    oracle = gambler_ruin_up_probability(p_right)
    assert value[0] == pytest.approx(oracle[1], abs=1e-9)


def test_escape_bracket_bounds_and_window_refinement():
    # coupling: clamp the wider environment onto the narrower window
    p = validate_params(2, 2, {-2: 0.3, -1: 1.0, 1: 1.4, 2: 0.6})
    W2, W1 = 96, 64
    g2 = build_halfline(p, W2)
    g1 = build_halfline(p, W1)
    for k in range(5):
        probs2 = _one(g2, RngStream(60, (k,)))
        probs1 = np.zeros((1, g1.weights.size))
        for (x, h), q in zip(g2.pos, probs2.tolist()):
            if x <= W1:
                probs1[0, g1.pos[x, min(h, W1)]] += q
        (b1,), _ = solver.escape_rows(p, g1, probs1)
        (b2,), _ = solver.escape_rows(p, g2, probs2[None])
        assert b2 <= b1 + 1e-12  # the value falls as the window grows


def test_escape_truncation_is_inf_when_half_the_window_reaches_the_origin():
    # W < 2L: B' reaches the taboo vertex 0, where h = 0; the bound is inf,
    # with no warning, and the suite rejects such a window up front
    for text, W in (("-3:1,1:5", 5), ("-6:1,1:10", 8)):
        p, _ = parse_alphas(text)
        g = build_halfline(p, W)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, truncation = solver.escape_rows(p, g, sample_rows(g, RngStream(1), 3))
        assert np.all(value > 0.0) and np.all(truncation == np.inf), text
        with pytest.raises(ValueError, match=rf"window {W} < 2L = {2 * p.L}"):
            verify.beta_law(p, replicas=3, window=W, seed=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_escape_truncation_bounds_the_fall_from_half_the_window(seed, data):
    # upper(W') is the chance of reaching [W'-L+1, W] before 0: the same
    # rows restricted to [0, W'] with heads above W' clamped.  With R = 1
    # the bound is an equality, so the rounding of upper(W') - value, in
    # ulp of the larger upper(W'), decides: 12 ulp at worst over 6,000 such
    # environments, where 8 ulp of value failed 15 of them
    from conftest import random_params
    from rwde.model import derive_params, reflect

    p = random_params(random.Random(seed))
    dp = derive_params(p)
    assume(not dp.kappa1_is_zero)
    if dp.kappa1 < 0:
        p = reflect(p)
    W = data.draw(st.integers(2 * (p.L + p.R), 96))
    g = build_halfline(p, W)
    probs = sample_rows(g, RngStream(seed), 4)
    value, truncation = solver.escape_rows(p, g, probs)
    half = solver.hitting_rows(g, frozenset(range(W // 2 - p.L + 1, W + 1)), frozenset([0]), probs)
    upper = solver._step_from(g, 0, half, probs)
    assert np.all(upper - value <= truncation + 64 * np.spacing(upper)), (upper - value, truncation)


def test_invariant_measure_two_state():
    g = WeightedDigraph([(0, 1, 1.0), (1, 0, 1.0), (0, 0, 1.0), (1, 1, 1.0)])
    pi = stationary_rows(g, np.full((1, 4), 0.5))[0]
    assert pi[0] == pytest.approx(0.5, abs=1e-12)
    p, q = 0.3, 0.8
    pi2 = stationary_rows(g, np.array([[1 - p, p, q, 1 - q]]))[0]
    assert pi2[0] == pytest.approx(q / (p + q), abs=1e-12)
    assert pi2[1] == pytest.approx(p / (p + q), abs=1e-12)


def test_invariant_measure_residual_random():
    rnd = random.Random(3)
    for k in range(8):
        n = rnd.randrange(3, 9)
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        edges += [
            (i, j, 0.2 + rnd.random())
            for i in range(n)
            for j in range(n)
            if i != j and rnd.random() < 0.4
        ]
        g = WeightedDigraph(edges)
        probs = _one(g, RngStream(70, (k,)))
        pi = stationary_rows(g, probs[None])[0]  # vertices 0 .. n - 1
        P = np.zeros((n, n))
        P[g.tails, g.cols] = probs
        assert np.all(np.abs(pi @ P - pi) <= 1e-10)


def test_invariant_measure_requires_strong_connectivity():
    g = WeightedDigraph([(0, 1, 1.0), (1, 1, 1.0)])
    with pytest.raises(NotStronglyConnected):
        stationary_rows(g, np.ones((1, 2)))


def _closure_rows(alphas, part, indices):
    """Environments on the M = 6 closure of alphas, environment i drawn
    alone from the seed-1 stream (part, i), as a graph and its
    (environments, edges) matrix."""
    p, _ = parse_alphas(alphas)
    g = build_drift_closure(p, 6)
    return g, np.concatenate([sample_rows(g, RngStream(1).substream(part, i), 1) for i in indices])


def test_stationary_rows_relatively_accurate_on_small_weights():
    # an LU solve gave components of about -1e-13 on some of these closures;
    # the elimination must give every component to a tolerance relative to
    # its own size, however small it is
    g, probs = _closure_rows("-1:0.05,1:0.1", 0, range(100))
    pi = stationary_rows(g, probs)
    P = np.zeros((len(probs), len(g.vertices), len(g.vertices)))
    P[:, g.tails, g.cols] = probs
    flow = np.matmul(pi[:, None, :], P)[:, 0]
    assert np.all(pi > 0.0)
    assert np.all(np.abs(flow - pi) <= 1e-12 * pi)


def test_reverse_rows_clamps_only_underflowed_entries():
    # at weights near 0.01 a reversed entry pi(y) p(y, x) / pi(x) can lie
    # below the smallest subnormal; it is clamped to it, as the sampler
    # clamps its own underflows, and no other entry is (the product
    # pi(y) p(y, x) alone underflows on the environments of stream (0,),
    # which the reversal suite once drew for its random cycles)
    n_clamped = 0
    for part, count in ((0, 100), (2, 200)):
        g, probs = _closure_rows("-1:0.01,1:0.02", part, range(count))
        gr = g.reversed()
        rev = reverse_rows(g, probs)
        log_pi = np.log(stationary_rows(g, probs))
        log_rev = log_pi[:, gr.cols] + np.log(probs[:, g.by_head]) - log_pi[:, gr.tails]
        clamped = rev == _MIN_POSITIVE
        n_clamped += int(clamped.sum())
        assert np.all(log_rev[clamped] < math.log(1e-300)), part
    assert n_clamped > 0


def test_stationary_rows_rejects_a_subnormal_component():
    # a subnormal component has lost its relative accuracy, and p / pi(x)
    # could overflow in reverse_rows; environment 190 here has one, and the
    # error names the limit that the weights ran into
    g, probs = _closure_rows("-1:0.005,1:0.01", 0, [190])
    with pytest.raises(SingularSystem, match=r"below the float range \(smallest 6.833e-321\): "
                                             "the weights are too small"):
        stationary_rows(g, probs)


def _reversed(g, probs):
    """The reversal of the one environment probs on g: the reversed graph and
    its environment."""
    return g.reversed(), reverse_rows(g, probs[None])[0]


def test_time_reverse_fixed_point_on_reversible_chain():
    g = WeightedDigraph(
        [(i, j, 1.0) for i in range(3) for j in range(3) if i != j]
    )
    probs = np.full(6, 0.5)
    gr, rev = _reversed(g, probs)
    for t, h, _ in g.edges():
        assert rev[gr.pos[t, h]] == pytest.approx(probs[g.pos[t, h]], abs=1e-12)


def test_time_reverse_cycle_identity_and_involution():
    rnd = random.Random(9)
    n = 4
    edges = [(i, j, 0.3 + rnd.random()) for i in range(n) for j in range(n) if i != j]
    g = WeightedDigraph(edges)
    probs = _one(g, RngStream(81))
    gr, rev = _reversed(g, probs)
    fwd_rows, rev_rows = _rows(g, probs), _rows(gr, rev)
    for _ in range(100):
        k = rnd.randrange(2, 6)
        cyc = [rnd.randrange(n)]
        for _ in range(k - 1):
            cyc.append(rnd.choice([j for j in range(n) if j != cyc[-1]]))
        cyc.append(cyc[0])
        fwd = math.prod(fwd_rows[t].get(h, 0.0) for t, h in zip(cyc, cyc[1:]))
        rcyc = cyc[::-1]
        bwd = math.prod(rev_rows[t].get(h, 0.0) for t, h in zip(rcyc, rcyc[1:]))
        assert abs(fwd - bwd) <= 1e-10
    gb, back = _reversed(gr, rev)
    for t, h, _ in g.edges():
        assert back[gb.pos[t, h]] == pytest.approx(probs[g.pos[t, h]], abs=1e-10)


GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_solver.json").read_text())


def test_solver_and_suite_outputs_golden():
    # recorded before the solvers moved to the graph's flat row layout (the
    # reversal suite since it checks one closed walk per edge, the harmonic
    # suite since values surely 0 or 1 are no longer solved for, the
    # escape values and the tournier suite since every hitting and visits
    # system is one subtraction-free elimination, the truncation bounds and
    # the beta-law suite's width since they replaced the bracket's lower
    # bound, the reversal suite's cycle error since it compares log
    # products, and the tournier cross-check since it is relative to the
    # visits); a deliberate change of any of these outputs must update the
    # file openly
    for text, by_seed in GOLDEN["brackets"].items():
        p, _ = parse_alphas(text)
        g = build_halfline(p, 128)
        for seed, pinned in by_seed.items():
            value, truncation = solver.escape_rows(p, g, sample_rows(g, RngStream(int(seed)), 1))
            assert [repr(float(truncation[0])), repr(float(value[0]))] == pinned, (text, seed)
    p, _ = parse_alphas("-1:1,1:2")
    g = build_drift_closure(p, 6)
    probs = _one(g, RngStream(7))
    rev_dump = _dump(*_reversed(g, probs)).encode()
    pi = stationary_rows(g, probs[None])[0].tolist()
    pi_items = repr(sorted(zip(g.vertices, pi))).encode()
    assert hashlib.sha256(rev_dump).hexdigest() == GOLDEN["closure"]["time_reverse_dump_sha256"]
    assert hashlib.sha256(pi_items).hexdigest() == GOLDEN["closure"]["invariant_items_sha256"]
    sizes = {"reversal": {"replicas": 50}, "beta-law": {"replicas": 10, "window": 128},
             "derrw": {"steps": 500}, "loop-reversal": {"steps": 300},
             "tournier": {"replicas": 2000}, "harmonic": {"replicas": 100}}
    for name, kw in sizes.items():
        _, evidence = verify.run_suite(name, p, seed=5, **kw)
        assert cli.dumps(evidence) == GOLDEN["suites"][name], name


def test_wide_support_reversal_golden():
    # recorded when the reversal suite came to draw each part from one
    # stream, again when it came to check one closed walk per edge, and
    # again when it came to compare the walks' log products:
    # with L >= 2 the rows have 4-5 entries, where a different summation
    # order or a batched LU would change the last bits
    for text, evidence in GOLDEN["reversal_wide"].items():
        p, _ = parse_alphas(text)
        _, ev = verify.run_suite("reversal", p, seed=5, replicas=50)
        assert cli.dumps(ev) == evidence, text
    p, _ = parse_alphas(GOLDEN["closure_wide"]["alphas"])
    g = build_drift_closure(p, 6)
    digest = hashlib.sha256(_dump(*_reversed(g, _one(g, RngStream(7)))).encode()).hexdigest()
    assert digest == GOLDEN["closure_wide"]["time_reverse_dump_sha256"]


def test_wide_support_beta_law_golden():
    # recorded before the beta-law suite drew its environments by runs of
    # equal rows and solved them in one batch (the digests since the escape
    # values are one subtraction-free elimination and carry a truncation
    # bound): with L >= 2 the far band has several vertices
    for text, pinned in GOLDEN["beta_law_wide"].items():
        p, _ = parse_alphas(text)
        _, ev = verify.run_suite("beta-law", p, seed=5, replicas=10, window=128)
        assert cli.dumps(ev) == pinned["evidence"], text
        g = build_halfline(p, 128)
        value, truncation = solver.escape_rows(p, g, sample_rows(g, RngStream(5), 10))
        ests = [(repr(v), repr(t)) for v, t in zip(value.tolist(), truncation.tolist())]
        assert hashlib.sha256(repr(ests).encode()).hexdigest() == pinned["brackets_sha256"], text


def test_beta_law_brackets_the_environments_of_sample_environments():
    # the suite draws and solves in batches; its evidence must be that of
    # one solve per row of sample_rows, for one replica (a one-stream draw)
    # and for several (a vertex-by-vertex draw)
    from rwde import stats
    from rwde.model import derive_params

    for text in ("-1:1,1:2", "-2:1,-1:0.5,1:1,2:1"):
        p, _ = parse_alphas(text)
        dp = derive_params(p)
        for replicas in (1, 3):
            g = build_halfline(p, 64)
            ests = [solver.escape_rows(p, g, row[None])
                    for row in sample_rows(g, RngStream(4), replicas)]
            values, truncations = (np.concatenate(a) for a in zip(*ests))
            report = stats.ks_test(values, stats.beta_cdf(dp.kappa1, dp.d_minus))
            _, ev = verify.beta_law(p, replicas=replicas, window=64, seed=4)
            assert ev["ks_statistic"] == report.statistic, (text, replicas)
            assert ev["mean_bracket_width"] == float(np.mean(truncations))


def _skewed_closure():
    """The M = 6 closure of -1:1,1:2 with p(x, y) proportional to 8^(y - x):
    its stationary vector spans several orders of magnitude."""
    p, _ = parse_alphas("-1:1,1:2")
    g = build_drift_closure(p, 6)
    w = 8.0 ** (g.cols - g.tails)
    return g, (w / np.repeat(np.add.reduceat(w, g.indptr[:-1]), np.diff(g.indptr)))[None]


def test_cycle_products_close_their_walks():
    # the reversed environment keeps the product of every closed walk, also
    # where the stationary vector spans more than three orders of magnitude
    g, fwd = _skewed_closure()
    pi = stationary_rows(g, fwd)
    assert pi.max() / pi.min() > 1e3
    bwd = reverse_rows(g, fwd)[:, g.reversed().by_head]
    log_fwd, log_bwd = verify._closed_walks(g, fwd), verify._closed_walks(g, bwd)
    assert log_fwd.shape == (1, g.weights.size)
    assert np.all(np.abs(log_fwd - log_bwd) <= 1e-12)


def test_closed_walks_cover_a_ring_the_random_cycles_missed(monkeypatch):
    # on a directed ring of 70 vertices every first return takes 70 steps,
    # more than the 64 a random cycle had: the check walked no cycle and
    # passed; now each edge's walk goes once round the ring
    ring = WeightedDigraph([(i, (i + 1) % 70, 1.0) for i in range(70)])
    ones = np.ones((2, 70))
    bad = ones.copy()
    bad[1, 33] *= 1 + 1e-6
    assert np.array_equal(verify._closed_walks(ring, ones), np.zeros((2, 70)))
    assert np.all(np.abs(verify._closed_walks(ring, bad))[1] > 9e-7)
    monkeypatch.setattr(verify, "build_drift_closure", lambda p, M: ring)
    passed, ev = verify.time_reversal(NN, draws=10, seed=1)
    assert passed and ev["max_cycle_error"] == 0.0
    assert ev["cycle_environments"] == 10 and ev["cycles_per_environment"] == 70


def _poison_reverse_rows(monkeypatch, edit):
    """Let verify's one reverse_rows call hand back its result after edit."""
    real = reverse_rows

    def poisoned(g, probs):
        out = real(g, probs)
        edit(out)
        return out

    monkeypatch.setattr(verify.solver, "reverse_rows", poisoned)


@pytest.mark.parametrize("edge", range(13))
def test_one_wrong_reversed_entry_fails_the_reversal_suite(monkeypatch, edge):
    # one reversed entry off by 1e-6 in every environment: the closed walks
    # through that edge miss by 1e-6 relative, far above the 1e-10 gate
    p, _ = parse_alphas("-1:1,1:2")
    assert build_drift_closure(p, verify.CLOSURE_M).weights.size == 13

    def edit(out):
        out[:, edge] *= 1 + 1e-6

    _poison_reverse_rows(monkeypatch, edit)
    passed, ev = verify.time_reversal(p, draws=50, seed=5)
    assert ev["max_cycle_error"] > 9e-7 and not passed


def test_wrong_entry_on_the_smallest_closed_walk_fails_the_reversal_suite(monkeypatch):
    # the gate is on log products: one environment's reversed entry off by
    # 1e-6 on the walk with the smallest product (2.15e-7) moves that
    # product by only 2e-13, which an absolute 1e-10 gate on products let
    # pass, but its log by 1e-6
    p, _ = parse_alphas("-1:1,1:2")
    g = build_drift_closure(p, verify.CLOSURE_M)
    logs = verify._closed_walks(g, sample_rows(g, RngStream(1, (2,)), 200))
    env, edge = np.unravel_index(np.argmin(logs), logs.shape)
    assert 2e-7 < math.exp(logs[env, edge]) < 2.2e-7

    def edit(out):
        out[env, g.reversed().by_head[edge]] *= 1 + 1e-6

    _poison_reverse_rows(monkeypatch, edit)
    passed, ev = verify.time_reversal(p, draws=200, seed=1)
    assert ev["max_cycle_error"] > 9e-7 and not passed


def test_closed_walks_that_underflow_are_checked(monkeypatch):
    # at these weights 8 of the 2,600 closed-walk products underflow to 0.0
    # on both sides, which a gate on products counted as a match; their logs
    # stay finite, so an entry off by 1e-6 on the smallest one fails
    p, _ = parse_alphas("-1:0.01,1:0.02")
    g = build_drift_closure(p, verify.CLOSURE_M)
    logs = verify._closed_walks(g, sample_rows(g, RngStream(1, (2,)), 200))
    assert np.all(np.isfinite(logs)) and np.count_nonzero(np.exp(logs) == 0.0) == 8
    passed, ev = verify.time_reversal(p, draws=200, seed=1)
    assert passed and ev["max_cycle_error"] < 1e-12
    env, edge = np.unravel_index(np.argmin(logs), logs.shape)

    def edit(out):
        out[env, g.reversed().by_head[edge]] *= 1 + 1e-6

    _poison_reverse_rows(monkeypatch, edit)
    passed, ev = verify.time_reversal(p, draws=200, seed=1)
    assert ev["max_cycle_error"] > 9e-7 and not passed


@pytest.mark.parametrize("row", [0, 2])
def test_nan_reversed_entry_fails_the_reversal_suite(monkeypatch, row):
    # one environment's NaN reaches both the closed walks and the moments;
    # max() would keep the old value past a NaN
    p, _ = parse_alphas("-1:1,1:2")

    def edit(out):
        out[row, 0] = np.nan

    _poison_reverse_rows(monkeypatch, edit)
    passed, ev = verify.time_reversal(p, draws=50, seed=5)
    assert math.isnan(ev["max_cycle_error"]) and math.isnan(ev["worst_moment_z"]) and not passed


def test_nan_visits_fail_the_tournier_cross_check(monkeypatch):
    # environment 1's visits become NaN; max() would keep the old value
    real = solver.visits_rows

    def poisoned(g, x, S, probs):
        out = real(g, x, S, probs)
        out[1] = math.nan
        return out

    monkeypatch.setattr(verify.solver, "visits_rows", poisoned)
    passed, ev = verify.tournier_exponent(n_envs=500, seed=4)
    assert math.isnan(ev["solver_cross_check_dev"]) and not passed


def test_tournier_visits_match_per_environment_calls():
    # the suite's batched visits are the floats of one solve per
    # environment, and its dense cross-check agrees with them
    g = verify.tournier_graph()
    flat = sample_rows(g, RngStream(4), 500)
    batch = visits_rows(g, 0, [0, 1, 2, 3], flat)
    assert batch.tolist() == [float(visits_rows(g, 0, [0, 1, 2, 3], row[None])[0]) for row in flat]
    passed, ev = verify.tournier_exponent(n_envs=500, seed=4)
    assert passed and ev["solver_cross_check_dev"] <= 1e-12


def test_tournier_cross_check_is_relative_to_the_visits():
    # near the trap {0, 1} an environment's expected visits reach thousands:
    # here 4,765, where rounding of 5.6e-13 relative read 2.66e-9 absolute
    # and failed a true theorem under an absolute 1e-9 gate, with the Hill
    # estimate (1.544) inside its window
    passed, ev = verify.tournier_exponent(n_envs=20_000, seed=188441826822)
    assert 1.2 < ev["hill_estimate"] < 1.8
    assert passed and 1e-13 < ev["solver_cross_check_dev"] < 1e-12


def _bfs(succ, sources):
    seen = set(sources)
    stack = list(sources)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@st.composite
def _small_environments(draw):
    """A graph on 2-7 vertices named by non-contiguous ints or strings, every
    vertex with at least one out-edge, and one environment on it with
    probabilities at least 1/63."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        names = sorted(draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True)))
    else:
        names = sorted(draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                                     min_size=n, max_size=n, unique=True)))
    probs = {}
    edges = []
    for t in names:
        heads = draw(st.lists(st.sampled_from(names), min_size=1, max_size=n, unique=True))
        weights = np.array([draw(st.integers(1, 9)) for _ in heads], dtype=float)
        probs.update(zip([(t, h) for h in heads], (weights / weights.sum()).tolist()))
        edges += [(t, h, 1.0) for h in heads]
    g = WeightedDigraph(edges, vertices=names)
    return g, np.array([probs[e] for e in g.pos])


@settings(max_examples=300, deadline=None)
@given(_small_environments(), st.data())
def test_hitting_and_invariant_measure_against_dense_oracle(case, data):
    g, probs = case
    rows = _rows(g, probs)
    verts = list(g.vertices)
    target = frozenset(data.draw(st.lists(st.sampled_from(verts), min_size=1, unique=True)))
    rest = [v for v in verts if v not in target]
    taboo = frozenset(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else frozenset()
    succ = {v: tuple(rows[v]) for v in verts}
    pred = {v: [t for t in verts if v in succ[t]] for v in verts}
    unknown = [v for v in verts if v not in target | taboo]
    at = g.index
    if not set(unknown) <= _bfs(pred, target | taboo):
        with pytest.raises(UnreachableBoundary):
            _hit(g, probs, target, taboo)
    else:
        h = _hit(g, probs, target, taboo)
        M = np.eye(len(unknown))
        b = np.zeros(len(unknown))
        for i, v in enumerate(unknown):
            for y, q in rows[v].items():
                if y in target:
                    b[i] += q
                elif y in unknown:
                    M[i, unknown.index(y)] -= q
        x = np.linalg.solve(M, b) if unknown else b
        assert all(h[at[v]] == 1.0 for v in target) and all(h[at[v]] == 0.0 for v in taboo)
        for i, v in enumerate(unknown):
            assert abs(h[at[v]] - x[i]) <= 1e-12

    if all(_bfs(succ, [v]) == set(verts) for v in verts):
        pi = stationary_rows(g, probs[None])[0]
        flow = {v: sum(pi[at[t]] * rows[t].get(v, 0.0) for t in verts) for v in verts}
        assert all(abs(flow[v] - pi[at[v]]) <= 1e-12 for v in verts)
    else:
        with pytest.raises(NotStronglyConnected):
            stationary_rows(g, probs[None])


def _exact_hitting(rows, target, taboo):
    """vertex -> P(hit target before taboo) as a Fraction, by state
    reduction in exact arithmetic on the rows' floats: each unknown's loop
    is dropped (its exit mass is the sum of its other entries), and
    eliminating an unknown hands its row, scaled by the jump into it over
    its exit mass, to every unknown not yet eliminated."""
    rows = {v: {y: Fraction(q) for y, q in row.items() if y != v} for v, row in rows.items()}
    h = {v: Fraction(1) for v in target} | {v: Fraction(0) for v in taboo}
    unknown = [v for v in rows if v not in h]
    for n, j in enumerate(unknown):
        rate = sum(rows[j].values())
        for i in unknown[n + 1:]:
            if j in rows[i]:
                f = rows[i].pop(j) / rate
                for y, q in rows[j].items():
                    if y != i:
                        rows[i][y] = rows[i].get(y, 0) + f * q
    for j in reversed(unknown):
        h[j] = sum(q * h[y] for y, q in rows[j].items()) / sum(rows[j].values())
    return h


def _component(rows, x, S):
    """x's strongly connected component within S."""
    succ = {v: [y for y in rows[v] if y in S] for v in S}
    pred = {v: [t for t in S if v in succ[t]] for v in S}
    return _bfs(succ, [x]) & _bfs(pred, [x])


def _exact_visits(rows, x, S):
    """Expected visits to x before leaving S as a Fraction: 1 over the chance
    of leaving x's strongly connected component C within S before returning
    to x, with that chance from _exact_hitting."""
    comp = _component(rows, x, set(S))
    h = _exact_hitting(rows, [v for v in rows if v not in comp], [x])
    return 1 / sum(Fraction(q) * h[y] for y, q in rows[x].items())


@settings(max_examples=200, deadline=None)
@given(_small_environments(), st.data())
def test_hitting_and_visits_against_exact_state_reduction(case, data):
    # every value, however small, within 1e-12 of its own size
    g, probs = case
    rows = _rows(g, probs)
    verts = list(g.vertices)
    close = lambda got, exact: abs(Fraction(got) - exact) <= Fraction(1, 10**12) * exact
    target = frozenset(data.draw(st.lists(st.sampled_from(verts), min_size=1, unique=True)))
    rest = [v for v in verts if v not in target]
    taboo = frozenset(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else frozenset()
    pred = {v: [t for t in verts if v in rows[t]] for v in verts}
    if set(verts) <= _bfs(pred, target | taboo):
        h = _hit(g, probs, target, taboo)
        exact = _exact_hitting(rows, target, taboo)
        assert all(close(h[g.index[v]], exact[v]) for v in verts), (h, exact)

    x = data.draw(st.sampled_from(verts))
    S = {x} | set(data.draw(st.lists(st.sampled_from(verts), unique=True)))
    comp = _component(rows, x, S)
    if all(set(rows[v]) <= comp for v in comp):
        with pytest.raises(NoExit):
            visits_rows(g, x, S, probs[None])
    else:
        assert close(visits_rows(g, x, S, probs[None])[0], _exact_visits(rows, x, S))


@pytest.mark.parametrize("W", [64, 256, 1024])
def test_hitting_matches_the_scale_function_on_symmetric_windows(W):
    # recurrent (kappa1 = 0) windows [-W, W]: P_x(hit W before -W) is
    # sum_{k < x} e^V(k) / sum_k e^V(k), V the log of the products of
    # p(y, y - 1) / p(y, y + 1) over -W < y <= k, in log space; the band LU
    # was off by up to 1.0 here while passing its residual check
    g = build_window(NN, -W, W)
    probs = sample_rows(g, RngStream(3), 400)
    h = solver.hitting_rows(g, frozenset([W]), frozenset([-W]), probs)[:, 1:-1]
    up, down = ([g.pos[y, y + s] for y in range(-W + 1, W)] for s in (1, -1))
    V = np.cumsum(np.log(probs[:, down]) - np.log(probs[:, up]), axis=1)
    log_sums = np.logaddexp.accumulate(np.concatenate((np.zeros((len(probs), 1)), V), axis=1), axis=1)
    exact = np.exp(log_sums[:, :-1] - log_sums[:, -1:])
    assert np.max(np.abs(h - exact) / exact) <= 1e-10


def _outcome(fn):
    """fn's result, or the name of the rwde error it raised."""
    try:
        return fn()
    except (UnreachableBoundary, SingularSystem) as exc:
        return type(exc).__name__


def _per_environment_rows(g, target, taboo, probs):
    """hitting_rows on each row of probs alone, as a (rows, vertices) matrix."""
    return np.concatenate([hitting_rows(g, target, taboo, row[None]) for row in probs])


def _assert_batch_matches(g, target, taboo, probs, entries):
    from unittest import mock

    want = _outcome(lambda: _per_environment_rows(g, target, taboo, probs))
    with mock.patch.object(solver, "_SOLVE_ENTRIES", entries):
        got = _outcome(lambda: solver.hitting_rows(g, target, taboo, probs))
    if isinstance(want, str):
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()
    return want


@settings(max_examples=150, deadline=None)
@given(_small_environments(), st.data(), st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32))
def test_batched_hitting_matches_per_environment_calls_dense(case, data, k, entries, seed):
    # small graphs give systems of any bandwidth; the batch is solved a few
    # rows at a time (entries) and must give the single solves' floats, or
    # raise as they do
    g, _ = case
    verts = list(g.vertices)
    target = frozenset(data.draw(st.lists(st.sampled_from(verts), min_size=1, unique=True)))
    rest = [v for v in verts if v not in target]
    taboo = frozenset(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else frozenset()
    probs = sample_rows(g, RngStream(seed), k)
    _assert_batch_matches(g, target, taboo, probs, entries)


def test_batched_hitting_raises_unreachable_boundary_as_single_solves():
    g = WeightedDigraph([(0, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 0, 1.0)])
    probs = sample_rows(g, RngStream(3), 4)
    assert _assert_batch_matches(g, frozenset([1]), frozenset(), probs, 8) == "UnreachableBoundary"
    assert _assert_batch_matches(g, frozenset([0]), frozenset(), probs, 8) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(51, 160), st.integers(1, 8), st.integers(1, 600))
def test_batched_hitting_and_brackets_match_per_environment_calls_banded(seed, W, k, entries):
    # half-lines of more than 50 unknowns: long systems of a narrow band
    from rwde.model import derive_params
    from conftest import random_params

    p = random_params(random.Random(seed))
    g = build_halfline(p, W)
    probs = sample_rows(g, RngStream(seed), k)
    band, half = (frozenset(range(w - p.L + 1, W + 1)) for w in (W, W // 2))
    for target, taboo in ((band, frozenset([0])), (half, frozenset([0])),
                          (frozenset([0]), frozenset([W]))):
        _assert_batch_matches(g, target, taboo, probs, entries)
    if derive_params(p).kappa1 > 0:
        want = _outcome(lambda: [solver.escape_rows(p, g, row[None]) for row in probs])
        got = _outcome(lambda: solver.escape_rows(p, g, probs))
        if isinstance(want, str):
            assert got == want
        else:
            assert [(v[0], t[0]) for v, t in want] == list(zip(*(a.tolist() for a in got)))
