import hashlib
import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwde import cli, verify
from rwde.environment import Environment, RngStream, sample_environment
from rwde.errors import NoExit, NotStronglyConnected, SingularSystem, UnreachableBoundary
from rwde.graphs import WeightedDigraph, build_drift_closure, build_halfline, build_window
from rwde.model import parse_alphas, validate_params
from rwde.solver import (
    HittingProblem,
    _dense_solve,
    escape_probability_bracket,
    expected_visits,
    hitting_probability,
    invariant_measure,
    redirect_to,
    time_reverse,
)
from rwde.walk import simulate_quenched
from conftest import gambler_ruin_up_probability

NN = validate_params(1, 1, {-1: 1.0, 1: 1.0})


def _nn_env(p_right, graph=None):
    """Environment on a birth-death window [0, N] with given up-probabilities
    at the interior sites (boundary rows forced by the window edges)."""
    N = len(p_right) + 1
    g = graph or build_window(NN, 0, N)
    rows = {0: ((1,), np.array([1.0])), N: ((N - 1,), np.array([1.0]))}
    for z in range(1, N):
        rows[z] = ((z - 1, z + 1), np.array([1.0 - p_right[z - 1], p_right[z - 1]]))
    return Environment(g, rows)


def test_hitting_boundary_conditions():
    env = _nn_env([0.5] * 4)
    h = hitting_probability(HittingProblem(env, frozenset([5]), frozenset([0])))
    assert h[5] == 1.0 and h[0] == 0.0


def test_hitting_symmetric_ruin():
    N = 10
    env = _nn_env([0.5] * (N - 1))
    h = hitting_probability(HittingProblem(env, frozenset([N]), frozenset([0])))
    for z in range(N + 1):
        assert h[z] == pytest.approx(z / N, abs=1e-10)


def test_hitting_random_environment_against_closed_form():
    rnd = np.random.default_rng(4)
    for _ in range(10):
        N = int(rnd.integers(5, 60))
        p_right = rnd.uniform(0.2, 0.9, size=N - 1)
        env = _nn_env(p_right)
        h = hitting_probability(HittingProblem(env, frozenset([N]), frozenset([0])))
        oracle = gambler_ruin_up_probability(p_right)
        for z in range(N + 1):
            assert h[z] == pytest.approx(oracle[z], abs=1e-9)


def test_hitting_complementary_problems_sum_to_one():
    rnd = np.random.default_rng(11)
    p_right = rnd.uniform(0.2, 0.9, size=20)
    env = _nn_env(p_right)
    N = len(p_right) + 1
    a = hitting_probability(HittingProblem(env, frozenset([N]), frozenset([0])))
    b = hitting_probability(HittingProblem(env, frozenset([0]), frozenset([N])))
    for z in env.vertices:
        assert a[z] + b[z] == pytest.approx(1.0, abs=1e-10)


def test_hitting_unreachable_boundary():
    g = WeightedDigraph([(0, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    rows = {
        0: ((0,), np.array([1.0])),
        1: ((2,), np.array([1.0])),
        2: ((1,), np.array([1.0])),
    }
    env = Environment(g, rows)
    with pytest.raises(UnreachableBoundary):
        hitting_probability(HittingProblem(env, frozenset([0]), frozenset()))


def test_harmonic_surgery_never_lowers_values():
    p = validate_params(1, 2, {-1: 1.0, 1: 0.5, 2: 0.8})
    g = build_window(p, 0, 8)
    env = sample_environment(g, RngStream(21))
    A, B = frozenset([8]), frozenset([0])
    h = hitting_probability(HittingProblem(env, A, B))
    interior = [v for v in env.vertices if v not in A | B]
    x = min(interior, key=lambda v: h[v])
    y = max(interior, key=lambda v: h[v])
    env2 = redirect_to(env, x, y)
    h2 = hitting_probability(HittingProblem(env2, A, B))
    for z in env.vertices:
        assert h2[z] >= h[z] - 1e-10


def test_expected_visits_geometric():
    # single state with exit probability q is held 1/q times on average
    g = WeightedDigraph([(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
    q = 0.3
    env = Environment(g, {
        0: ((0, 1), np.array([1.0 - q, q])),
        1: ((1,), np.array([1.0])),
    })
    assert expected_visits(env, 0, [0]) == pytest.approx(1.0 / q, abs=1e-10)


def test_expected_visits_no_exit():
    g = WeightedDigraph([(0, 1, 1.0), (1, 0, 1.0)])
    env = Environment(g, {0: ((1,), np.array([1.0])), 1: ((0,), np.array([1.0]))})
    with pytest.raises(NoExit):
        expected_visits(env, 0, [0, 1])


def test_expected_visits_ignores_unreachable_closed_class():
    # {1, 2} is a closed class inside S that 0 cannot reach; over all of S
    # the system is singular and the solve used to return nan
    g = WeightedDigraph([(0, 0, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 3, 1.0)])
    env = Environment(g, {
        0: ((0, 3), np.array([0.5, 0.5])),
        1: ((2,), np.array([1.0])),
        2: ((1,), np.array([1.0])),
        3: ((3,), np.array([1.0])),
    })
    assert expected_visits(env, 0, [0, 1, 2]) == 2.0


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_dense_solve_rejects_singular_system():
    # the residual of an inf/nan solution is nan, which must fail the check
    for M, b in (([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]), ([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0])):
        with pytest.raises(SingularSystem):
            _dense_solve(np.array(M), np.array(b))


def test_expected_visits_matches_monte_carlo():
    p = validate_params(1, 1, {-1: 0.8, 1: 1.4})
    g = build_window(p, 0, 4)
    env = sample_environment(g, RngStream(33))
    S = [1, 2, 3]
    exact = expected_visits(env, 2, S)
    n = 100_000
    base = RngStream(34)
    total = 0
    counts = np.empty(n)
    for i in range(n):
        traj = simulate_quenched(env, 2, 10_000, base.substream(i), targets=(0, 4))
        c = sum(1 for z in traj.positions if z == 2)
        counts[i] = c
        total += c
    mc = total / n
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(mc - exact) <= 3 * se


def test_escape_bracket_deterministic_right():
    W = 8
    g = WeightedDigraph([(x, x + 1, 1.0) for x in range(W)] + [(W, W, 1.0)])
    rows = {x: ((x + 1,), np.array([1.0])) for x in range(W)}
    rows[W] = ((W,), np.array([1.0]))
    env = Environment(g, rows)
    p = validate_params(1, 1, {-1: 1e-9, 1: 1.0})
    br = escape_probability_bracket(p, env)
    assert (br.lower, br.upper) == (1.0, 1.0)


def test_escape_bracket_constant_drift():
    # p = 2/3 everywhere: escape probability 1/2 in the window limit
    W = 64
    g = build_halfline(NN, W)
    rows = {0: ((1,), np.array([1.0]))}
    for z in range(1, W):
        rows[z] = ((z - 1, z + 1), np.array([1 / 3, 2 / 3]))
    rows[W] = ((W - 1, W), np.array([1 / 3, 2 / 3]))
    env = Environment(g, rows)
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    br = escape_probability_bracket(p, env)
    assert br.width == 0.0  # nearest-neighbor band is the single far vertex
    assert br.midpoint == pytest.approx(0.5, abs=1e-3)


def test_escape_bracket_matches_product_formula():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    W = 128
    g = build_halfline(p, W)
    env = sample_environment(g, RngStream(55))
    br = escape_probability_bracket(p, env)
    p_right = np.array([env.prob(z, z + 1) for z in range(1, W)])
    oracle = gambler_ruin_up_probability(p_right)
    assert br.upper == pytest.approx(oracle[1], abs=1e-9)


def test_escape_bracket_bounds_and_window_refinement():
    # coupling: clamp the wider environment onto the narrower window
    p = validate_params(2, 2, {-2: 0.3, -1: 1.0, 1: 1.4, 2: 0.6})
    W2, W1 = 96, 64
    g2 = build_halfline(p, W2)
    g1 = build_halfline(p, W1)
    for k in range(5):
        env2 = sample_environment(g2, RngStream(60, (k,)))
        rows1 = {}
        for x in g1.vertices:
            heads2, probs2 = env2.row(x)
            merged = {}
            for h, q in zip(heads2, probs2):
                merged[min(h, W1)] = merged.get(min(h, W1), 0.0) + q
            heads = tuple(sorted(merged))
            rows1[x] = (heads, np.array([merged[h] for h in heads]))
        env1 = Environment(g1, rows1)
        b1 = escape_probability_bracket(p, env1)
        b2 = escape_probability_bracket(p, env2)
        assert b1.lower <= b1.upper + 1e-15
        assert b2.lower <= b2.upper + 1e-15
        assert b2.upper <= b1.upper + 1e-12  # upper tightens with the window


def test_invariant_measure_two_state():
    g = WeightedDigraph([(0, 1, 1.0), (1, 0, 1.0), (0, 0, 1.0), (1, 1, 1.0)])
    env = Environment(g, {
        0: ((0, 1), np.array([0.5, 0.5])),
        1: ((0, 1), np.array([0.5, 0.5])),
    })
    pi = invariant_measure(env)
    assert pi[0] == pytest.approx(0.5, abs=1e-12)
    p, q = 0.3, 0.8
    env2 = Environment(g, {
        0: ((0, 1), np.array([1 - p, p])),
        1: ((0, 1), np.array([q, 1 - q])),
    })
    pi2 = invariant_measure(env2)
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
        env = sample_environment(g, RngStream(70, (k,)))
        pi = invariant_measure(env)
        verts = env.vertices
        for x in verts:
            flow = sum(pi[t] * env.prob(t, x) for t in verts)
            assert flow == pytest.approx(pi[x], abs=1e-10)


def test_invariant_measure_requires_strong_connectivity():
    g = WeightedDigraph([(0, 1, 1.0), (1, 1, 1.0)])
    env = Environment(g, {0: ((1,), np.array([1.0])), 1: ((1,), np.array([1.0]))})
    with pytest.raises(NotStronglyConnected):
        invariant_measure(env)


def test_time_reverse_fixed_point_on_reversible_chain():
    g = WeightedDigraph(
        [(i, j, 1.0) for i in range(3) for j in range(3) if i != j]
    )
    env = Environment(g, {
        0: ((1, 2), np.array([0.5, 0.5])),
        1: ((0, 2), np.array([0.5, 0.5])),
        2: ((0, 1), np.array([0.5, 0.5])),
    })
    rev = time_reverse(env)
    for t, h, _ in g.edges():
        assert rev.prob(t, h) == pytest.approx(env.prob(t, h), abs=1e-12)


def test_time_reverse_cycle_identity_and_involution():
    rnd = random.Random(9)
    n = 4
    edges = [(i, j, 0.3 + rnd.random()) for i in range(n) for j in range(n) if i != j]
    g = WeightedDigraph(edges)
    env = sample_environment(g, RngStream(81))
    rev = time_reverse(env)
    for _ in range(100):
        k = rnd.randrange(2, 6)
        cyc = [rnd.randrange(n)]
        for _ in range(k - 1):
            cyc.append(rnd.choice([j for j in range(n) if j != cyc[-1]]))
        cyc.append(cyc[0])
        fwd = math.prod(env.prob(t, h) for t, h in zip(cyc, cyc[1:]))
        rcyc = cyc[::-1]
        bwd = math.prod(rev.prob(t, h) for t, h in zip(rcyc, rcyc[1:]))
        assert abs(fwd - bwd) <= 1e-10
    back = time_reverse(rev)
    for t, h, _ in g.edges():
        assert back.prob(t, h) == pytest.approx(env.prob(t, h), abs=1e-10)


GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_solver.json").read_text())


def test_solver_and_suite_outputs_golden():
    # recorded before the solvers moved to the graph's flat row layout; a
    # deliberate change of any of these outputs must update the file openly
    for text, by_seed in GOLDEN["brackets"].items():
        p, _ = parse_alphas(text)
        g = build_halfline(p, 128)
        for seed, (lower, upper) in by_seed.items():
            br = escape_probability_bracket(p, sample_environment(g, RngStream(int(seed))))
            assert (repr(br.lower), repr(br.upper)) == (lower, upper), (text, seed)
    p, _ = parse_alphas("-1:1,1:2")
    env = sample_environment(build_drift_closure(p, 6), RngStream(7))
    rev_dump = time_reverse(env).dump().encode()
    pi_items = repr(sorted(invariant_measure(env).items())).encode()
    assert hashlib.sha256(rev_dump).hexdigest() == GOLDEN["closure"]["time_reverse_dump_sha256"]
    assert hashlib.sha256(pi_items).hexdigest() == GOLDEN["closure"]["invariant_items_sha256"]
    sizes = {"reversal": {"replicas": 50}, "beta-law": {"replicas": 10, "window": 128},
             "derrw": {"steps": 500}, "loop-reversal": {"steps": 300},
             "tournier": {"replicas": 2000}}
    for name, kw in sizes.items():
        _, evidence = verify.run_suite(name, p, seed=5, **kw)
        assert cli.dumps(evidence) == GOLDEN["suites"][name], name


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
    """Environment on 2-7 vertices named by non-contiguous ints or strings,
    every vertex with at least one out-edge, probabilities at least 1/63;
    rows are listed with their heads in shuffled order."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        names = sorted(draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True)))
    else:
        names = sorted(draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                                     min_size=n, max_size=n, unique=True)))
    rows = {}
    edges = []
    for t in names:
        heads = draw(st.lists(st.sampled_from(names), min_size=1, max_size=n, unique=True))
        weights = np.array([draw(st.integers(1, 9)) for _ in heads], dtype=float)
        rows[t] = (tuple(heads), weights / weights.sum())
        edges += [(t, h, 1.0) for h in heads]
    return Environment(WeightedDigraph(edges, vertices=names), rows)


@settings(max_examples=300, deadline=None)
@given(_small_environments(), st.data())
def test_hitting_and_invariant_measure_against_dense_oracle(env, data):
    verts = list(env.vertices)
    target = frozenset(data.draw(st.lists(st.sampled_from(verts), min_size=1, unique=True)))
    rest = [v for v in verts if v not in target]
    taboo = frozenset(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else frozenset()
    succ = {v: env.row(v)[0] for v in verts}
    pred = {v: [t for t in verts if v in succ[t]] for v in verts}
    unknown = [v for v in verts if v not in target | taboo]
    problem = HittingProblem(env, target, taboo)
    if not set(unknown) <= _bfs(pred, target | taboo):
        with pytest.raises(UnreachableBoundary):
            hitting_probability(problem)
    else:
        h = hitting_probability(problem)
        M = np.eye(len(unknown))
        b = np.zeros(len(unknown))
        for i, v in enumerate(unknown):
            for y, q in zip(*env.row(v)):
                if y in target:
                    b[i] += q
                elif y in unknown:
                    M[i, unknown.index(y)] -= q
        x = np.linalg.solve(M, b) if unknown else b
        assert set(h) == set(verts)
        assert all(h[v] == 1.0 for v in target) and all(h[v] == 0.0 for v in taboo)
        for i, v in enumerate(unknown):
            assert abs(h[v] - x[i]) <= 1e-12

    if all(_bfs(succ, [v]) == set(verts) for v in verts):
        pi = invariant_measure(env)
        flow = {v: sum(pi[t] * env.prob(t, v) for t in verts) for v in verts}
        assert all(abs(flow[v] - pi[v]) <= 1e-12 for v in verts)
    else:
        with pytest.raises(NotStronglyConnected):
            invariant_measure(env)
