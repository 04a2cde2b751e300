import random
import warnings

import pytest

from rwde import kappa
from rwde.errors import DiameterTooSmall, EmptySet, UncertifiedKappa0
from rwde.kappa import (
    _seed_candidate,
    classify_regime,
    diameter_bound,
    exit_weights,
    kappa0_search,
    min_exit_weight,
)
from rwde.graphs import WeightedDigraph, build_window, strongly_connected
from rwde.model import derive_params, reflect, validate_params
from conftest import exhaustive_kappa0, random_params

B7 = validate_params(16, 5, {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67})
S4 = (0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16)
TWO_LOOP = validate_params(6, 3, {-6: 1.0, 2: 1.0, 3: 1.0})


def test_exit_weights_pair_formula():
    # support {-1, 1, R}: exits of {0, 1} are two R-jumps plus one step each way
    p = validate_params(1, 3, {-1: 0.8, 1: 1.1, 3: 0.4})
    ts = exit_weights(p, {0, 1})
    assert ts.beta == pytest.approx(2 * 0.4 + 1.1 + 0.8, abs=1e-12)
    assert ts.exit_counts == {-1: 1, 1: 1, 3: 2}


def test_exit_weights_interval_is_total_weighted_sum():
    rnd = random.Random(2)
    for _ in range(10):
        p = random_params(rnd)
        dp = derive_params(p)
        ts = exit_weights(p, range(dp.m0))
        assert ts.beta == pytest.approx(dp.d_plus + dp.d_minus, rel=1e-12)


def test_exit_weights_wide_support_witnesses():
    s1 = tuple(range(0, 17, 2))
    s2 = (0, 5, 10, 15, 16, 20, 25, 30, 32)
    s3 = (0, 5, 10, 12, 14, 16)
    vals = [exit_weights(B7, s).beta for s in (s1, s2, s3, S4)]
    assert vals[0] == pytest.approx(68 / 67, abs=1e-12)
    assert vals[1] == pytest.approx(142 / 67, abs=1e-12)
    assert vals[2] == pytest.approx(70 / 67, abs=1e-12)
    assert vals[3] == pytest.approx(1.0, abs=1e-12)


def test_exit_weights_recomputes_and_validates():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    ts = exit_weights(p, (0, 1))
    assert ts.beta == sum(ts.exit_counts[i] * p.alphas[i] for i in ts.exit_counts)
    with pytest.raises(EmptySet):
        exit_weights(p, ())
    with pytest.raises(ValueError):
        exit_weights(p, (1, 2))


def test_exit_counts_at_least_one_off_loop():
    rnd = random.Random(9)
    for _ in range(30):
        p = random_params(rnd)
        g = build_window(p, 0, 8)
        S = sorted({0} | {rnd.randrange(1, 9) for _ in range(rnd.randrange(0, 5))})
        if not strongly_connected(g, S):
            continue
        ts = exit_weights(p, S)
        for i, c in ts.exit_counts.items():
            if i != 0:
                assert c >= 1


def test_diameter_bound_examples():
    assert diameter_bound(validate_params(1, 1, {-1: 1.0, 1: 2.0})) == 2
    assert diameter_bound(validate_params(1, 1, {-1: 1.0, 1: 1.0})) == 1
    assert diameter_bound(B7) == 70 * 18


def test_search_nearest_neighbor():
    p = validate_params(1, 1, {-1: 1.3, 1: 2.2})
    res = kappa0_search(p, 6)
    assert res.value == pytest.approx(3.5, abs=1e-12)
    assert res.witness.offsets == (0, 1)
    assert res.certified


def test_search_self_loop_singleton():
    p = validate_params(1, 1, {-1: 1.0, 0: 0.4, 1: 2.0})
    res = kappa0_search(p, 6)
    dp = derive_params(p)
    assert res.value == pytest.approx(dp.c_plus + dp.c_minus, abs=1e-12)
    assert res.witness.offsets == (0,)


def test_search_two_candidate_family():
    # L = R = 2 with inner weights: minimum of the two pair exit weights
    p = validate_params(2, 2, {-2: 0.5, -1: 0.9, 1: 1.2, 2: 0.3})
    res = kappa0_search(p, 10)
    b01 = exit_weights(p, (0, 1)).beta
    b02 = exit_weights(p, (0, 2)).beta
    assert res.value == pytest.approx(min(b01, b02), abs=1e-12)


def test_search_sparse_left_jump_family():
    # support {-6, 2, 3}: minimum of the two loop exit weights
    p = validate_params(6, 3, {-6: 1.0, 2: 1.0, 3: 1.0})
    res = kappa0_search(p, 12)
    assert res.value == pytest.approx(6.0, abs=1e-12)
    assert res.witness.offsets == (0, 3, 6)
    beta, _, offsets = exhaustive_kappa0(p, 12)
    assert (beta, offsets) == (res.value, res.witness.offsets)


def test_search_wide_support_compact_diameter():
    # the witness has diameter 16 but the precondition needs m0 = 18
    beta, _, offsets = exhaustive_kappa0(B7, 18)
    assert beta == pytest.approx(1.0, abs=1e-9)
    assert offsets == S4
    assert not kappa0_search(B7, 18).certified  # certified bound is far larger


def test_branch_and_bound_matches_exhaustive_randomized():
    rnd = random.Random(123)
    for _ in range(40):
        p = random_params(rnd)
        D = max(derive_params(p).m0, rnd.randrange(4, 11))
        beta, _, offsets = exhaustive_kappa0(p, D)
        b = kappa0_search(p, D)
        assert beta == b.value
        assert offsets == b.witness.offsets


def test_monotone_under_outside_extension():
    # appending a vertex strictly left or right of the set never lowers beta
    rnd = random.Random(77)
    for _ in range(60):
        p = random_params(rnd)
        S = sorted({0} | {rnd.randrange(1, 9) for _ in range(rnd.randrange(0, 5))})
        base = exit_weights(p, S).beta
        right = exit_weights(p, S + [max(S) + rnd.randrange(1, 4)]).beta
        shift = rnd.randrange(1, 4)
        left = exit_weights(p, [0] + [z + shift for z in S]).beta
        assert right >= base - 1e-12
        assert left >= base - 1e-12


def test_value_bounds_and_reflection_and_scaling():
    rnd = random.Random(5)
    for _ in range(15):
        p = random_params(rnd)
        dp = derive_params(p)
        D = max(dp.m0, 8)
        res = kappa0_search(p, D)
        assert dp.c_plus + dp.c_minus - 1e-12 <= res.value <= dp.d_plus + dp.d_minus + 1e-12
        res_r = kappa0_search(reflect(p), max(derive_params(reflect(p)).m0, 8))
        assert res_r.value == pytest.approx(res.value, rel=1e-12)
        lam = 0.25 + 2 * rnd.random()
        scaled = validate_params(p.L, p.R, {i: lam * w for i, w in p.alphas.items()})
        res_s = kappa0_search(scaled, D)
        assert res_s.value == pytest.approx(lam * res.value, rel=1e-12)
        assert res_s.witness.offsets == res.witness.offsets


def test_diameter_too_small():
    with pytest.raises(DiameterTooSmall):
        kappa0_search(B7, 10)  # m0 = 18


def test_classify_recurrent():
    p = validate_params(1, 1, {-1: 1.0, 1: 1.0})
    res = kappa0_search(p, 6)
    regime = classify_regime(p, res)
    assert regime.tag == "Recurrent" and not regime.ballistic


def test_classify_ballistic_construction():
    # kappa0 = 3 via the pair formula, kappa1 = 2
    p = validate_params(1, 4, {-1: 1.0, 1: 1.0, 4: 0.5})
    res = kappa0_search(p, 12)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    dp = derive_params(p)
    assert dp.kappa1 == pytest.approx(2.0, abs=1e-12)
    regime = classify_regime(p, res)
    assert regime.tag == "TransientRight" and regime.ballistic


def test_classify_zero_speed_transient():
    res = kappa0_search(B7, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedKappa0)
        regime = classify_regime(B7, res)
    assert regime.tag == "TransientRight"
    assert not regime.ballistic  # min(1, 39/67) <= 1
    assert regime.warning is not None


def test_classify_boundary_is_not_ballistic():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})  # kappa1 = 1 exactly
    regime = classify_regime(p, kappa0_search(p, 6))
    assert regime.tag == "TransientRight" and not regime.ballistic


def test_left_transient_classification():
    p = validate_params(4, 1, {-4: 0.5, -1: 1.0, 1: 1.0})
    regime = classify_regime(p, kappa0_search(p, 12))
    assert regime.tag == "TransientLeft" and regime.ballistic


def test_uncertified_warning_emitted():
    res = kappa0_search(B7, 20)
    assert not res.certified
    with pytest.warns(UncertifiedKappa0):
        classify_regime(B7, res)


def test_node_budget_flags_partial_result(monkeypatch):
    monkeypatch.setattr(kappa, "NODE_BUDGET", 500)
    res = kappa0_search(B7, 40)
    assert res.budget_exhausted and not res.certified
    assert res.value >= 1.0 - 1e-12  # incumbent is always a valid upper bound


# (value, witness, nodes_explored, budget_exhausted) of the branch-and-bound
# search; the node counts pin the search order and pruning, not only the answer
PINNED_SEARCHES = [
    (B7, 24, (1.0, S4, 19395, False)),
    (B7, 40, (1.0, S4, 71547, False)),
    (TWO_LOOP, 12, (6.0, (0, 3, 6), 1701, False)),
    (TWO_LOOP, 24, (6.0, (0, 3, 6), 9381, False)),
]
PINNED_RANDOM = [
    (5.754272724849281, (0,), 25, False),
    (3.4541214310326804, (0,), 25, False),
    (6.390847776235801, (0,), 25, False),
    (6.592939815806853, (0,), 25, False),
    (3.2034983254696963, (0,), 25, False),
    (6.070846448153301, (0,), 25, False),
    (9.805560741473439, (0, 1, 2), 175, False),
    (6.471522831441605, (0, 1), 157, False),
    (9.363688079911379, (0,), 25, False),
    (5.077218494892577, (0,), 25, False),
    (3.1947875611657883, (0,), 157, False),
    (2.563985961396717, (0,), 25, False),
    (8.309100837917319, (0, 1), 157, False),
    (2.9910699720896265, (0,), 157, False),
    (6.251632080658403, (0,), 25, False),
    (6.7713910925916165, (0,), 25, False),
    (8.311400507509457, (0,), 25, False),
    (5.940149082115807, (0, 2), 205, False),
    (3.8245510538965872, (0,), 25, False),
    (7.068018481344827, (0, 1, 2), 303, False),
]


def _pin(res):
    return (res.value, res.witness.offsets, res.nodes_explored, res.budget_exhausted)


@pytest.mark.parametrize("p, D, expected", PINNED_SEARCHES)
def test_search_pinned_outputs(p, D, expected):
    assert _pin(kappa0_search(p, D)) == expected


def test_search_pinned_outputs_randomized():
    rnd = random.Random(2024)
    for expected in PINNED_RANDOM:
        p = random_params(rnd)
        D = max(derive_params(p).m0, 12)
        assert _pin(kappa0_search(p, D)) == expected


def test_seed_candidate_is_a_trap_inside_the_diameter():
    # the search starts from this incumbent, so it is never without one
    rnd = random.Random(21)
    for _ in range(300):
        p = random_params(rnd, max_side=6)
        dp = derive_params(p)
        D = dp.m0 + rnd.randrange(5)
        beta, card, offsets = _seed_candidate(p, dp)
        assert offsets[0] == 0 and offsets[-1] <= D and card == len(offsets)
        # a singleton is a trap only with a self-loop, as the graph's rule says
        assert strongly_connected(build_window(p, 0, D), offsets), (p, offsets)
        assert beta == exit_weights(p, offsets).beta


def test_search_runs_in_one_process():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    assert kappa0_search(p, 6, threads=1).value == 3.0
    with pytest.raises(ValueError, match="threads"):
        kappa0_search(p, 6, threads=2)


def test_branch_and_bound_deep_search():
    # the search used to recurse once per site and refuse diameters above
    # 900; here the all-exclude chain is 5,001 nodes deep
    p = validate_params(2, 1, {-2: 1.0, 0: 1.0, 1: 1.0})
    res = kappa0_search(p, 5000)
    assert _pin(res) == (2.0, (0,), 10001, False)
    assert res.certified


def test_diameter_bound_overflow_names_weights():
    for alphas in ({-1: 1e-320, 1: 1.0}, {-1: 1e308, 1: 1e308}):
        p = validate_params(1, 1, alphas)
        with pytest.raises(ValueError, match=r"weights \{-1: "):
            diameter_bound(p)


def test_min_exit_weight_generic_graph():
    g = WeightedDigraph(
        [
            (0, 1, 3.0), (0, 4, 0.75),
            (1, 0, 3.0), (1, 4, 0.75),
            (2, 0, 1.0), (2, 4, 1.0),
            (3, 2, 1.0), (3, 4, 1.0),
            (4, 4, 1.0),
        ]
    )
    value, witness = min_exit_weight(g, 0)
    assert value == pytest.approx(1.5, abs=1e-12)
    assert witness == (0, 1)
