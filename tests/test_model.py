import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwde.errors import EmptySide, EndpointZero, GcdViolation, NegativeWeight
from rwde.graphs import build_window, strongly_connected
from rwde.model import (
    DirichletParams,
    _sc_bits,
    compute_m0,
    derive_params,
    parse_alphas,
    reflect,
    validate_params,
)
from conftest import random_params, reach_closure_oracle

GOLDEN = pathlib.Path(__file__).parent / "golden_m0.json"


def test_validate_minimal_nearest_neighbor():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    assert p.support == (-1, 1)


def test_validate_gcd_violation():
    with pytest.raises(GcdViolation):
        validate_params(2, 2, {-2: 1.0, 2: 1.0})


def test_validate_endpoint_zero():
    with pytest.raises(EndpointZero):
        validate_params(1, 2, {-1: 1.0, 1: 1.0, 2: 0.0})


def test_validate_negative_and_empty_side():
    with pytest.raises(NegativeWeight):
        validate_params(1, 1, {-1: 1.0, 1: -0.5})
    with pytest.raises(NegativeWeight):
        validate_params(1, 1, {-1: 1.0, 1: float("nan")})
    with pytest.raises(EmptySide):
        validate_params(0, 1, {0: 1.0, 1: 1.0})
    with pytest.raises(ValueError):
        validate_params(1, 1, {-1: 1.0, 1: 1.0, 5: 1.0})


def test_derive_nearest_neighbor_drift():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    dp = derive_params(p)
    assert dp.kappa1 == pytest.approx(1.0, abs=1e-15)
    assert dp.d_plus == 2.0 and dp.d_minus == 1.0
    assert dp.c_plus == 2.0 and dp.c_minus == 1.0
    assert not dp.kappa1_is_zero


def test_derive_sparse_wide_support():
    # weighted sum (-16 + 30 + 25) / 67
    p = validate_params(16, 5, {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67})
    dp = derive_params(p)
    assert dp.kappa1 == pytest.approx(39 / 67, abs=1e-15)


def test_derive_symmetric_is_zero():
    p = validate_params(1, 1, {-1: 0.7, 1: 0.7})
    dp = derive_params(p)
    assert dp.kappa1 == 0.0
    assert dp.kappa1_is_zero


def test_m0_nearest_neighbor():
    assert compute_m0(validate_params(1, 1, {-1: 1.0, 1: 1.0})) == 1


def test_m0_skip_support():
    # length 2 fails (no edge 0 -> 1 inside [0, 1]), length 3 works
    assert compute_m0(validate_params(1, 2, {-1: 1.0, 2: 1.0})) == 3


def _m0_oracle(L, R, support, cap=400):
    """Independent oracle: transitive closure by matrix squaring per length."""
    m = max(L, R)
    while m <= cap:
        if m <= 1:
            return m
        edges = [(x, x + i) for x in range(m) for i in support if 0 <= x + i < m and i != 0]
        reach = reach_closure_oracle(m, edges)
        if all(reach[a, b] for a in range(m) for b in range(m) if a != b):
            return m
        m += 1
    raise AssertionError("oracle cap")


def test_m0_wide_support_matches_golden_and_oracle():
    p = validate_params(16, 5, {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67})
    got = compute_m0(p)
    oracle = _m0_oracle(16, 5, [-16, 2, 5])
    golden = json.loads(GOLDEN.read_text())["L16_R5_support_-16_2_5"]
    assert got == oracle == golden


def test_m0_randomized_matches_oracle_and_is_minimal():
    rnd = random.Random(42)
    for _ in range(25):
        p = random_params(rnd)
        m0 = compute_m0(p)
        support = [i for i in p.support if i != 0]
        assert m0 == _m0_oracle(p.L, p.R, support)
        assert m0 >= max(p.L, p.R)
        if m0 > max(p.L, p.R):
            assert _m0_oracle(p.L, p.R, support) == m0  # interval m0-1 fails
            edges = [
                (x, x + i) for x in range(m0 - 1) for i in support if 0 <= x + i < m0 - 1
            ]
            reach = reach_closure_oracle(m0 - 1, edges)
            assert not all(
                reach[a, b] for a in range(m0 - 1) for b in range(m0 - 1) if a != b
            )


def test_reflect_examples():
    p = validate_params(1, 1, {-1: 1.0, 1: 2.0})
    q = reflect(p)
    assert q.alphas == {-1: 2.0, 1: 1.0}
    assert reflect(q).alphas == p.alphas


def test_reflect_flips_kappa1_sign():
    p = validate_params(16, 5, {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67})
    dq = derive_params(reflect(p))
    assert dq.kappa1 == pytest.approx(-39 / 67, abs=1e-15)
    assert dq.d_plus == pytest.approx(derive_params(p).d_minus)
    assert dq.c_minus == pytest.approx(derive_params(p).c_plus)


def test_one_sided_sums_dominate():
    rnd = random.Random(7)
    for _ in range(50):
        p = random_params(rnd)
        dp = derive_params(p)
        assert dp.c_plus + dp.c_minus <= dp.d_plus + dp.d_minus + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 3),
    R=st.integers(1, 3),
    wl=st.floats(0.05, 4.0),
    wr=st.floats(0.05, 4.0),
    w1=st.floats(0.0, 4.0),
    wm1=st.floats(0.0, 4.0),
)
def test_reflect_involution_property(L, R, wl, wr, w1, wm1):
    alphas = {-L: wl, R: wr}
    if w1 > 0 and 1 <= R:
        alphas[1] = w1
    if wm1 > 0 and -1 >= -L:
        alphas[-1] = wm1
    try:
        p = validate_params(L, R, alphas)
    except GcdViolation:
        return
    q = reflect(reflect(p))
    assert q.L == p.L and q.R == p.R and q.alphas == p.alphas
    assert derive_params(reflect(p)).kappa1 == pytest.approx(-derive_params(p).kappa1)


@settings(max_examples=300, deadline=None)
@given(
    support=st.sets(st.integers(-5, 5).filter(bool), min_size=1),
    D=st.integers(1, 14),
    data=st.data(),
)
def test_sc_bits_matches_graph_strong_connectivity(support, D, data):
    # the kappa0 strategies and compute_m0 all share _sc_bits, so its oracle
    # is the graph layer's induced-subgraph check on the window [0, D]
    rest = data.draw(st.sets(st.integers(1, D), min_size=1))
    S = {0} | rest
    p = DirichletParams(L=max(1, -min(support)), R=max(1, max(support)),
                        alphas={i: 1.0 for i in support})
    mask = sum(1 << z for z in S)
    assert _sc_bits(mask, sorted(support)) == strongly_connected(build_window(p, 0, D), S)


def test_cap_exceeded_is_unreachable_for_valid_params():
    # the gcd condition guarantees existence well under the cap
    rnd = random.Random(3)
    for _ in range(20):
        p = random_params(rnd)
        assert compute_m0(p) <= 4 * (p.L + p.R) ** 2


def test_parse_alphas_roundtrip_and_errors():
    p, dp = parse_alphas("-16:0.0149254,2:0.2238806,5:0.0746269")
    assert p.L == 16 and p.R == 5
    assert dp.kappa1 == pytest.approx(0.5820893, abs=1e-7)
    with pytest.raises(ValueError):
        parse_alphas("")
    with pytest.raises(ValueError):
        parse_alphas("-1:1,-1:2,1:1")
    with pytest.raises(ValueError):
        parse_alphas("x:1")


def test_parse_alphas_bad_endpoint_weight_is_negative_weight():
    # L and R come from the positive weights, so a bad weight at an endpoint
    # used to be reported as an empty side or an offset out of range
    for text, offset in (("-1:nan,1:1", -1), ("-1:-2,1:1", -1), ("-2:nan,-1:1,1:1", -2)):
        with pytest.raises(NegativeWeight, match=f"offset {offset} "):
            parse_alphas(text)
