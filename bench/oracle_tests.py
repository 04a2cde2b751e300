"""Tests of the benchmark's oracles on hand-checked cases.

    python -m pytest bench/oracle_tests.py

The file name keeps these tests out of the library's own test collection.
"""
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402

DERRW_EDGES = [(0, 1, 1.0), (0, 2, 2.0), (1, 0, 1.5), (1, 2, 1.0), (2, 0, 1.0), (2, 1, 0.5)]
TOURNIER_EDGES = [
    (0, 1, 3.0), (0, 4, 0.75), (1, 0, 3.0), (1, 4, 0.75), (2, 0, 1.0), (2, 4, 1.0),
    (3, 2, 1.0), (3, 4, 1.0), (4, 4, 1.0),
]


def test_exit_weight_counts_each_leaving_edge():
    a = {-1: 0.7, 1: 1.9}
    assert oracles.exit_weight(a, (0, 1)) == 0.7 + 1.9
    assert oracles.exit_weight(a, (0, 1, 2)) == 0.7 + 1.9
    assert oracles.exit_weight({-1: 1.0, 0: 5.0, 1: 2.0}, (0,)) == 3.0


def test_strong_connectivity():
    a = {-1: 1.0, 2: 1.0}
    assert oracles.strongly_connected(a, (0, 1, 2))  # 0 -> 2 -> 1 -> 0
    assert not oracles.strongly_connected(a, (0, 2))
    assert not oracles.strongly_connected(a, (0,))
    assert oracles.strongly_connected({-1: 1.0, 0: 1.0, 1: 1.0}, (0,))


def test_connectivity_length():
    assert oracles.connectivity_length({-1: 1.0, 1: 1.0}) == 1
    assert oracles.connectivity_length({-2: 1.0, 1: 1.0}) == 3  # [0,1] has no way back


def test_b7_witness_values():
    a = oracles.B7_ALPHAS
    assert oracles.exit_weight(a, oracles.B7_S4) == 1.0
    assert math.isclose(oracles.exit_weight(a, range(0, 17, 2)), 68 / 67, abs_tol=1e-12)
    assert math.isclose(oracles.exit_weight(a, (0, 5, 10, 12, 14, 16)), 70 / 67, abs_tol=1e-12)
    assert oracles.strongly_connected(a, oracles.B7_S4)


@pytest.mark.parametrize("draw", range(4))
def test_bruteforce_matches_closed_forms(draw):
    rnd = random.Random(draw)
    for alphas, expected in oracles.closed_form_families(rnd):
        D = max(oracles.connectivity_length(alphas), 9)
        value, witness = oracles.min_exit_weight_bruteforce(alphas, D)
        assert math.isclose(value, expected, abs_tol=1e-9)
        assert oracles.strongly_connected(alphas, witness)


def test_graph_bruteforce_on_the_trap_graph():
    assert oracles.min_exit_weight_graph(TOURNIER_EDGES, 0) == (1.5, (0, 1))


def test_regime_rule():
    assert oracles.regime({-1: 1.0, 1: 1.0}, 2.0) == ("Recurrent", False)
    assert oracles.regime({-1: 1.0, 1: 2.0}, 3.0) == ("TransientRight", False)  # kappa1 = 1
    assert oracles.regime({-1: 1.0, 1: 4.0}, 5.0) == ("TransientRight", True)
    assert oracles.regime({-4: 1.0, 1: 1.0}, 0.5) == ("TransientLeft", False)


def test_nearest_neighbour_speed():
    assert math.isclose(oracles.nn_speed(1.0, 4.0), 0.5)
    assert math.isclose(oracles.nn_mean_first_passage(1.0, 4.0), 2.0)
    assert math.isclose(oracles.nn_speed(1.0, 6.0), 2 / 3)


def test_nn_speed_by_direct_simulation():
    """Independent Monte Carlo of the walk in Beta(4, 1) environments: the
    speed formula within 5 SE, plus 0.01 for the finite-horizon bias."""
    rng = np.random.default_rng(3)
    n, reps = 4000, 200
    ends = []
    for _ in range(reps):
        p = rng.beta(4.0, 1.0, size=2 * n + 1)  # P(right) at sites -n..n
        u = rng.random(n)
        x = 0
        for k in range(n):
            x += 1 if u[k] < p[x + n] else -1
        ends.append(x / n)
    ends = np.array(ends)
    se = ends.std(ddof=1) / math.sqrt(reps)
    assert abs(ends.mean() - 0.5) < 5 * se + 0.01


def test_gambler_ruin_against_constant_drift():
    W = 50
    p = 0.6
    r = (1 - p) / p
    got = oracles.gambler_ruin_escape(np.full((1, W - 1), p))[0]
    assert math.isclose(got, (1 - r) / (1 - r ** W), rel_tol=1e-12)
    assert math.isclose(oracles.gambler_ruin_escape(np.full((1, W - 1), 0.5))[0], 1 / W, rel_tol=1e-12)


def test_entry_law_of_the_drift_closure():
    assert oracles.nn_drift_closure_entry_law(1.0, 2.0, 6) == {1: 0.5, 6: 0.5}


def test_polya_paths():
    paths = oracles.paths_from(DERRW_EDGES, 0, 4)
    assert len(paths) == 16
    assert math.isclose(sum(oracles.polya_path_probability(DERRW_EDGES, q) for q in paths), 1.0)
    # 0->1 (1/3), 1->0 (1.5/2.5), 0->1 again with one earlier use (2/4)
    assert math.isclose(oracles.polya_path_probability(DERRW_EDGES, (0, 1, 0, 1)), 0.1)


def test_statistical_tests():
    assert oracles.chi_square_pvalue([25, 75], [0.25, 0.75]) == 1.0
    rng = np.random.default_rng(5)
    assert oracles.ks_beta(rng.beta(2.0, 1.0, 500), 2.0, 1.0)[1] > 1e-3
    assert oracles.ks_beta(rng.random(500), 5.0, 1.0)[1] < 1e-6
    assert oracles.kolmogorov_asymptotic_pvalue(0.0, 10) == 1.0
