import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from rwde.errors import BadK, DomainError, EmptySample
from rwde.stats import (
    default_hill_k,
    hill_estimator,
    ks_test,
    mean_and_se,
    regularized_incomplete_beta,
)


def test_beta_cdf_uniform_case():
    for x in (0.0, 0.1, 0.5, 0.77, 1.0):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


def test_beta_cdf_endpoints_and_square():
    assert regularized_incomplete_beta(3.0, 2.0, 1.0) == 1.0
    assert regularized_incomplete_beta(3.0, 2.0, 0.0) == 0.0
    # I_x(2, 1) is the CDF of max of two uniforms: x^2
    assert regularized_incomplete_beta(2.0, 1.0, 0.5) == pytest.approx(0.25, abs=1e-12)


def test_beta_cdf_against_scipy():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = float(rng.uniform(0.05, 20.0))
        b = float(rng.uniform(0.05, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-10
        )


def test_beta_cdf_monotone_and_symmetric():
    a, b = 1.7, 0.4
    xs = np.linspace(0, 1, 101)
    vals = [regularized_incomplete_beta(a, b, x) for x in xs]
    assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))
    for x in xs:
        s = regularized_incomplete_beta(a, b, x) + regularized_incomplete_beta(b, a, 1 - x)
        assert s == pytest.approx(1.0, abs=1e-10)


def test_beta_cdf_domain_errors():
    with pytest.raises(DomainError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)
    # the lgamma terms cancel to garbage here, and math.exp of it raised
    # OverflowError (a traceback under rwde verify beta-law)
    with pytest.raises(DomainError, match="overflows"):
        regularized_incomplete_beta(2e300, 1e300, 0.6666667261808054)


def test_ks_single_point():
    rep = ks_test([0.5], lambda x: x)
    assert rep.statistic == pytest.approx(0.5)
    assert rep.n == 1


def test_ks_exact_quantiles():
    n = 100
    sample = (np.arange(1, n + 1) - 0.5) / n
    rep = ks_test(sample, lambda x: x)
    assert rep.statistic == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_probability_integral_transform_invariance():
    rng = np.random.default_rng(5)
    sample = rng.beta(2.0, 3.0, size=500)
    cdf = lambda x: scipy.special.betainc(2.0, 3.0, min(1.0, max(0.0, x)))
    direct = ks_test(sample, cdf)
    transformed = ks_test([cdf(v) for v in sample], lambda x: x)
    assert abs(direct.statistic - transformed.statistic) <= 1e-12


def test_ks_p_value_against_scipy_asymptotic():
    rng = np.random.default_rng(9)
    sample = rng.uniform(size=5000)
    rep = ks_test(sample, lambda x: x)
    ref = scipy.stats.kstwobign.sf(math.sqrt(rep.n) * rep.statistic)
    assert rep.p_value == pytest.approx(float(ref), abs=1e-9)


def test_ks_uniform_self_consistency():
    # p > 0.001 in at least 99% of seeded reruns
    fails = 0
    reruns = 200
    for k in range(reruns):
        sample = np.random.default_rng(1000 + k).uniform(size=10_000)
        rep = ks_test(sample, lambda x: x)
        fails += rep.p_value <= 1e-3
    assert fails <= 2


def test_ks_empty_sample():
    with pytest.raises(EmptySample):
        ks_test([], lambda x: x)


def test_hill_on_exact_pareto_quantiles():
    alpha = 2.0
    n = 10_000
    u = (np.arange(1, n + 1) - 0.5) / n
    sample = (1.0 - u) ** (-1.0 / alpha)  # exact Pareto(2) quantiles
    k = n // 10
    assert hill_estimator(sample, k) == pytest.approx(alpha, abs=0.2)


def test_hill_scale_invariance():
    rng = np.random.default_rng(3)
    sample = rng.pareto(1.5, size=2000) + 1.0
    k = 200
    a = hill_estimator(sample, k)
    b = hill_estimator(37.5 * sample, k)
    assert a == pytest.approx(b, rel=1e-12)


def test_hill_light_tail_grows_with_k():
    # exponential tails have no Pareto index: the estimate drifts upward as
    # k shrinks toward the extreme order statistics (reported, not asserted
    # beyond basic sanity)
    rng = np.random.default_rng(8)
    sample = rng.exponential(size=20_000)
    small_k = hill_estimator(sample, 50)
    large_k = hill_estimator(sample, 5000)
    assert small_k > 0 and large_k > 0
    print(f"hill on exponential tail: k=50 -> {small_k:.2f}, k=5000 -> {large_k:.2f}")


def test_hill_bad_k_and_domain():
    with pytest.raises(BadK):
        hill_estimator([1.0, 2.0], 2)
    with pytest.raises(BadK):
        hill_estimator([1.0, 2.0], 0)
    with pytest.raises(DomainError):
        hill_estimator([-1.0, 2.0, 3.0], 1)
    assert default_hill_k(100_000) == math.ceil(100_000 ** 0.6)


def test_mean_and_se():
    m, se = mean_and_se([2.0, 4.0, 6.0])
    assert m == pytest.approx(4.0)
    assert se == pytest.approx(2.0 / math.sqrt(3))
    assert mean_and_se([5.0]) == (5.0, 0.0)
    with pytest.raises(EmptySample):
        mean_and_se([])
