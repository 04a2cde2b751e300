"""Statistical primitives for the verification suites: regularized incomplete
beta, one-sample Kolmogorov-Smirnov, Hill tail-index estimation, and mean/SE
aggregation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadK, DomainError, EmptySample

# Suite-wide significance policy: fail below P_FAIL, warn below P_WARN.
P_FAIL = 1e-3
P_WARN = 1e-2


@dataclass(frozen=True)
class KsReport:
    statistic: float
    p_value: float
    n: int


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by continued fraction, using I_x(a,b) = 1 - I_{1-x}(b,a) to
    stay in the rapidly converging region.  Absolute error <= 1e-10."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"need a, b > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"need x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    try:
        front = math.exp(ln_front)
    except OverflowError:  # lgamma cancellation at huge a, b, not a true value
        raise DomainError(f"I_x(a, b) overflows at a={a}, b={b}, x={x}") from None
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the incomplete-beta continued fraction."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise DomainError(f"continued fraction did not converge for a={a}, b={b}, x={x}")


def beta_cdf(a: float, b: float):
    """CDF callable for the beta law, for KS testing."""
    return lambda x: regularized_incomplete_beta(a, b, min(1.0, max(0.0, x)))


def ks_test(sample, cdf) -> KsReport:
    """One-sample KS statistic against a continuous CDF with the asymptotic
    Kolmogorov-series p-value."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    if n == 0:
        raise EmptySample("KS test needs a nonempty sample")
    f = np.array([cdf(v) for v in s])
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    d = float(max(d_plus, d_minus))
    return KsReport(statistic=d, p_value=_kolmogorov_sf(math.sqrt(n) * d), n=int(n))


def _kolmogorov_sf(lam: float) -> float:
    """Q(lambda) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2); at least 20
    terms or until the term drops below 1e-12."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, 200):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if k >= 20 and abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def hill_estimator(sample, k: int) -> float:
    """Tail index from the top k order statistics: the reciprocal mean of
    log-spacings log(X_(i) / X_(k+1)).  Moments of order below the returned
    value are finite for a Pareto-type tail."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    if n == 0:
        raise EmptySample("Hill estimator needs a nonempty sample")
    if not (1 <= k < n):
        raise BadK(f"need 1 <= k < n = {n}, got k = {k}")
    if s[0] <= 0.0:
        raise DomainError("Hill estimator needs strictly positive samples")
    top = s[n - k:]
    base = s[n - k - 1]
    gamma = float(np.mean(np.log(top / base)))
    if gamma <= 0.0:
        raise DomainError("degenerate log-spacings (constant sample?)")
    return 1.0 / gamma


def default_hill_k(n: int) -> int:
    """Bias/variance compromise used by the verification suites."""
    return max(1, math.ceil(n ** 0.6))


def mean_and_se(values) -> tuple:
    """(mean, standard error of the mean); SE is 0 for a single value."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptySample("mean of an empty sample")
    if v.size == 1:
        return float(v[0]), 0.0
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))
