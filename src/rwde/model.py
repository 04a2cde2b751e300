"""Validation of Dirichlet jump weights and the derived scalar parameters.

The model is a walk on the integers with jumps in [-L, R], where the
transition row at each site is an independent Dirichlet vector with
concentrations (alpha_i).  Everything downstream (trap exponents, regime
classification, simulation) is a function of these weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CapExceeded,
    EmptySide,
    EndpointZero,
    GcdViolation,
    NegativeWeight,
)

# Relative tolerance of the kappa1 = 0 decision.  Recurrence sits on a
# measure-zero boundary; symmetric rational inputs must classify exactly.
KAPPA1_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class DirichletParams:
    """Validated jump weights: maximum jumps L (left), R (right), and the
    concentration alphas[i] for offsets i in [-L, R]."""

    L: int
    R: int
    alphas: dict  # offset -> weight, zero-weight offsets may be omitted

    @property
    def support(self) -> tuple:
        """Offsets with strictly positive weight, ascending."""
        return tuple(sorted(i for i, a in self.alphas.items() if a > 0.0))


@dataclass(frozen=True)
class DerivedParams:
    """Scalar parameters derived from the weights.

    d_plus / d_minus are the offset-weighted one-sided sums, c_plus / c_minus
    the plain one-sided sums, kappa1 = d_plus - d_minus the signed drift
    exponent, and m0 the smallest interval length making every interval
    strongly connected.
    """

    d_plus: float
    d_minus: float
    c_plus: float
    c_minus: float
    kappa1: float
    m0: int

    @property
    def kappa1_is_zero(self) -> bool:
        return abs(self.kappa1) <= KAPPA1_ZERO_RTOL * (self.d_plus + self.d_minus)


def _kahan_sum(values) -> float:
    """Compensated summation; the order of `values` is the contract."""
    total = 0.0
    carry = 0.0
    for v in values:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def validate_params(L: int, R: int, alphas: dict) -> DirichletParams:
    """Check the weight map and return immutable parameters.

    Weights are Dirichlet concentrations, not probabilities; no
    normalization is applied.
    """
    for i, a in alphas.items():  # before L and R: parse_alphas takes them from weights > 0
        if not math.isfinite(a) or a < 0.0:
            raise NegativeWeight(f"weight at offset {i} is {a!r}")
    if L < 1 or R < 1:
        raise EmptySide(f"need L >= 1 and R >= 1, got L={L}, R={R}")
    for i in alphas:
        if not (-L <= i <= R):
            raise ValueError(f"offset {i} outside [-{L}, {R}]")
    if alphas.get(-L, 0.0) <= 0.0 or alphas.get(R, 0.0) <= 0.0:
        raise EndpointZero(
            f"endpoint weights must be positive: alpha[{-L}]={alphas.get(-L, 0.0)}, "
            f"alpha[{R}]={alphas.get(R, 0.0)}"
        )
    support = [i for i, a in alphas.items() if a > 0.0 and i != 0]
    g = 0
    for i in support:
        g = math.gcd(g, abs(i))
    if g != 1:
        raise GcdViolation(f"gcd of |support offsets| is {g}, must be 1")
    return DirichletParams(L=L, R=R, alphas=dict(alphas))


def derive_params(p: DirichletParams) -> DerivedParams:
    """Compute the one-sided sums, kappa1 and m0.

    Sums run in ascending offset order with compensated summation so the sign
    of kappa1 near zero is reproducible.
    """
    offsets = sorted(p.alphas)
    d_plus = _kahan_sum(i * p.alphas[i] for i in offsets if i > 0)
    d_minus = _kahan_sum(-i * p.alphas[i] for i in offsets if i < 0)
    c_plus = _kahan_sum(p.alphas[i] for i in offsets if i > 0)
    c_minus = _kahan_sum(p.alphas[i] for i in offsets if i < 0)
    return DerivedParams(
        d_plus=d_plus,
        d_minus=d_minus,
        c_plus=c_plus,
        c_minus=c_minus,
        kappa1=d_plus - d_minus,
        m0=compute_m0(p),
    )


def compute_m0(p: DirichletParams) -> int:
    """Smallest m >= max(L, R) such that on the interval [0, m-1] every
    ordered pair of distinct sites is joined by a directed path inside the
    interval.  Singleton intervals pass vacuously.

    Existence is guaranteed by the gcd condition; a safety cap of
    4*(L+R)^2 turns a violation into a loud failure instead of a hang.
    """
    support = [i for i in p.support if i != 0]
    cap = 4 * (p.L + p.R) ** 2
    m = max(p.L, p.R)
    while m <= cap:
        if _sc_bits((1 << m) - 1, support):
            return m
        m += 1
    raise CapExceeded(f"no strongly connected interval up to length {cap}")


def _sc_bits(mask: int, support) -> bool:
    """Is the offset set `mask` (bit z for offset z, bit 0 set) strongly
    connected under the jumps in `support`: does bit 0 reach every set bit,
    and every set bit reach bit 0, inside the set?  A singleton passes;
    callers apply their own self-loop rule.  The mirrored pass is written
    out, not built as a negated offset list, because the exhaustive oracle of
    the tests calls this once per subset."""
    reach = frontier = 1
    while frontier:  # forward: the sites bit 0 reaches
        nxt = 0
        for i in support:
            nxt |= (frontier << i) if i > 0 else (frontier >> -i)
        frontier = nxt & mask & ~reach
        reach |= frontier
    if reach != mask:
        return False
    reach = frontier = 1
    while frontier:  # backward: the sites that reach bit 0, every shift mirrored
        nxt = 0
        for i in support:
            nxt |= (frontier >> i) if i > 0 else (frontier << -i)
        frontier = nxt & mask & ~reach
        reach |= frontier
    return reach == mask


def reflect(p: DirichletParams) -> DirichletParams:
    """Mirror the weights: L' = R, R' = L, alpha'[i] = alpha[-i].

    kappa1 flips sign; c/d one-sided sums swap sides.
    """
    return DirichletParams(L=p.R, R=p.L, alphas={-i: a for i, a in p.alphas.items()})


def parse_alphas(text: str) -> tuple:
    """Parse the CLI weight-map syntax ``offset:weight,offset:weight,...``
    and return validated (DirichletParams, DerivedParams)."""
    alphas = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        off_s, _, w_s = part.partition(":")
        try:
            i = int(off_s)
            w = float(w_s)
        except ValueError as exc:
            raise ValueError(f"bad weight entry {part!r}") from exc
        if i in alphas:
            raise ValueError(f"duplicate offset {i}")
        alphas[i] = w
    if not alphas:
        raise ValueError("empty weight map")
    offsets = [i for i, a in alphas.items() if a > 0.0]
    L = -min(offsets) if offsets else 0
    R = max(offsets) if offsets else 0
    p = validate_params(L, R, alphas)
    return p, derive_params(p)
