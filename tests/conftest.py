"""Shared helpers: random parameter generation, independent oracles, and the
acceptance-summary hook."""
from __future__ import annotations

import numpy as np

from rwde.model import DirichletParams, _sc_bits, validate_params

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def plain_gamma_rows(gen, a, n):
    """The plain gamma-rows sampler, the reference for the environment's
    fast one: gamma with its default scale, all-zero rows found with any()
    and redrawn, zeros clamped with a mask.  Returns the rows and the number
    of redraws."""
    g = gen.gamma(a, size=(n, a.size))
    redraws = 0
    bad = np.where(~(g > 0.0).any(axis=1))[0]
    while bad.size:
        redraws += int(bad.size)
        g[bad] = gen.gamma(a, size=(bad.size, a.size))
        bad = bad[~(g[bad] > 0.0).any(axis=1)]
    rows = g / g.sum(axis=1, keepdims=True)
    rows[rows == 0.0] = 5e-324
    return rows, redraws


def random_params(rnd, max_side: int = 3, lo: float = 0.1, hi: float = 3.0) -> DirichletParams:
    """Random valid weights with L, R <= max_side (resamples until the
    support passes validation)."""
    while True:
        L = rnd.randrange(1, max_side + 1)
        R = rnd.randrange(1, max_side + 1)
        alphas = {}
        for i in range(-L, R + 1):
            if i in (-L, R) or rnd.random() < 0.55:
                alphas[i] = lo + (hi - lo) * rnd.random()
        try:
            return validate_params(L, R, alphas)
        except Exception:
            continue
    raise AssertionError


def exhaustive_kappa0(p: DirichletParams, D: int) -> tuple:
    """Minimum exit weight over strongly connected subsets of [0, D] with
    leftmost point 0, by bit-parallel enumeration of all 2^D of them: the
    reference for the branch-and-bound search.  Returns (beta, card,
    offsets), the least key under the search's tie-break."""
    support = [i for i in p.support if i != 0]
    has_loop = p.alphas.get(0, 0.0) > 0.0
    weights = {i: p.alphas[i] for i in support}
    best = None
    for m in range(1 << D):
        mask = (m << 1) | 1
        if mask == 1:
            if not has_loop:
                continue
        elif not _sc_bits(mask, support):
            continue
        beta = 0.0
        for i in support:
            shifted = (mask >> i) if i > 0 else (mask << -i)
            beta += weights[i] * (mask & ~shifted).bit_count()
        if best is not None and beta > best[0]:
            continue
        S = tuple(z for z in range(D + 1) if (mask >> z) & 1)
        key = (beta, len(S), S)
        if best is None or key < best:
            best = key
    return best


def reach_closure_oracle(n: int, edges) -> np.ndarray:
    """Transitive closure by boolean matrix repeated squaring (the strong
    connectivity oracle for graphs of at most 64 vertices)."""
    A = np.zeros((n, n), dtype=bool)
    for t, h in edges:
        A[t, h] = True
    reach = A.copy()
    for _ in range(max(1, n.bit_length())):
        reach = reach | (reach @ reach)
    return reach


def gambler_ruin_up_probability(p_right: np.ndarray) -> np.ndarray:
    """Closed form for a birth-death chain on [0, N]: probability, from each
    z, of hitting N before 0.  p_right[z] is the up-probability at site z,
    z = 1..N-1."""
    rho = (1.0 - p_right) / p_right
    prods = np.concatenate([[1.0], np.cumprod(rho)])  # prod_{j<=k} rho_j, k=0..N-1
    csum = np.cumsum(prods)
    total = csum[-1]
    return np.concatenate([[0.0], csum / total])[: len(p_right) + 2]
