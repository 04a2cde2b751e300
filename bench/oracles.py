"""Reference computations the benchmark checks rwde's outputs against.

Nothing here imports rwde: every value is recomputed from the model's
definitions (exit weights, strong connectivity, Polya urns, gambler's ruin,
the nearest-neighbour speed formula), with ``math.fsum`` and scipy where a
library already does the job.  ``oracle_tests.py`` tests these functions on
hand-checked cases.
"""
from __future__ import annotations

import math

import numpy as np

# Wide-support case B7 (L=16, R=5) and its unit-exit-weight trap S4.
B7_ALPHAS = {-16: 1 / 67, 2: 15 / 67, 5: 5 / 67}
B7_S4 = (0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16)


def alphas_text(alphas: dict) -> str:
    """The CLI weight-map syntax for `alphas`, with exact float round trip."""
    return ",".join(f"{i}:{w!r}" for i, w in sorted(alphas.items()))


# --- trap exponent -----------------------------------------------------------


def nonzero_support(alphas: dict) -> list:
    return sorted(i for i, a in alphas.items() if a > 0.0 and i != 0)


def exit_weight(alphas: dict, S) -> float:
    """Total weight of the jump edges leaving the finite set S."""
    members = set(S)
    return math.fsum(
        alphas[i] * sum(1 for z in members if z + i not in members)
        for i in nonzero_support(alphas)
    )


def _reach_bits(start_bits: int, mask: int, steps) -> int:
    reach = start_bits
    frontier = start_bits
    while frontier:
        nxt = 0
        for i in steps:
            nxt |= (frontier << i) if i > 0 else (frontier >> -i)
        frontier = nxt & mask & ~reach
        reach |= frontier
    return reach


def strongly_connected(alphas: dict, S) -> bool:
    """Is every ordered pair of S joined by a jump path inside S?  A
    singleton counts only when it carries a self-loop (alpha_0 > 0)."""
    offs = sorted(set(S))
    if not offs:
        return False
    if len(offs) == 1:
        return alphas.get(0, 0.0) > 0.0
    base = offs[0]
    mask = 0
    for z in offs:
        mask |= 1 << (z - base)
    steps = nonzero_support(alphas)
    return (
        _reach_bits(1, mask, steps) == mask
        and _reach_bits(1, mask, [-i for i in steps]) == mask
    )


def connectivity_length(alphas: dict) -> int:
    """Smallest m >= max(L, R) such that the interval [0, m-1] is strongly
    connected (a singleton interval passes)."""
    steps = nonzero_support(alphas)
    m = max(-min(steps), max(steps))
    while True:
        mask = (1 << m) - 1
        if m == 1 or all(
            _reach_bits(1 << s, mask, steps) == mask for s in range(m)
        ):
            return m
        m += 1


def min_exit_weight_bruteforce(alphas: dict, D: int) -> tuple:
    """(value, witness) minimising the exit weight over strongly connected
    subsets of [0, D] that contain 0, by enumerating all 2^D of them."""
    if D > 16:
        raise ValueError("brute force limited to D <= 16")
    best = None
    for m in range(1 << D):
        S = [0] + [z + 1 for z in range(D) if (m >> z) & 1]
        if not strongly_connected(alphas, S):
            continue
        key = (exit_weight(alphas, S), len(S), tuple(S))
        if best is None or key < best:
            best = key
    return best[0], best[2]


def min_exit_weight_graph(edges, x) -> tuple:
    """(value, witness) over strongly connected vertex sets containing x of an
    arbitrary small graph given as (tail, head, weight) triples."""
    verts = sorted({t for t, _, _ in edges} | {h for _, h, _ in edges})
    others = [v for v in verts if v != x]
    out = {}
    for t, h, w in edges:
        out.setdefault(t, []).append((h, w))
    best = None
    for m in range(1 << len(others)):
        S = {x} | {v for b, v in enumerate(others) if (m >> b) & 1}
        if not _graph_sc(out, S):
            continue
        beta = math.fsum(w for t in S for h, w in out.get(t, ()) if h not in S)
        key = (beta, len(S), tuple(sorted(S)))
        if best is None or key < best:
            best = key
    return best[0], best[2]


def _graph_sc(out: dict, S: set) -> bool:
    if len(S) == 1:
        (v,) = S
        return any(h == v for h, _ in out.get(v, ()))
    inc = {}
    for t in S:
        for h, _ in out.get(t, ()):
            inc.setdefault(h, []).append((t, 0.0))
    for nbrs in (out, inc):
        start = next(iter(S))
        seen = {start}
        stack = [start]
        while stack:
            z = stack.pop()
            for h, _ in nbrs.get(z, ()):
                if h in S and h not in seen:
                    seen.add(h)
                    stack.append(h)
        if seen != S:
            return False
    return True


def closed_form_families(rnd):
    """One draw of each kappa0 closed-form family: (alphas, kappa0)."""
    u = lambda: rnd.uniform(0.1, 3.0)  # noqa: E731
    a1, am1 = u(), u()
    yield {-1: am1, 1: a1}, a1 + am1
    w = [u() for _ in range(5)]
    yield dict(zip((-2, -1, 0, 1, 2), w)), w[0] + w[1] + w[3] + w[4]
    R = rnd.choice((2, 3))
    am1, a1, aR = u(), u(), u()
    yield {-1: am1, 1: a1, R: aR}, 2 * aR + a1 + am1
    w = [u() for _ in range(4)]
    yield dict(zip((-2, -1, 1, 2), w)), sum(w) + min(w[1] + w[2], w[0] + w[3])
    a6, a2, a3 = u(), u(), u()
    yield {-6: a6, 2: a2, 3: a3}, min(2 * a6 + 3 * a2 + a3, 3 * a6 + a2 + 4 * a3)


# --- regime -------------------------------------------------------------------


def kappa1(alphas: dict) -> float:
    return math.fsum(i * a for i, a in alphas.items())


def regime(alphas: dict, kappa0: float) -> tuple:
    """(tag, ballistic): the sign of kappa1 gives the direction, and a
    transient walk is ballistic iff min(kappa0, |kappa1|) > 1."""
    k1 = kappa1(alphas)
    scale = math.fsum(abs(i) * a for i, a in alphas.items())
    if abs(k1) <= 1e-12 * scale:
        return "Recurrent", False
    tag = "TransientRight" if k1 > 0 else "TransientLeft"
    return tag, min(kappa0, abs(k1)) > 1.0


# --- nearest-neighbour walks --------------------------------------------------


def nn_speed(a_minus: float, a_plus: float) -> float:
    """Limiting speed (1 - E rho) / (1 + E rho), E rho = a_minus / (a_plus - 1),
    of the nearest-neighbour walk; valid when E rho < 1."""
    e_rho = a_minus / (a_plus - 1.0)
    return (1.0 - e_rho) / (1.0 + e_rho)


def nn_mean_first_passage(a_minus: float, a_plus: float) -> float:
    """E T_1 = 1 / v for the ballistic nearest-neighbour walk."""
    return 1.0 / nn_speed(a_minus, a_plus)


def gambler_ruin_escape(p_right) -> np.ndarray:
    """Rows of P^1(hit W before 0) for birth-death chains on [0, W], one per
    row of `p_right` (shape (n, W - 1), up-probabilities at sites 1..W-1)."""
    p = np.atleast_2d(np.asarray(p_right, dtype=float))
    log_rho = np.log1p(-p) - np.log(p)
    log_terms = np.concatenate([np.zeros((p.shape[0], 1)), np.cumsum(log_rho, axis=1)], axis=1)
    top = log_terms.max(axis=1, keepdims=True)
    log_total = top[:, 0] + np.log(np.exp(log_terms - top).sum(axis=1))
    return np.exp(-log_total)


def nn_drift_closure_entry_law(a_minus: float, a_plus: float, M: int) -> dict:
    """Entry law w(y, 0) / sum_v w(v, 0) into 0 of the nearest-neighbour
    drift closure on [0, M]: site 1 jumps left with weight a_minus and the
    recycling edge (M, 0) carries kappa1 = a_plus - a_minus."""
    k1 = a_plus - a_minus
    total = a_minus + k1
    return {1: a_minus / total, M: k1 / total}


# --- urns and statistical tests ---------------------------------------------


def polya_path_probability(edges, path) -> float:
    """Probability that an edge-reinforced walk on the (tail, head, weight)
    graph follows `path`: each step is a Polya-urn draw at its tail."""
    weight = {(t, h): w for t, h, w in edges}
    out_total = {}
    for t, _, w in edges:
        out_total[t] = out_total.get(t, 0.0) + w
    used_e = {}
    used_v = {}
    prob = 1.0
    for t, h in zip(path, path[1:]):
        prob *= (weight[(t, h)] + used_e.get((t, h), 0)) / (out_total[t] + used_v.get(t, 0))
        used_e[(t, h)] = used_e.get((t, h), 0) + 1
        used_v[t] = used_v.get(t, 0) + 1
    return prob


def paths_from(edges, start, depth: int) -> list:
    heads = {}
    for t, h, _ in edges:
        heads.setdefault(t, []).append(h)
    paths = [(start,)]
    for _ in range(depth):
        paths = [q + (h,) for q in paths for h in sorted(heads.get(q[-1], ()))]
    return paths


def chi_square_pvalue(counts, probs) -> float:
    """Goodness-of-fit p-value of multinomial counts against probabilities."""
    from scipy.stats import chisquare

    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * counts.sum()
    return float(chisquare(counts, expected).pvalue)


def ks_beta(sample, a: float, b: float):
    """KS statistic and exact-distribution p-value of `sample` against Beta(a, b)."""
    from scipy.stats import beta, kstest

    res = kstest(np.asarray(sample, dtype=float), beta(a, b).cdf)
    return float(res.statistic), float(res.pvalue)


def kolmogorov_asymptotic_pvalue(statistic: float, n: int) -> float:
    from scipy.stats import kstwobign

    return float(kstwobign.sf(math.sqrt(n) * statistic))
