"""The benchmark's three workloads: seeded inputs, the jobs that call rwde's
public functions, and the checks of every output against ``oracles``.

A workload is a sequence of rounds.  Round r of seed s is a fixed list of
jobs whose inputs depend only on (s, r); a run executes whole rounds until its
time is up, so every run attempts the same mix of operations.
"""
from __future__ import annotations

import bisect
import itertools
import math
import random
import statistics
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import oracles
import rwde
from rwde import verify
from rwde.environment import sample_environments
from rwde.errors import UncertifiedKappa0

warnings.simplefilter("ignore", UncertifiedKappa0)

# The CLI's default search diameter for `analyze` is max(m0, min(bound, 24)).
ANALYZE_DIAMETER_CAP = 24
B7_DIAMETER = 40

# Statistical checks pool a whole run's jobs and fail below this p-value (or
# beyond this many standard errors), so a false alarm is negligible.
POOLED_P_MIN = 1e-6
POOLED_Z_MAX = 6.0


@dataclass
class Job:
    kind: str
    call: object          # zero-argument callable into rwde
    work: object          # output -> units of work done
    meta: dict = field(default_factory=dict)
    keep: object = None   # output -> the part the checks need, so stored
                          # outputs do not grow the process with run length


def _job_seed(seed: int, r: int, slot: int) -> int:
    """Distinct, reproducible stream seed per (run seed, round, job slot)."""
    return ((seed & 0xFFFFFFFF) << 28) | ((r & 0xFFFFF) << 8) | slot


# --- trap_analysis -------------------------------------------------------------

TRAP_RANDOM_PER_ROUND = 100


def _support_panel() -> tuple:
    """Every support with L, R <= 4 and gcd 1, with its probability when L
    and R are uniform and each interior offset (0 included) is present with
    probability 0.55, conditioned on the gcd rule.  Returns (supports,
    cumulative probabilities)."""
    supports, probs = [], []
    for L in range(1, 5):
        for R in range(1, 5):
            inner = range(-L + 1, R)
            for mask in range(1 << len(inner)):
                offs = [-L] + [i for b, i in enumerate(inner) if (mask >> b) & 1] + [R]
                g = 0
                for i in offs:
                    g = math.gcd(g, abs(i))
                if g == 1:
                    k = len(offs) - 2
                    supports.append(tuple(offs))
                    probs.append(0.55 ** k * 0.45 ** (len(inner) - k))
    total = math.fsum(probs)
    return supports, list(itertools.accumulate(p / total for p in probs))


SUPPORTS, SUPPORT_CDF = _support_panel()


def _random_supports(rnd, n: int) -> list:
    """n supports by systematic sampling from the support law: one uniform
    start, then evenly spaced points of the cumulative distribution.  Every
    round then holds nearly the same mix of supports, so the heavy-tailed
    search cost varies far less between rounds than with independent draws."""
    u = rnd.random()
    return [SUPPORTS[min(bisect.bisect(SUPPORT_CDF, (u + i) / n), len(SUPPORTS) - 1)]
            for i in range(n)]


def _random_alphas(rnd, support) -> dict:
    return {i: rnd.uniform(0.1, 3.0) for i in support}


def _analyze(text: str, diameter=None):
    """What `rwde analyze` computes: parse, search at the CLI default
    diameter (or the one given), classify."""
    p, dp = rwde.parse_alphas(text)
    D = diameter or max(dp.m0, min(rwde.diameter_bound(p, dp), ANALYZE_DIAMETER_CAP))
    k0 = rwde.kappa0_search(p, D, threads=1)
    return dp, D, k0, rwde.classify_regime(p, k0)


def _analysis_summary(out) -> tuple:
    """(m0, D, kappa0, witness, witness exit weight, regime tag, ballistic,
    kappa1) of an analysis."""
    dp, D, k0, regime = out
    return (dp.m0, D, k0.value, k0.witness.offsets, k0.witness.beta,
            regime.tag, regime.ballistic, regime.kappa1)


def trap_round(seed: int, r: int) -> list:
    rnd = random.Random(f"trap/{seed}/{r}")
    cases = [("random", _random_alphas(rnd, s), None, None)
             for s in _random_supports(rnd, TRAP_RANDOM_PER_ROUND)]
    cases += [("closed_form", a, expected, None) for a, expected in oracles.closed_form_families(rnd)]
    cases.append(("closed_form", {-6: 1.0, 2: 1.0, 3: 1.0}, 6.0, None))
    cases.append(("b7", oracles.B7_ALPHAS, 1.0, B7_DIAMETER))
    return [
        Job(kind, lambda t=oracles.alphas_text(a), d=d: _analyze(t, d), lambda out: 1,
            {"alphas": a, "expected": expected}, _analysis_summary)
        for kind, a, expected, d in cases
    ]


def trap_warmup() -> None:
    rnd = random.Random("trap/warmup")
    for s in _random_supports(rnd, 20):
        _analyze(oracles.alphas_text(_random_alphas(rnd, s)))


# Cases with a search diameter up to this are re-solved by brute force; at
# most TRAP_BRUTE_MAX of them per run keeps the check under a second.
TRAP_BRUTE_D = 10
TRAP_BRUTE_MAX = 40


def trap_check(results) -> list:
    problems = []
    brute = 0
    for job, (m0_found, D, value, S, beta, regime_tag, ballistic, kappa1) in results:
        a = job.meta["alphas"]
        tag = oracles.alphas_text(a)
        if not (S[0] == 0 and S[-1] <= D and oracles.strongly_connected(a, S)):
            problems.append(f"{tag}: witness {S} is not a strongly connected subset of [0, {D}]")
        if max(abs(oracles.exit_weight(a, S) - value), abs(beta - value)) > 1e-9:
            problems.append(f"{tag}: value {value!r} != witness exit weight")
        floor = math.fsum(a[i] for i in oracles.nonzero_support(a))
        if value < floor - 1e-9:
            problems.append(f"{tag}: value {value!r} below sum of weights {floor!r}")
        m0 = oracles.connectivity_length(a)
        if m0_found != m0:
            problems.append(f"{tag}: m0 {m0_found} != {m0}")
        if m0 >= 2 and value > oracles.exit_weight(a, range(m0)) + 1e-9:
            problems.append(f"{tag}: value {value!r} above exit weight of [0, m0-1]")
        if job.meta["expected"] is not None and abs(value - job.meta["expected"]) > 1e-9:
            problems.append(f"{tag}: value {value!r} != closed form {job.meta['expected']!r}")
        if a is oracles.B7_ALPHAS and S != oracles.B7_S4:
            problems.append(f"B7 witness {S} != S4")
        if D <= TRAP_BRUTE_D and brute < TRAP_BRUTE_MAX:
            brute += 1
            ref, _ = oracles.min_exit_weight_bruteforce(a, D)
            if abs(ref - value) > 1e-9:
                problems.append(f"{tag}: value {value!r} != brute force {ref!r} at D={D}")
        k1 = oracles.kappa1(a)
        if abs(kappa1 - k1) > 1e-12 * max(1.0, abs(k1)):
            problems.append(f"{tag}: kappa1 {kappa1!r} != fsum {k1!r}")
        if (regime_tag, ballistic) != oracles.regime(a, value):
            problems.append(f"{tag}: regime {regime_tag}/{ballistic} != {oracles.regime(a, value)}")
    if oracles.exit_weight(oracles.B7_ALPHAS, oracles.B7_S4) != 1.0:
        problems.append("B7: S4 exit weight is not exactly 1")
    return problems


# --- walk_speed ------------------------------------------------------------

WALK_REPLICAS = 4
HIT_REPLICAS = 50
HIT_HORIZON = 20_000
NN_ALPHAS = {-1: 1.0, 1: 4.0}  # kappa1 = 3: v = 1/2, E T_1 = 2, finite variance
# (weights, steps per walk).  The step counts make one walk take about the
# same time on each support, so the walks form one job class that holds the
# median job; the nearest-neighbour kernel is the fastest per step.
WALK_SUPPORTS = {
    "nn": (NN_ALPHAS, 50_000),
    "general": ({-1: 1.0, 1: 1.0, 4: 0.5}, 10_000),
    "b7": (oracles.B7_ALPHAS, 20_000),
}


def _hit_steps(est) -> int:
    """Steps simulated by estimate_mean_hitting: hits plus censored horizons."""
    censored = round(est.censored_fraction * est.replicas)
    hits = est.replicas - censored
    done = round(est.mean * hits) if hits else 0
    return done + censored * est.horizon


def _line_summary(xs) -> tuple:
    """(length, first and last position, set of increments) of a path."""
    xs = np.asarray(xs)
    return xs.size, int(xs[0]), int(xs[-1]), set(np.unique(np.diff(xs)).tolist())


def walk_round(seed: int, r: int) -> list:
    jobs = []
    for slot, (name, (a, steps)) in enumerate(WALK_SUPPORTS.items()):
        p, _ = rwde.parse_alphas(oracles.alphas_text(a))
        s_end, s_reg, s_hit = (_job_seed(seed, r, 4 * slot + k) for k in range(3))
        meta = {"support": name, "alphas": a, "steps": steps, "endpoint_seed": s_end}
        jobs.append(Job(
            "endpoint",
            lambda p=p, n=steps, s=s_end: rwde.estimate_velocity(p, n, WALK_REPLICAS, "endpoint", s),
            lambda est: est.steps * est.replicas, meta))
        for rep in range(WALK_REPLICAS):
            jobs.append(Job(
                "line",
                lambda p=p, n=steps, st=rwde.RngStream(s_end, (rep,)): rwde.simulate_line(p, n, st),
                lambda xs: len(xs) - 1, dict(meta, replica=rep), _line_summary))
        jobs.append(Job(
            "regeneration",
            lambda p=p, n=steps, s=s_reg: rwde.estimate_velocity(p, n, WALK_REPLICAS, "regeneration", s),
            lambda est: est.steps * est.replicas, meta))
        jobs.append(Job(
            "hitting",
            lambda p=p, s=s_hit: rwde.estimate_mean_hitting(p, HIT_HORIZON, HIT_REPLICAS, s),
            _hit_steps, meta))
    return jobs


def walk_warmup() -> None:
    for a, _ in WALK_SUPPORTS.values():
        p, _ = rwde.parse_alphas(oracles.alphas_text(a))
        rwde.estimate_velocity(p, 2000, 1, "endpoint", 1)
        rwde.estimate_velocity(p, 2000, 1, "regeneration", 1)
        rwde.estimate_mean_hitting(p, 2000, 2, 1)


def _pooled(estimates, mean_of, se_of, n_of) -> tuple:
    """Pooled mean and standard error of per-job means with per-job SEs."""
    n = np.array([n_of(e) for e in estimates], dtype=float)
    m = np.array([mean_of(e) for e in estimates])
    se = np.array([se_of(e) for e in estimates])
    keep = n > 0
    n, m, se = n[keep], m[keep], se[keep]
    total = n.sum()
    return float((m * n).sum() / total), float(math.sqrt(((se * n) ** 2).sum()) / total)


def walk_check(results) -> list:
    problems = []
    lines = {}
    by_kind = {}
    for job, out in results:
        meta = job.meta
        by_kind.setdefault((job.kind, meta["support"]), []).append(out)
        if job.kind == "line":
            size, first, last, steps = out
            if size != meta["steps"] + 1 or first != 0 or not steps <= set(meta["alphas"]):
                problems.append(f"{meta['support']}: simulate_line path is malformed")
            lines.setdefault(meta["endpoint_seed"], []).append(last)
        elif job.kind == "hitting":
            if not (0.0 <= out.censored_fraction <= 1.0) or (out.censored_fraction < 1 and out.mean < 1):
                problems.append(f"{meta['support']}: mean hitting estimate out of range: {out}")
        elif out.used_replicas > out.replicas:
            problems.append(f"{meta['support']}: {out.used_replicas} used of {out.replicas}")
    for job, out in results:
        if job.kind == "endpoint":
            ends = lines.get(job.meta["endpoint_seed"], [])
            total = round(out.v_hat * out.steps * out.replicas)
            if len(ends) == out.replicas and total != sum(ends):
                problems.append(f"{job.meta['support']}: endpoint sum {total} != "
                                f"simulate_line endpoints {sum(ends)}")

    v = oracles.nn_speed(NN_ALPHAS[-1], NN_ALPHAS[1])
    et = oracles.nn_mean_first_passage(NN_ALPHAS[-1], NN_ALPHAS[1])
    checks = [
        ("endpoint", v, lambda e: e.v_hat, lambda e: e.std_error, lambda e: e.used_replicas),
        ("regeneration", v, lambda e: e.v_hat, lambda e: e.std_error, lambda e: e.used_replicas),
        ("hitting", et, lambda e: e.mean, lambda e: e.std_error,
         lambda e: round(e.replicas * (1.0 - e.censored_fraction))),
    ]
    for kind, expected, mean_of, se_of, n_of in checks:
        ests = by_kind.get((kind, "nn"), [])
        if not ests:
            continue
        mean, se = _pooled(ests, mean_of, se_of, n_of)
        if abs(mean - expected) > POOLED_Z_MAX * se:
            problems.append(f"nn {kind}: pooled {mean:.5f} +- {se:.5f} vs exact {expected:.5f}")
    return problems


# --- verify_suites -----------------------------------------------------------

VERIFY_ALPHAS = {-1: 1.0, 1: 2.0}  # the CLI default for the suites that take weights
# One round of suites.  The harmonic suite is left out: its verdict fails on
# some seeds because solver.hitting_probability can return values above 1
# (see CHANGES.md).  derrw runs three times and tournier twice so that the
# median job falls inside the derrw class instead of on the gap between two
# classes.
SUITE_JOBS = (
    ("beta-law", {"replicas": 40, "window": 512}),
    ("derrw", {"steps": 2000}),
    ("derrw", {"steps": 2000}),
    ("derrw", {"steps": 2000}),
    ("reversal", {"replicas": 200}),
    ("loop-reversal", {"steps": 3000}),
    ("tournier", {"replicas": 20_000}),
    ("tournier", {"replicas": 20_000}),
)
CLOSURE_M = 6  # the drift-closure size the reversal suites use


def verify_round(seed: int, r: int) -> list:
    p, _ = rwde.parse_alphas(oracles.alphas_text(VERIFY_ALPHAS))
    jobs = []
    for slot, (name, sizes) in enumerate(SUITE_JOBS):
        s = _job_seed(seed, r, slot)
        jobs.append(Job(
            name,
            lambda n=name, s=s, kw=sizes: verify.run_suite(n, p, seed=s, **kw),
            lambda out: 1, {"seed": s, "sizes": sizes}))
    return jobs


def verify_warmup() -> None:
    p, _ = rwde.parse_alphas(oracles.alphas_text(VERIFY_ALPHAS))
    small = {"beta-law": {"replicas": 2, "window": 64}, "derrw": {"steps": 50},
             "reversal": {"replicas": 5}, "loop-reversal": {"steps": 50},
             "tournier": {"replicas": 500}}
    for name, kw in small.items():
        verify.run_suite(name, p, seed=1, **kw)


def _beta_law_midpoints(seed: int, replicas: int, window: int) -> np.ndarray:
    """Escape probabilities of the suite's environments by gambler's ruin."""
    p, _ = rwde.parse_alphas(oracles.alphas_text(VERIFY_ALPHAS))
    g = rwde.build_halfline(p, window)
    envs = sample_environments(g, rwde.RngStream(seed), replicas)
    up = np.array([[env.row(z)[1][1] for z in range(1, window)] for env in envs])
    return oracles.gambler_ruin_escape(up)


def verify_check(results) -> list:
    problems = []
    a_minus, a_plus = VERIFY_ALPHAS[-1], VERIFY_ALPHAS[1]
    k1 = oracles.kappa1(VERIFY_ALPHAS)
    derrw_edges = list(verify.derrw_graph().edges())
    paths = oracles.paths_from(derrw_edges, 0, 4)
    path_probs = [oracles.polya_path_probability(derrw_edges, q) for q in paths]
    entry = oracles.nn_drift_closure_entry_law(a_minus, a_plus, CLOSURE_M)
    t_value, t_witness = oracles.min_exit_weight_graph(list(verify.tournier_graph().edges()), 0)

    mids = []
    derrw_counts = np.zeros(len(paths))
    entry_counts = {y: 0 for y in entry}
    hills = []
    for job, (passed, ev) in results:
        name = job.kind
        if name == "beta-law":
            n, W = job.meta["sizes"]["replicas"], job.meta["sizes"]["window"]
            m = _beta_law_midpoints(job.meta["seed"], n, W)
            mids.append(m)
            stat, _ = oracles.ks_beta(m, k1, a_minus)
            ok = (abs(ev["kappa1"] - k1) <= 1e-12 and abs(ev["d_minus"] - a_minus) <= 1e-12
                  and ev["mean_bracket_width"] <= 1e-9
                  and abs(ev["ks_statistic"] - stat) <= 1e-8
                  and abs(ev["ks_p_value"] - oracles.kolmogorov_asymptotic_pvalue(stat, n)) <= 1e-6
                  and passed == (ev["ks_p_value"] > 1e-3 and ev["mean_bracket_width"] < ev["width_tolerance"]))
        elif name == "derrw":
            runs = ev["runs"]
            rows = {tuple(row["path"]): row for row in ev["per_path"]}
            counts = [round(rows[q]["observed"] * runs) for q in paths]
            derrw_counts += counts
            z = [abs(c / runs - pr) / math.sqrt(pr * (1 - pr) / runs) for c, pr in zip(counts, path_probs)]
            ok = (len(rows) == len(paths) and sum(counts) == runs
                  and all(abs(rows[q]["expected"] - pr) <= 1e-12 for q, pr in zip(paths, path_probs))
                  and abs(ev["worst_z"] - max(z)) <= 1e-9 and passed == (max(z) <= 4.0))
        elif name == "reversal":
            ok = (ev["max_cycle_error"] <= 1e-10
                  and passed == (ev["worst_moment_z"] <= 3.0))
        elif name == "loop-reversal":
            done = ev["completed"]
            rows = {row["from"]: row for row in ev["per_neighbor"]}
            ok = set(rows) == set(entry) and all(
                abs(rows[y]["expected"] - entry[y]) <= 1e-12 for y in entry)
            if ok:
                for y in entry:
                    entry_counts[y] += round(rows[y]["observed"] * done)
                ok = passed == (ev["worst_z"] <= 4.0 and done >= 0.999 * ev["runs"])
        else:  # tournier
            hills.append(ev["hill_estimate"])
            ok = (ev["min_exit_weight"] == t_value == 1.5 and tuple(ev["witness"]) == t_witness == (0, 1)
                  and ev["solver_cross_check_dev"] <= 1e-9
                  and passed == (ev["window"][0] <= ev["hill_estimate"] <= ev["window"][1]))
        if not ok:
            problems.append(f"{name} seed {job.meta['seed']}: evidence disagrees with oracle: {ev}")

    if mids:
        _, pv = oracles.ks_beta(np.concatenate(mids), k1, a_minus)
        if pv < POOLED_P_MIN:
            problems.append(f"beta-law: pooled midpoints reject Beta({k1}, {a_minus}), p={pv:.3g}")
    if derrw_counts.sum():
        pv = oracles.chi_square_pvalue(derrw_counts, path_probs)
        if pv < POOLED_P_MIN:
            problems.append(f"derrw: pooled path counts reject the Polya-urn law, p={pv:.3g}")
    if sum(entry_counts.values()):
        pv = oracles.chi_square_pvalue([entry_counts[y] for y in entry], list(entry.values()))
        if pv < POOLED_P_MIN:
            problems.append(f"loop-reversal: pooled entry counts reject w(y,0)/sum w, p={pv:.3g}")
    if hills and not (1.2 <= statistics.fmean(hills) <= 1.8):
        problems.append(f"tournier: mean Hill estimate {statistics.fmean(hills):.3f} outside [1.2, 1.8]")
    return problems


class Workload(NamedTuple):
    round: object      # (seed, round index) -> list of Job
    warmup: object
    check: object      # [(job, kept output)] -> list of problems
    ref_parts: tuple   # reference parts its timings are calibrated by


# trap_analysis is pure interpreter work (kappa and model take 98% of its
# time); on it the numpy part of the reference only added noise.
WORKLOADS = {
    "trap_analysis": Workload(trap_round, trap_warmup, trap_check, ("python",)),
    "walk_speed": Workload(walk_round, walk_warmup, walk_check, ("python", "numpy")),
    "verify_suites": Workload(verify_round, verify_warmup, verify_check, ("python", "numpy")),
}
