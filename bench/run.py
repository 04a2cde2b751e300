"""rwde benchmark: one closed-loop client runs a workload's jobs one after
another for a fixed time, checks every output against independent oracles,
and prints its metrics as one JSON object on the last line of stdout.

    python3 bench/run.py --workload trap_analysis --seed 1 --seconds 25 --trace 0

Workloads: trap_analysis, walk_speed, verify_suites (see bench/README.md).
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced rounds on the same inputs and reports the
per-layer metrics and the tracing overhead.

Every timing is calibrated to a nominal host speed: a fixed reference
computation that calls nothing in rwde runs between jobs, and each job's
seconds are scaled by the nominal over the reference time measured around
it.  The host this was built on changed speed by up to 2x within a minute;
calibrated job times moved by a few percent.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# The run re-executes itself under these settings.  String hashing is
# randomised per process: over five processes on identical inputs the median
# trap_analysis job spread by 9% (quartile distance over median) with random
# hash seeds and by 2% with a fixed one.  One BLAS thread: the library's
# matrices are small, and a second thread only adds scheduling noise on a
# shared 2-CPU host.
PROCESS_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Time of each part of the reference on the build host at its usual (faster)
# speed.  Calibrated seconds are raw seconds * nominal / measured time of the
# parts a workload is calibrated by (workloads.Workload.ref_parts).
NOMINAL_REF_S = {"python": 0.006, "numpy": 0.0015}
# Run the reference after at least this much job time.
SEGMENT_S = 0.2
REF_WINDOW = 15
# CLI imports timed per run, spread evenly over its job time.
SETUP_REPEATS = 7


def make_reference():
    """A function returning the seconds taken by two fixed computations:
    "python", interpreter-bound work (integer, dict and branch operations
    like the search and walk loops), and "numpy", numpy/LAPACK work (Philox
    gamma draws, cumulative sums, small LU solves)."""
    import numpy as np
    import scipy.linalg

    shapes = np.array([0.5, 1.0, 2.0])
    matrix = np.eye(40) + 0.01 * np.arange(1600.0).reshape(40, 40) / 1600.0

    def reference() -> dict:
        t0 = perf_counter()
        x = 12345
        counts = {}
        acc = 0
        for _ in range(12_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            k = x & 1023
            counts[k] = counts.get(k, 0) + 1
            if x & 8:
                acc += (x >> 3) & 7
        t1 = perf_counter()
        gen = np.random.Generator(np.random.Philox(11))
        g = gen.gamma(shapes, size=(3000, 3))
        c = np.cumsum(g / g.sum(axis=1, keepdims=True), axis=1)
        for _ in range(12):
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), c[:40, 0])
        return {"python": t1 - t0, "numpy": perf_counter() - t1}

    return reference


def _import_rwde():
    if not (SRC / "rwde" / "__init__.py").is_file():
        sys.exit(f"error: rwde sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import rwde

    if Path(rwde.__file__).resolve().parent != (SRC / "rwde").resolve():
        sys.exit(f"error: imported rwde from {rwde.__file__}, not from {SRC}")


def time_setup() -> float:
    """Seconds for a fresh interpreter to import the CLI module (and with it
    the whole package), as every `rwde` command does."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import rwde.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return perf_counter() - t0


def calibration(refs, parts) -> list:
    """Factor per segment: nominal over the median reference time (summed
    over `parts`) of the ~REF_WINDOW segments around it.  Single timings
    carry white noise of 15-25% on this kind of host, while its speed drifts
    over seconds."""
    nominal = sum(NOMINAL_REF_S[p] for p in parts)
    times = [sum(t[p] for p in parts) for t in refs]
    half = REF_WINDOW // 2
    return [nominal / statistics.median(times[max(0, k - half): k + half + 2])
            for k in range(len(refs) - 1)]


@dataclass
class Record:
    job: object
    out: object           # None when the job raised
    raw_s: float
    factor: float         # calibration factor; the segment index until calibrated
    units: int = 0
    spans: tuple = None   # (busy per layer, per entry point) in traced rounds

    @property
    def seconds(self) -> float:
        return self.raw_s * self.factor


def run_jobs(workload, seed, seconds, ref, tracer=None) -> dict:
    """Execute whole rounds until `seconds` of run time have passed.  With a
    tracer each round runs twice on the same inputs, untraced then traced;
    without one, SETUP_REPEATS CLI imports are timed between jobs, and the
    run time they take is added back."""
    if tracer is None:
        time_setup()  # bytecode cache warm-up
        setup_at = [(i + 0.5) * seconds / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    else:
        setup_at = []
    setups = []  # [raw seconds, segment]
    gc.freeze()
    refs = [ref()]
    records = []
    failed = 0
    since_ref = 0.0
    job_time = 0.0
    deadline = perf_counter() + seconds
    rounds = 0
    while perf_counter() < deadline:
        jobs = workload.round(seed, rounds)
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            for job in jobs:
                if traced:
                    tracer.begin()
                t0 = perf_counter()
                try:
                    out = job.call()
                except Exception as exc:  # counted and reported, the run goes on
                    rec = Record(job, None, perf_counter() - t0, len(refs) - 1)
                    failed += 1
                    print(f"job {job.kind} failed: {exc!r}", file=sys.stderr)
                else:
                    rec = Record(job, out, perf_counter() - t0, len(refs) - 1, job.work(out))
                    if job.keep is not None:
                        rec.out = job.keep(out)
                if traced:
                    rec.spans = tracer.snapshot()
                records.append(rec)
                since_ref += rec.raw_s
                job_time += rec.raw_s
                if since_ref >= SEGMENT_S:
                    refs.append(ref())
                    since_ref = 0.0
                    if len(setups) < len(setup_at) and job_time >= setup_at[len(setups)]:
                        dt = time_setup()
                        deadline += dt
                        setups.append([dt, len(refs) - 1])
                        refs.append(ref())
            if traced:
                tracer.uninstall()
        rounds += 1
        # Stored outputs would otherwise be traversed by every full garbage
        # collection, slowing later jobs by an amount that grows with the run.
        gc.freeze()
    if setup_at and not setups:
        setups.append([time_setup(), len(refs) - 1])
    refs.append(ref())
    factors = calibration(refs, workload.ref_parts)
    for rec in records:
        rec.factor = factors[rec.factor]
    # An import is scaled by the whole reference around it.
    full = calibration(refs, tuple(NOMINAL_REF_S))
    setups = [(raw, raw * full[k]) for raw, k in setups]
    return {"records": records, "refs": refs, "rounds": rounds, "failed": failed, "setups": setups}


def _tail(values) -> tuple:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (90, 99, 99.9):
        if n * (1 - q / 100) >= 10:
            best = q
    if best is None:
        return None, None
    return best, float(sorted(values)[min(n - 1, int(n * best / 100))])


def end_to_end(res, parts) -> tuple:
    ok = [r for r in res["records"] if r.out is not None]
    cal = [r.seconds for r in ok]
    q, tail = _tail(cal)
    kinds = {}
    for rec in ok:
        k = kinds.setdefault(rec.job.kind, {"jobs": 0, "raw_s": 0.0, "calibrated_s": 0.0})
        k["jobs"] += 1
        k["raw_s"] += rec.raw_s
        k["calibrated_s"] += rec.seconds
    work = sum(r.units for r in ok)
    ref_median = statistics.median(sum(t[p] for p in parts) for t in res["refs"])
    setups = res["setups"]
    metrics = {
        "work_per_s": {"value": work / sum(cal), "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(cal), "unit": "s"},
        "setup_s": {"value": statistics.median(cal for _, cal in setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    detail = {
        "jobs": len(res["records"]),
        "rounds": res["rounds"],
        "work_units": work,
        "job_raw_s": sum(r.raw_s for r in ok),
        "job_p50_raw_s": statistics.median(r.raw_s for r in ok),
        "job_calibrated_s": sum(cal),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "setup_raw_all_s": [raw for raw, _ in setups],
        "ref_parts": parts,
        "nominal_ref_s": sum(NOMINAL_REF_S[p] for p in parts),
        "ref_median_raw_s": ref_median,
        "ref_rate_per_s": 1.0 / ref_median,
        "ref_count": len(res["refs"]),
        "tail_percentile": q,
        "job_tail_s": tail,
        "kinds": kinds,
    }
    return metrics, detail


def per_layer(res) -> tuple:
    from tracer import LAYERS, SEARCH as search

    untraced = [r for r in res["records"] if r.spans is None and r.out is not None]
    traced = [r for r in res["records"] if r.spans is not None and r.out is not None]
    n = len(traced)
    busy = {layer: 0.0 for layer in LAYERS}
    funcs = {}
    for rec in traced:
        f = rec.factor
        b, fs = rec.spans
        for layer, s in b.items():
            busy[layer] += s * f
        for key, (calls, incl, own, work, cert) in fs.items():
            acc = funcs.setdefault(key, [0, 0.0, 0.0, 0, 0])
            acc[0] += calls
            acc[1] += incl * f
            acc[2] += own * f
            acc[3] += work
            acc[4] += cert

    def stat(key, i):
        return funcs.get(key, [0, 0.0, 0.0, 0, 0])[i]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    searches = [r.spans[1][search][1] * r.factor for r in traced if search in r.spans[1]]
    line_keys = ("walk.estimate_velocity", "walk.simulate_line", "walk.estimate_mean_hitting",
                 "walk.regeneration_times", "walk.default_tail_buffer",
                 "_LineWalker.final_position", "_LineWalker.positions",
                 "_LineWalker.first_time_at_or_above")
    job_time = sum(r.seconds for r in traced)
    metrics = {
        "model.busy_s": (busy["model"] / n, "s"),
        "kappa.search_busy_s": (stat(search, 2) / n, "s"),
        "kappa.search_p50_s": (statistics.median(searches) if searches else 0.0, "s"),
        "kappa.nodes": (rate(stat(search, 3), stat(search, 0)), "count"),
        "kappa.nodes_per_s": (rate(stat(search, 3), stat(search, 2)), "1/s"),
        "kappa.certified_ratio": (rate(stat(search, 4), stat(search, 0)), "ratio"),
        "walk.line_busy_s": (sum(stat(k, 2) for k in line_keys) / n, "s"),
        "walk.endpoint_steps_per_s": (rate(stat("_LineWalker.final_position", 3),
                                           stat("_LineWalker.final_position", 1)), "1/s"),
        "walk.positions_steps_per_s": (rate(stat("_LineWalker.positions", 3),
                                            stat("_LineWalker.positions", 1)), "1/s"),
        "walk.first_passage_steps_per_s": (rate(stat("_LineWalker.first_time_at_or_above", 3),
                                                stat("_LineWalker.first_time_at_or_above", 1)), "1/s"),
        "walk.reinforced_runs_per_s": (rate(stat("walk.simulate_derrw", 0),
                                            stat("walk.simulate_derrw", 1)), "1/s"),
        "walk.reinforced_busy_s": (stat("walk.simulate_derrw", 2) / n, "s"),
        "environment.rows_per_s": (rate(stat("environment._gamma_rows", 3), busy["environment"]), "1/s"),
        "environment.redraws": (res["redraws"] / n, "count"),
        "graphs.busy_s": (busy["graphs"] / n, "s"),
        "solver.bracket_per_s": (rate(stat("solver.escape_probability_bracket", 0),
                                      stat("solver.escape_probability_bracket", 1)), "1/s"),
        "solver.hitting_per_s": (rate(stat("solver.hitting_probability", 0),
                                      stat("solver.hitting_probability", 1)), "1/s"),
        "solver.time_reverse_per_s": (rate(stat("solver.time_reverse", 0),
                                           stat("solver.time_reverse", 1)), "1/s"),
        "solver.busy_s": (busy["solver"] / n, "s"),
        "stats.busy_s": (busy["stats"] / n, "s"),
        "verify.self_s": (busy["verify"] / n, "s"),
        "trace.overhead_ratio": (sum(r.raw_s for r in traced) / sum(r.raw_s for r in untraced), "ratio"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {
        "traced_jobs": n,
        "rounds": res["rounds"],
        "layer_share_of_job_time": {layer: busy[layer] / job_time for layer in LAYERS},
        "spans": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2], "work": v[3]}
                  for k, v in sorted(funcs.items())},
    }
    return metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        os.environ.update(PROCESS_ENV)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])

    _import_rwde()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    ref = make_reference()
    ref()

    if args.trace:
        import rwde.environment
        from tracer import Tracer

        tracer = Tracer()
        workload.warmup()
        redraws = rwde.environment.resample_count()
        res = run_jobs(workload, args.seed, args.seconds, ref, tracer)
        res["redraws"] = rwde.environment.resample_count() - redraws
        metrics, detail = per_layer(res)
    else:
        workload.warmup()
        res = run_jobs(workload, args.seed, args.seconds, ref)
        metrics, detail = end_to_end(res, workload.ref_parts)

    problems = workload.check([(r.job, r.out) for r in res["records"] if r.out is not None])
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = len(res["records"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=len(problems))
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"{args.workload}-seed{args.seed}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
    print("detail: " + json.dumps({k: v for k, v in detail.items() if k != "spans"}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
