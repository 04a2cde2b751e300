"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 statistical verification
failure, 3 timeout / uncertified under --require-certified.  JSON output is
deterministic for a fixed seed and config: keys sorted, numbers at 12
significant digits.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import verify
from .environment import RngStream
from .errors import RwdeError
from .kappa import classify_regime, diameter_bound, kappa0_search
from .model import parse_alphas
from .walk import estimate_velocity, simulate_line

DEFAULT_ANALYZE_DIAMETER = 24


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_join_dash_values(argv))
    try:
        try:
            return args.func(args)
        except RwdeError as exc:
            _emit({"error": {"code": exc.code, "message": str(exc)}}, args)
        except ValueError as exc:
            _emit({"error": {"code": "ValueError", "message": str(exc)}}, args)
    except OSError as exc:
        # --out could not be written, so the error goes to stdout
        sys.stdout.write(dumps({"error": {"code": "OSError", "message": str(exc)}}) + "\n")
    return 1


def _join_dash_values(argv):
    """Fold ``--alphas -1:1,...`` into ``--alphas=...`` so weight maps that
    begin with a minus sign survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--alphas" and i + 1 < len(argv):
            out.append(f"--alphas={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _build_parser():
    parser = argparse.ArgumentParser(prog="rwde")
    sub = parser.add_subparsers(required=True)

    def common(sp, alphas_required=True, seeded=True):
        sp.add_argument("--alphas", required=alphas_required,
                        help="comma-separated offset:weight pairs, e.g. '-1:1,1:2'")
        if seeded:  # the kappa0 search draws nothing
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    for name, help_text, func in (
        ("analyze", "derived parameters, kappa0, and regime", cmd_analyze),
        ("kappa0", "trap-exponent search only", cmd_kappa0),
    ):
        sp = sub.add_parser(name, help=help_text)
        common(sp, seeded=False)
        sp.add_argument("--max-diameter", type=int, default=None)
        sp.add_argument("--require-certified", action="store_true")
        sp.set_defaults(func=func)

    sp = sub.add_parser("simulate", help="one quenched walk on the integer line (CSV)")
    common(sp)
    sp.add_argument("--steps", type=int, default=10_000)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("speed", help="limiting-velocity estimate")
    common(sp)
    sp.add_argument("--steps", type=int, default=100_000)
    sp.add_argument("--replicas", type=int, default=200)
    sp.add_argument("--method", choices=("endpoint", "regeneration"), default="endpoint")
    sp.set_defaults(func=cmd_speed)

    sp = sub.add_parser("verify", help="statistical verification suites")
    sp.add_argument("suite", choices=verify.SUITES)
    common(sp, alphas_required=False)
    sp.add_argument("--replicas", type=int, default=None)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    return parser


def _search(args) -> tuple:
    """Parse the weights and run the kappa0 search at --max-diameter, by
    default max(m0, min(certified bound, DEFAULT_ANALYZE_DIAMETER)).
    Returns (params, derived params, diameter, result)."""
    p, dp = parse_alphas(args.alphas)
    max_d = args.max_diameter
    if max_d is None:
        max_d = max(dp.m0, min(diameter_bound(p, dp), DEFAULT_ANALYZE_DIAMETER))
    return p, dp, max_d, kappa0_search(p, max_d)


def _emit_search(report: dict, args, k0) -> int:
    """Emit a search report; exit 3 if --require-certified is not met."""
    _emit(report, args)
    return 3 if args.require_certified and not k0.certified else 0


def cmd_analyze(args) -> int:
    p, dp, _, k0 = _search(args)
    regime = classify_regime(p, k0)
    report = {
        "command": "analyze",
        "L": p.L,
        "R": p.R,
        "alphas": {str(i): p.alphas[i] for i in sorted(p.alphas)},
        "d_plus": dp.d_plus,
        "d_minus": dp.d_minus,
        "c_plus": dp.c_plus,
        "c_minus": dp.c_minus,
        "kappa1": dp.kappa1,
        "m0": dp.m0,
        "kappa0": _k0_json(k0),
        "regime": regime.tag,
        "ballistic": regime.ballistic,
        "warning": regime.warning,
    }
    return _emit_search(report, args, k0)


def cmd_kappa0(args) -> int:
    p, _, max_d, k0 = _search(args)
    report = {
        "command": "kappa0",
        "alphas": {str(i): p.alphas[i] for i in sorted(p.alphas)},
        "max_diameter": max_d,
        "kappa0": _k0_json(k0),
    }
    return _emit_search(report, args, k0)


def cmd_simulate(args) -> int:
    p, _ = parse_alphas(args.alphas)
    xs = simulate_line(p, args.steps, RngStream(args.seed, (0,)))
    lines = ["n,x"]
    lines.extend(f"{n},{int(x)}" for n, x in enumerate(xs))
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_speed(args) -> int:
    p, _ = parse_alphas(args.alphas)
    est = estimate_velocity(p, steps=args.steps, replicas=args.replicas,
                            method=args.method, seed=args.seed)
    report = {
        "command": "speed",
        "alphas": {str(i): p.alphas[i] for i in sorted(p.alphas)},
        "method": est.method,
        "steps": est.steps,
        "replicas": est.replicas,
        "used_replicas": est.used_replicas,
        "seed": args.seed,
        "v_hat": est.v_hat,
        "std_error": est.std_error,
    }
    _emit(report, args)
    return 0


def cmd_verify(args) -> int:
    p = None
    if args.alphas:
        p, _ = parse_alphas(args.alphas)
    elif args.suite in ("beta-law", "reversal", "loop-reversal"):
        p, _ = parse_alphas("-1:1,1:2")
    passed, evidence = verify.run_suite(
        args.suite, p, seed=args.seed, replicas=args.replicas,
        window=args.window, steps=args.steps,
    )
    report = {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "passed": passed,
        "evidence": evidence,
    }
    _emit(report, args)
    return 0 if passed else 2


def _k0_json(k0) -> dict:
    return {
        "value": k0.value,
        "witness": list(k0.witness.offsets),
        "certified": k0.certified,
        "diameter_searched": k0.diameter_searched,
        "certified_bound": k0.certified_bound,
        "nodes_explored": k0.nodes_explored,
        "budget_exhausted": k0.budget_exhausted,
    }


# --- deterministic JSON -------------------------------------------------------


def dumps(obj) -> str:
    """JSON with sorted keys and floats at 12 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return "null"
        return f"{obj:.12g}"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{dumps(str(k))}:{dumps(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(report: dict, args) -> None:
    _write(args, dumps(report) + "\n")


def _write(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
