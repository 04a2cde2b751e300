import contextlib
import io
import json
import math
import warnings
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwde import cli, verify
from rwde.errors import UncertifiedKappa0

SCHEMA = json.loads(
    (__import__("pathlib").Path(__file__).parent.parent / "src/rwde/report.schema.json").read_text()
)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _validated(out):
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return report


def test_analyze_nearest_neighbor(capsys):
    code, out = _run(capsys, "analyze", "--alphas", "-1:1,1:2")
    assert code == 0
    rep = _validated(out)
    assert rep["kappa1"] == 1.0
    assert rep["kappa0"]["value"] == 3.0
    assert rep["kappa0"]["witness"] == [0, 1]
    assert rep["regime"] == "TransientRight"
    assert rep["ballistic"] is False
    assert rep["m0"] == 1


def test_analyze_wide_support(capsys):
    code, out = _run(capsys, "analyze", "--alphas", "-16:0.0149254,2:0.2238806,5:0.0746269")
    assert code == 0
    rep = _validated(out)
    assert abs(rep["kappa0"]["value"] - 1.0) < 1e-3
    assert rep["ballistic"] is False
    assert rep["regime"] == "TransientRight"
    assert rep["kappa0"]["certified"] is False


def test_analyze_recurrent(capsys):
    code, out = _run(capsys, "analyze", "--alphas", "-1:1,1:1")
    assert code == 0
    rep = _validated(out)
    assert rep["regime"] == "Recurrent"


def test_analyze_validation_error(capsys):
    code, out = _run(capsys, "analyze", "--alphas", "-2:1,2:1")
    assert code == 1
    rep = _validated(out)
    assert rep["error"]["code"] == "GcdViolation"


def test_analyze_deterministic_reruns(capsys):
    _, out1 = _run(capsys, "analyze", "--alphas", "-1:0.3,1:0.9,2:0.25")
    _, out2 = _run(capsys, "analyze", "--alphas", "-1:0.3,1:0.9,2:0.25")
    assert out1 == out2


def test_kappa0_two_loop_family(capsys):
    code, out = _run(capsys, "kappa0", "--alphas", "-6:1,2:1,3:1", "--max-diameter", "12")
    assert code == 0
    rep = _validated(out)
    assert rep["kappa0"]["value"] == 6.0
    assert rep["kappa0"]["witness"] == [0, 3, 6]


def test_kappa0_require_certified_exit_code(capsys):
    code, out = _run(
        capsys, "kappa0", "--alphas", "-16:0.0149254,2:0.2238806,5:0.0746269",
        "--max-diameter", "20", "--require-certified",
    )
    assert code == 3
    rep = _validated(out)
    assert rep["kappa0"]["certified"] is False


def test_simulate_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _ = _run(capsys, "simulate", "--alphas", "-1:1,1:2", "--steps", "50",
                   "--seed", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,x"
    assert len(lines) == 52
    assert lines[1] == "0,0"
    steps = [int(line.split(",")[1]) for line in lines[1:]]
    assert all(abs(b - a) == 1 for a, b in zip(steps, steps[1:]))


def test_speed_smoke_and_schema(capsys):
    code, out = _run(capsys, "speed", "--alphas", "-1:1,1:3", "--steps", "2000",
                     "--replicas", "20", "--seed", "1")
    assert code == 0
    rep = _validated(out)
    assert 0.15 < rep["v_hat"] < 0.5


def test_verify_harmonic_pass(capsys):
    code, out = _run(capsys, "verify", "harmonic", "--replicas", "120", "--seed", "3")
    assert code == 0
    rep = _validated(out)
    assert rep["passed"] is True


def test_verify_harmonic_clamps_solver_overshoot(capsys):
    # one instance of this seed solves to 1 + 1.9e-9 at three sites; unclamped,
    # the redirect appeared to lower them by more than the 1e-10 slack
    code, out = _run(capsys, "verify", "harmonic", "--seed", "536872453", "--replicas", "30")
    assert code == 0
    rep = _validated(out)
    assert rep["passed"] is True
    assert rep["evidence"]["worst_drop"] >= -rep["evidence"]["slack"]


def test_verify_beta_law_small(capsys):
    code, out = _run(capsys, "verify", "beta-law", "--alphas", "-1:1,1:2",
                     "--replicas", "300", "--window", "128", "--seed", "7")
    assert code == 0
    rep = _validated(out)
    assert rep["evidence"]["ks_p_value"] > 1e-3


def test_verify_beta_law_wide_support_passes(capsys):
    # with L = 2 the suite tested the midpoint of a bracket that stayed
    # about 0.12 wide at every window, and exited 2 with KS p = 3.7e-30
    code, out = _run(capsys, "verify", "beta-law", "--alphas=-2:1,-1:0.5,1:1,2:1", "--seed", "3")
    rep = _validated(out)
    assert code == 0, rep
    assert rep["passed"] is True
    assert rep["evidence"]["mean_bracket_width"] < rep["evidence"]["width_tolerance"]


def test_verify_beta_law_window_below_2L_is_a_json_error(capsys):
    # half of a 5-site window leaves no landing band clear of the origin for
    # L = 3: the truncation bound was inf and the suite exited 2
    rep = _run_error(capsys, "verify", "beta-law", "--alphas=-3:1,1:5", "--window", "5",
                     "--replicas", "20", "--seed", "1")
    assert "window 5 < 2L = 6" in rep["error"]["message"]


def test_verify_failure_exit_code(capsys):
    # absurdly small sample forced against the wrong law: width criterion holds
    # but KS must reject with wrong shape parameters; emulate by tournier with
    # an impossible window
    code, out = _run(capsys, "verify", "tournier", "--replicas", "400", "--seed", "1")
    rep = _validated(out)
    # with only 400 environments the Hill estimate is noisy yet usually inside;
    # accept either outcome but demand code matches `passed`
    assert code == (0 if rep["passed"] else 2)


def test_json_float_formatting():
    s = cli.dumps({"a": 1 / 3, "b": [1.0, 2], "c": None})
    assert s == '{"a":0.333333333333,"b":[1,2],"c":null}'


def test_speed_deterministic_reruns(capsys):
    args = ("speed", "--alphas", "-1:1,1:3", "--steps", "1500",
            "--replicas", "8", "--seed", "9")
    _, out1 = _run(capsys, *args)
    _, out2 = _run(capsys, *args)
    assert out1 == out2


def test_threads_flag_rejected(capsys):
    # the kappa0 search runs in one process; --threads is gone
    with pytest.raises(SystemExit) as exc:
        cli.main(["kappa0", "--alphas=-6:1,2:1,3:1", "--max-diameter", "12", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_threads_environment_variable_ignored():
    import os
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "rwde.cli", "analyze", "--alphas=-1:1,1:2"],
        capture_output=True, text=True, env={**os.environ, "RWDE_THREADS": "x"},
    )
    assert proc.returncode == 0, proc.stderr
    assert _validated(proc.stdout)["kappa0"]["witness"] == [0, 1]


def test_console_script_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "rwde.cli", "analyze", "--alphas=-1:1,1:2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    jsonschema.validate(rep, SCHEMA)
    assert rep["kappa0"]["value"] == 3.0


def _run_error(capsys, *argv):
    """Run a command that must fail validation: exit 1, one JSON error object
    on stdout, nothing on stderr."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    rep = _validated(lines[0])
    assert set(rep) == {"error"}
    assert rep["error"]["code"] == "ValueError"
    return rep


def test_speed_rejects_nonpositive_sizes(capsys):
    _run_error(capsys, "speed", "--alphas=-1:1,1:2", "--steps", "0")
    _run_error(capsys, "speed", "--alphas=-1:1,1:2", "--replicas", "0")
    _run_error(capsys, "speed", "--alphas=-1:1,1:2", "--steps", "-5", "--method", "regeneration")


def test_format_flag_rejected(capsys):
    # --format was accepted and never read; argparse now refuses it
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--alphas=-1:1,1:2", "--steps", "5", "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_simulate_rejects_negative_steps(capsys):
    _run_error(capsys, "simulate", "--alphas=-1:1,1:2", "--steps", "-1")


def test_verify_rejects_nonpositive_sizes(capsys):
    # rejected up front, not run at the default size
    _run_error(capsys, "verify", "loop-reversal", "--steps", "0")
    _run_error(capsys, "verify", "beta-law", "--replicas", "0")
    _run_error(capsys, "verify", "beta-law", "--window", "-3")
    _run_error(capsys, "verify", "derrw", "--steps", "0")


def test_verify_rejects_the_flags_its_suite_does_not_read(capsys):
    # each unread flag was ignored, and the suite ran as if it were absent
    pairs = 0
    for suite in verify.SUITES:
        for flag, value in (("--alphas", "-1:1,1:2"), ("--replicas", "20"), ("--window", "64"),
                            ("--steps", "10")):
            if flag not in verify.FLAGS[suite]:
                rep = _run_error(capsys, "verify", suite, f"{flag}={value}", "--seed", "1")
                reads = ", ".join(verify.FLAGS[suite])
                assert rep["error"]["message"] == f"verify {suite} reads only {reads}, not {flag}"
                pairs += 1
    assert pairs == 14
    for argv in (("derrw", "--alphas=-1:5,1:1", "--steps", "500"),
                 ("tournier", "--window", "9", "--replicas", "500"),
                 ("harmonic", "--steps", "7", "--alphas=-1:1,1:3", "--replicas", "20"),
                 ("beta-law", "--steps", "10", "--replicas", "40", "--window", "64")):
        _run_error(capsys, "verify", *argv)


def test_tiny_weights_get_uncertified_reports(capsys):
    # (d+ + d-)/eps overflowed as a float, and both exited 1 with "diameter
    # bound overflows", the second although its diameter was given
    with pytest.warns(UncertifiedKappa0):
        code, out = _run(capsys, "analyze", "--alphas=-1:1e-320,1:1")
    assert code == 0 and _validated(out)["kappa0"]["diameter_searched"] == 24
    code, out = _run(capsys, "kappa0", "--alphas=-1:1e-320,1:1", "--max-diameter", "5")
    k0 = _validated(out)["kappa0"]
    assert code == 0 and (k0["value"], k0["witness"], k0["certified"]) == (1, [0, 1], False)
    assert k0["certified_bound"] == math.ceil((1 + Fraction(1e-320)) / Fraction(1e-320)) - 1


def test_overflowing_one_sided_sums_are_one_json_error(capsys):
    # speed warned "kappa1 = 0 (recurrent)" and exited 0 on d+ = inf, beta-law
    # overflowed in numpy and blamed kappa1, and analyze reported
    # (d+ + d-)/eps = nan/1.0; simulate walked the first map and exited 0
    for argv, sums in (
        (("speed", "--alphas=-1:1,2:1e308", "--steps", "10", "--replicas", "1"), "inf, d- = 1.0"),
        (("verify", "beta-law", "--alphas=-1:1,2:1e308", "--replicas", "3", "--window", "16"),
         "inf, d- = 1.0"),
        (("simulate", "--alphas=-1:1,2:1e308", "--steps", "5"), "inf, d- = 1.0"),
        (("analyze", "--alphas=-2:1e308,-1:1e308,1:1"), "1.0, d- = nan"),
        (("analyze", "--alphas=-1:1e308,1:1e308"), "1e+308, d- = 1e+308"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = _run_error(capsys, *argv)
        assert caught == []
        assert rep["error"]["message"].startswith(f"one-sided sums overflow: d+ = {sums}, "), argv


def test_verify_reversal_small_weights_passes(capsys):
    # an LU stationary solve gave components of about -1e-13 on closures of
    # the first weights, and reversed entries underflowed to 0.0 at the second
    for alphas, replicas in (("-1:0.05,1:0.1", "50"), ("-1:0.01,1:0.02", "200")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["verify", "reversal", f"--alphas={alphas}",
                             "--replicas", replicas, "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.err, caught) == (0, "", []), alphas
        assert _validated(captured.out)["passed"] is True


def test_verify_reversal_small_weights_is_a_json_error(capsys):
    # at these weights the stationary vector itself underflows in the
    # elimination: one JSON error, no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["verify", "reversal", "--alphas=-1:0.002,1:0.004",
                         "--replicas", "50", "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err, caught) == (1, "", [])
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert _validated(lines[0])["error"]["code"] == "SingularSystem"


def test_verify_small_replica_counts_are_json_errors(capsys):
    # tournier cross-checked environments 0-2 and raised IndexError with
    # fewer; reversal's moment test of one draw divided by a NaN variance,
    # warned, and reported a pass
    cases = (("tournier", "1", "BadK"), ("tournier", "2", "BadK"), ("reversal", "1", "ValueError"))
    for suite, replicas, error in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["verify", suite, "--replicas", replicas, "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.err, caught) == (1, "", []), (suite, replicas)
        assert _validated(captured.out)["error"]["code"] == error, (suite, replicas)
    code, out = _run(capsys, "verify", "tournier", "--replicas", "3", "--seed", "1")
    rep = _validated(out)
    assert rep["evidence"]["environments"] == 3
    assert code == (0 if rep["passed"] else 2)


def test_regeneration_without_room_for_two_regenerations_is_a_json_error(capsys):
    # the tail buffer of -1100:1,1:1 is 11,010: no regeneration time can be
    # declared in 2,000 steps, and v_hat used to be NaN with exit 0
    rep = _run_error(capsys, "speed", "--alphas=-1100:1,1:1", "--steps", "2000",
                     "--method", "regeneration")
    assert "tail buffer 11010" in rep["error"]["message"]
    # -1:1,1:2 has buffer 20: 21 steps leave one candidate time, 22 two
    _run_error(capsys, "speed", "--alphas=-1:1,1:2", "--steps", "21", "--method", "regeneration")
    code, out = _run(capsys, "speed", "--alphas=-1:1,1:2", "--steps", "22", "--method", "regeneration")
    assert code == 0 and _validated(out)["steps"] == 22


def test_strategy_and_seed_flags_rejected(capsys):
    # one search path (the exhaustive oracle lives in the tests), and the
    # search draws nothing: both flags were accepted by analyze and kappa0
    for command in ("analyze", "kappa0"):
        for flag, value in (("--strategy", "exhaustive"), ("--seed", "5")):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--alphas=-1:1,1:2", flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_kappa0_deep_search_is_certified(capsys):
    # the search used to overflow Python's stack with a RecursionError, then
    # refused diameters above 900 with a JSON error
    code, out = _run(capsys, "kappa0", "--alphas=-2:1,0:1,1:1", "--max-diameter", "5000",
                     "--require-certified")
    assert code == 0
    rep = _validated(out)
    assert rep["kappa0"]["value"] == 2.0 and rep["kappa0"]["certified"] is True


def test_unwritable_out_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code = cli.main(["analyze", "--alphas=-1:1,1:2", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert _validated(lines[0])["error"]["code"] == "OSError"
    assert not path.exists()


def test_verify_loop_reversal_certain_neighbour_passes(capsys):
    # the in-edge from 6 carries the whole expected share, so its standard
    # error is 0; this divided by zero and exited 1 with a traceback
    code = cli.main(["verify", "loop-reversal", "--alphas=-1:1e-300,1:1", "--steps", "200"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rep = _validated(captured.out)
    assert rep["passed"] is True
    assert {r["from"]: r["z"] for r in rep["evidence"]["per_neighbor"]}[6] == 0


def test_verify_loop_reversal_subnormal_share_passes(capsys):
    # the in-edge from 1 has the expected share 4.9e-324; squaring before the
    # square root made its standard error 0, so the observed 0 scored z = inf
    code = cli.main(["verify", "loop-reversal", "--alphas=-1:5e-324,1:1", "--steps", "50"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rep = _validated(captured.out)
    z = {r["from"]: r["z"] for r in rep["evidence"]["per_neighbor"]}
    assert rep["passed"] is True and 0.0 < z[1] < 1e-150


def test_verify_loop_reversal_without_returns_fails_cleanly(capsys):
    # the single run never returns to 0: no frequency to score, no division
    code = cli.main(["verify", "loop-reversal", "--alphas=-1:1e-300,1:2e-300",
                     "--steps", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    rep = _validated(captured.out)
    assert rep["passed"] is False
    assert rep["evidence"]["completed"] == 0 and rep["evidence"]["per_neighbor"] == []


_WEIGHTS = st.sampled_from(["1", "1", "2", "0.5", "0.05", "3", "1e-300", "5e-324", "1e300",
                            "0", "nan", "x"])
_MALFORMED = st.sampled_from(["", ",", "1", ":1", "1:2:3", "-1:1,,1:2", "-1:1,-1:2", "a:b", "2:1"])


@st.composite
def _alphas(draw):
    """A weight map on offsets in [-4, 4], one or more on each side, with
    plain, tiny, huge, zero, NaN and malformed weights; now and then garbage."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_MALFORMED)
    offsets = {draw(st.integers(-4, -1)), draw(st.integers(1, 4)),
               *draw(st.lists(st.integers(-4, 4), max_size=2))}
    return ",".join(f"{i}:{draw(_WEIGHTS)}" for i in sorted(offsets))


@st.composite
def _argv(draw):
    """An argv of one of the five commands at small sizes (steps <= 2,000,
    replicas <= 200, window <= 64, max-diameter <= 12; now and then -1 or 0),
    a verify argv with only the flags its suite reads, and now and then a
    flag that argparse refuses."""
    def size(hi):
        return str(draw(st.sampled_from([-1, 0]) if draw(st.integers(0, 9)) == 0
                        else st.integers(1, hi)))

    command = draw(st.sampled_from(["analyze", "kappa0", "simulate", "speed", "verify"]))
    argv = [command] + ([draw(st.sampled_from(verify.SUITES))] if command == "verify" else [])
    if command != "verify" or ("--alphas" in verify.FLAGS[argv[1]] and draw(st.booleans())):
        argv.append(f"--alphas={draw(_alphas())}")
    if command not in ("analyze", "kappa0") and draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 20)))]
    if command in ("analyze", "kappa0"):
        argv += ["--max-diameter", size(12)]
        argv += ["--require-certified"] if draw(st.booleans()) else []
    elif command == "simulate":
        argv += ["--steps", size(2000)]
    elif command == "speed":
        argv += ["--steps", size(2000), "--replicas", size(200),
                 "--method", draw(st.sampled_from(["endpoint", "regeneration"]))]
    else:  # every size the suite reads, so that no suite runs at its default
        for flag, hi in (("--replicas", 200), ("--window", 64), ("--steps", 200)):
            if flag in verify.FLAGS[argv[1]]:
                argv += [flag, size(hi)]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "--steps=x", "--method=fast", "--format=csv"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["simulate", "--alphas=-1:1e-300,3:1e-300", "--steps", "10"])  # redrew forever
@example(["verify", "beta-law", "--alphas=-1:1e300,1:1,3:1e300", "--replicas", "1",
          "--window", "26"])  # OverflowError in the beta CDF
@example(["verify", "loop-reversal", "--alphas=-1:1e-300,1:1", "--steps", "200"])
@example(["verify", "loop-reversal", "--alphas=-1:1e-300,1:2e-300", "--steps", "1", "--seed", "1"])
@example(["speed", "--alphas=-1:1,2:1e308", "--steps", "10", "--replicas", "1"])  # kappa1 = 0
@example(["verify", "beta-law", "--alphas=-1:1,2:1e308", "--replicas", "3", "--window", "16"])
@example(["analyze", "--alphas=-2:1e308,-1:1e308,1:1"])  # nan in the diameter bound
@example(["analyze", "--alphas=-1:1,1:2.0000000000000004"])  # bound one short
@example(["kappa0", "--alphas=-1:1e-320,1:1", "--max-diameter", "5"])  # the bound overflowed
def test_every_argv_gets_one_report_and_an_exit_code(argv):
    # an exception escaping main is the traceback a user would see
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refused the argv
            assert (exc.code, out.getvalue()) == (2, "")
            assert err.getvalue().startswith("usage: rwde")
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if argv[0] == "simulate" and code == 0:
        lines = out.splitlines()
        assert lines[0] == "n,x" and len(lines) == int(argv[argv.index("--steps") + 1]) + 2
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        _validated(out)
