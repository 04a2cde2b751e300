import json

import jsonschema
import pytest

from rwde import cli

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
    _, out1 = _run(capsys, "analyze", "--alphas", "-1:0.3,1:0.9,2:0.25", "--seed", "5")
    _, out2 = _run(capsys, "analyze", "--alphas", "-1:0.3,1:0.9,2:0.25", "--seed", "5")
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


def test_kappa0_threads_flag(capsys):
    code, out = _run(capsys, "kappa0", "--alphas", "-6:1,2:1,3:1",
                     "--max-diameter", "12", "--threads", "2")
    assert code == 0
    assert _validated(out)["kappa0"]["witness"] == [0, 3, 6]


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
