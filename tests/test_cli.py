"""End-to-end tests for the command-line front end.

Every invocation goes through cli.run so the exit-code contract is
exercised exactly as a shell would see it: 0 success, 1 config error,
2 synthesis failure, 3 a run that did not stabilize.
"""

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pendulum_ctl import cli, plants
from pendulum_ctl import simulate as simulate_module
from pendulum_ctl.linearize import load_statespace
from pendulum_ctl.metrics import SETTLE_BAND
from pendulum_ctl.simulate import SimConfig
from pendulum_ctl.synthesis import (
    LqrDesign,
    SmcDesign,
    load_design,
    save_design,
    smc_gain_bound,
)


def _read_csv_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


# ---------------------------------------------------------------------------
# argument plumbing and exit codes
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "synthesize" in capsys.readouterr().out


def test_no_subcommand_is_config_error(capsys):
    assert cli.run([]) == 1


def test_unknown_flag_is_config_error(capsys):
    assert cli.run(["simulate", "--bogus", "1"]) == 1


def test_unknown_subcommand_is_config_error(capsys):
    assert cli.run(["frobnicate"]) == 1


def test_missing_platform_reports_key(capsys):
    assert cli.run(["linearize"]) == 1
    assert "platform" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def test_synthesize_rotpen_lqr_design_file(tmp_path, capsys):
    out = tmp_path / "design.txt"
    code = cli.run(["synthesize", "--platform", "rotpen", "--lqr",
                    "--q", "5,1,1,1", "--r", "1", "--out", str(out)])
    assert code == 0
    design = load_design(out)
    assert isinstance(design, LqrDesign)
    assert abs(design.K[0, 0]) == pytest.approx(math.sqrt(5.0), abs=1e-9)
    assert design.K[0] == pytest.approx([-2.2361, 37.6126, -2.6420, 5.3269],
                                        rel=2e-4)
    # the emitted file also records the closed-loop eigenvalues
    text = out.read_text()
    assert "closed_loop_re" in text and "closed_loop_im" in text


# sha256 of the default LQR design files, closed-loop blocks included
_LQR_DESIGN_SHA256 = {
    "rotpen": "6bd4bf7cda5bf7c26ef0fd323fea7f0aacf5762fb10552a3ef7677684464c5cf",
    "nxtway": "fc812557fcd65850a7413abf4437b4148ba1c2eaf3b19a9cfe17667e66a9ca4a",
}


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_synthesize_writes_the_design_file_once(tmp_path, monkeypatch, platform):
    # the closed-loop blocks are written with the design, in one publish:
    # no file is opened to append, and one file is moved onto the path
    out, opened, renamed = tmp_path / "design.txt", [], []
    real_open, real_rename = open, os.rename

    def spy_open(file, mode="r", *args, **kwargs):
        opened.append(mode)
        return real_open(file, mode, *args, **kwargs)

    def spy_rename(src, dst):
        renamed.append(dst)
        real_rename(src, dst)

    monkeypatch.setattr("builtins.open", spy_open)
    monkeypatch.setattr(os, "rename", spy_rename)
    assert cli.run(["synthesize", "--platform", platform, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert not any("a" in mode for mode in opened) and renamed == [str(out)]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _LQR_DESIGN_SHA256[platform]


def test_synthesize_nxtway_smc_design_file(tmp_path):
    out = tmp_path / "design.txt"
    assert cli.run(["synthesize", "--platform", "nxtway", "--smc",
                    "--out", str(out)]) == 0
    design = load_design(out)
    assert isinstance(design, SmcDesign)
    assert design.k == pytest.approx(smc_gain_bound(0.004, 100.0), rel=1e-12)
    assert not design.k_exceeds_bound
    assert np.max(np.abs(design.surface_eigs)) < 1.0


def test_synthesize_rejects_bad_weight_length(tmp_path, capsys):
    out = tmp_path / "design.txt"
    assert cli.run(["synthesize", "--platform", "rotpen", "--lqr",
                    "--q", "5,1", "--r", "1", "--out", str(out)]) == 1
    assert "q" in capsys.readouterr().err.lower()
    assert not out.exists()


def test_synthesize_indefinite_q_is_synthesis_failure(tmp_path, capsys):
    out = tmp_path / "design.txt"
    assert cli.run(["synthesize", "--platform", "rotpen", "--lqr",
                    "--q=-1,1,1,1", "--r", "1", "--out", str(out)]) == 2


def _fresh_run(argv):
    # a fresh interpreter shows the stderr a shell sees, warnings included
    code = "import sys; from pendulum_ctl import cli; sys.exit(cli.run(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_synthesize_smc_at_an_overflowing_ts_is_one_error_line(tmp_path):
    # 1000 s overflows the matrix exponential, 100 s the norm of the input column
    out = tmp_path / "design.txt"
    for platform, ts in (("rotpen", "1e3"), ("nxtway", "100")):
        result = _fresh_run(["synthesize", "--platform", platform, "--smc", "--ts", ts,
                             "--out", str(out)])
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert f"Ts = {float(ts)!r}" in lines[0], lines
        assert "Warning" not in result.stderr
        assert not out.exists()


@pytest.mark.parametrize("platform, weight, code, start", [
    ("rotpen", "--q=1e300,1,1,1", 2, "synthesis failed: "),
    ("nxtway", "--q=1e200,1,1,1,1", 2, "synthesis failed: "),
    # weights whose symmetrization or inverse overflows are refused as input
    ("rotpen", "--q=1e308,1,1,1", 1,
     "error: invalid weights q/r: state weight Q overflows when symmetrized"),
    ("rotpen", "--r=1e-310", 1,
     "error: invalid weights q/r: input weight R is so small that B R^-1 B' overflows"),
    ("rotpen", "--r=1e308", 1,
     "error: invalid weights q/r: input weight R overflows when symmetrized"),
    ("nxtway", "--r=1e308,1e308", 1,
     "error: invalid weights q/r: input weight R overflows when symmetrized"),
], ids=["rotpen-1e300,1,1,1", "nxtway-1e200,1,1,1,1", "rotpen-q1e308", "rotpen-r1e-310",
        "rotpen-r1e308", "nxtway-r1e308"])
def test_synthesize_with_overflowing_weights_is_one_error_line(tmp_path, platform, weight,
                                                               code, start):
    out = tmp_path / "design.txt"
    result = _fresh_run(["synthesize", "--platform", platform, weight, "--out", str(out)])
    assert result.returncode == code
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), lines
    assert "Warning" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    (["--platform", "rotpen", "--q=-1,1,1,1"], "state weight Q must be positive semidefinite"),
    (["--platform", "nxtway", "--r", "1,0"], "input weight R must be positive definite"),
])
def test_synthesis_failures_keep_their_exit_code_and_message(tmp_path, capsys, argv, line):
    out = tmp_path / "design.txt"
    assert cli.run(["synthesize", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"synthesis failed: {line}"]
    assert not out.exists()


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_synthesize_smc_without_a_sliding_surface_is_synthesis_failure(tmp_path, capsys,
                                                                      platform):
    # at Ts = 50 s the reduced discrete Riccati equation has no finite solution
    out = tmp_path / "design.txt"
    assert cli.run(["synthesize", "--platform", platform, "--smc", "--ts", "50",
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "synthesis failed: no sliding surface at Ts = 50.0: Failed to find a finite solution."]
    assert not any(tmp_path.iterdir())


def test_synthesize_smc_where_the_surface_pencil_cannot_be_reordered(tmp_path):
    # at this period the QZ reordering of the reduced discrete Riccati pencil fails
    out = tmp_path / "design.txt"
    result = _fresh_run(["synthesize", "--platform", "rotpen", "--smc",
                         "--ts", "48.49624060150376", "--out", str(out)])
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "synthesis failed: no sliding surface at Ts = 48.49624060150376: Reordering of "
        "(A, B) failed because the transformed matrix pair (A, B) would be too far from "
        "generalized Schur form; the problem is very ill-conditioned. (A, B) may have "
        "been partially reordered."]
    assert not out.exists()


def test_the_module_form_runs_the_command_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = tmp_path / "design.txt"
    module = [sys.executable, "-m", "pendulum_ctl.cli"]
    result = subprocess.run(module + ["synthesize", "--platform", "rotpen", "--smc",
                                      "--out", str(out)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert isinstance(load_design(out), SmcDesign)
    result = subprocess.run(module, capture_output=True, text=True, env=env)
    assert result.returncode == 1
    assert "a subcommand is required" in result.stderr


def test_synthesize_controller_from_config_and_flag_override(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("platform=nxtway\ncontroller=smc\n")
    out1 = tmp_path / "a.txt"
    assert cli.run(["synthesize", "--config", str(cfg),
                    "--out", str(out1)]) == 0
    assert isinstance(load_design(out1), SmcDesign)

    out2 = tmp_path / "b.txt"
    assert cli.run(["synthesize", "--config", str(cfg), "--lqr",
                    "--out", str(out2)]) == 0
    assert isinstance(load_design(out2), LqrDesign)  # flag beats config


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_trace_and_metrics(tmp_path):
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "metrics.csv"
    code = cli.run(["simulate", "--platform", "nxtway", "--controller", "lqr",
                    "--duration", "2", "--x0", "0,0.05,0,0",
                    "--trace", str(trace), "--metrics", str(metrics)])
    assert code == 0
    header, data = _read_csv_columns(trace)
    assert header[:8] == ["t", "q1", "q2", "q1dot", "q2dot", "u_cmd",
                          "u_applied", "dist"]
    assert header[-1] == "integ"  # integral-action design
    assert data[0, 2] == 0.05

    mlines = metrics.read_text().splitlines()
    assert mlines[0].startswith("label,settle_time")
    assert mlines[1].startswith("nxtway lqr,")


def test_simulate_metrics_settle_against_the_run_reference(tmp_path):
    trace, metrics = tmp_path / "trace.csv", tmp_path / "metrics.csv"
    assert cli.run(["simulate", "--platform", "rotpen", "--duration", "5",
                    "--x0", "0,0.1,0,0", "--reference", "0,0.1,0,0",
                    "--trace", str(trace), "--metrics", str(metrics)]) == 0
    _, data = _read_csv_columns(trace)
    t, q2 = data[:, 0], data[:, 2]

    def settle(reference_q2):  # last instant outside the band; no pulse, onset 0
        outside = np.abs(q2 - reference_q2) > SETTLE_BAND
        return float(t[outside][-1]) if outside.any() else 0.0

    row = dict(zip(*[ln.split(",") for ln in metrics.read_text().splitlines()]))
    assert float(row["settle_time"]) == settle(0.1)
    assert settle(0.1) != settle(0.0)  # the reference changes the answer here


def test_simulate_env_config_with_flag_precedence(tmp_path, monkeypatch):
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "metrics.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a full run description\n"
        "platform=nxtway\n"
        "controller=lqr\n"
        "duration=2.0\n"
        "ts=0.008\n"
        "x0=0,0.05,0,0\n"
        f"trace={trace}\n"
        f"metrics={metrics}\n")
    monkeypatch.setenv("PENDULUM_CTL_CONFIG", str(cfg))

    assert cli.run(["simulate", "--duration", "1.0"]) == 0  # flag wins
    _, data = _read_csv_columns(trace)
    assert data[1, 0] == pytest.approx(0.008, abs=1e-15)  # config ts used
    assert abs(data[-1, 0] - 1.0) < 1e-9


def test_simulate_missing_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PENDULUM_CTL_CONFIG", str(tmp_path / "absent.cfg"))
    assert cli.run(["simulate", "--platform", "nxtway"]) == 1


def test_simulate_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("platform=nxtway\nthis line has no assignment\n")
    assert cli.run(["simulate", "--config", str(cfg)]) == 1
    assert "no assignment" in capsys.readouterr().err


def test_simulate_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("platform=nxtway\nwibble=3\n")
    assert cli.run(["simulate", "--config", str(cfg)]) == 1
    assert "wibble" in capsys.readouterr().err


def test_simulate_bad_value_reports_key(tmp_path, capsys):
    assert cli.run(["simulate", "--platform", "nxtway",
                    "--duration", "soon"]) == 1
    assert "duration" in capsys.readouterr().err


def test_simulate_paper_disturbance_expansion(tmp_path):
    trace = tmp_path / "trace.csv"
    code = cli.run(["simulate", "--platform", "nxtway", "--controller", "lqr",
                    "--disturbance", "paper", "--duration", "62",
                    "--trace", str(trace),
                    "--metrics", str(tmp_path / "m.csv")])
    assert code == 0
    _, data = _read_csv_columns(trace)
    t, dist = data[:, 0], data[:, 7]
    assert np.max(np.abs(dist)) == 5.0  # 0.5 * V_max for this platform
    assert np.all(dist[t < 60.0] == 0.0)
    assert np.all(dist[t >= 60.0] == 5.0)


def test_simulate_reference_gains(tmp_path):
    trace = tmp_path / "trace.csv"
    code = cli.run(["simulate", "--platform", "nxtway", "--controller", "lqr",
                    "--gains", "reference", "--duration", "0.1",
                    "--x0", "0,0.05,0,0", "--trace", str(trace),
                    "--metrics", str(tmp_path / "m.csv")])
    assert code == 0
    _, data = _read_csv_columns(trace)
    assert data[0, 5] == 69.4743 * 0.05  # u = -K x with the recorded K2


def test_simulate_design_file_and_divergence_exit(tmp_path, capsys):
    design = LqrDesign(Q=np.eye(4), R=np.eye(1), P=None,
                       K=np.array([[0.0, -1.0e4, 0.0, 0.0]]),
                       residual=float("nan"))
    dfile = tmp_path / "unstable.txt"
    save_design(design, dfile)
    trace = tmp_path / "trace.csv"
    code = cli.run(["simulate", "--platform", "rotpen", "--controller", "lqr",
                    "--design", str(dfile), "--saturation", "1e6",
                    "--duration", "5", "--x0", "0,0.01,0,0",
                    "--trace", str(trace),
                    "--metrics", str(tmp_path / "m.csv")])
    assert code == 3
    assert trace.exists()  # the truncated trace is still written
    _, data = _read_csv_columns(trace)
    assert data.shape[0] < 100


def test_simulate_exits_3_when_the_pole_falls(tmp_path, capsys):
    # the pole falls and u sits at the 6 V limit: the run stays finite and
    # runs to its end, but it has no settle time, so it did not stabilize
    trace, metrics = tmp_path / "trace.csv", tmp_path / "m.csv"
    code = cli.run(["simulate", "--platform", "rotpen", "--x0", "0,1.5,0,0",
                    "--duration", "10", "--trace", str(trace), "--metrics", str(metrics)])
    out, err = capsys.readouterr()
    assert code == 3
    assert "did not stabilize" in err and "quality: diverged" in out
    _, data = _read_csv_columns(trace)
    assert data.shape[0] == 5001 and np.abs(data[:, 2]).max() > 0.5 * np.pi
    row = metrics.read_text().splitlines()[1].split(",")
    assert (row[1], row[5]) == ("", "diverged")


def test_simulate_exits_3_when_a_period_leaves_the_floats(tmp_path, capsys):
    # a 1e6 V pulse drives the robot's state to infinity within one period,
    # where stepping raises ValueError (the sine of an infinity): the run
    # diverged, and its trace, longer than one block, ends at the last
    # finite row
    trace, metrics = tmp_path / "trace.csv", tmp_path / "m.csv"
    code = cli.run(["simulate", "--platform", "nxtway", "--x0", "0,0.05,0,0",
                    "--disturbance", "pulse", "--dist-amplitude", "1e6",
                    "--dist-frequency", "1", "--dist-start", "5", "--duration", "10",
                    "--trace", str(trace), "--metrics", str(metrics)])
    out, err = capsys.readouterr()
    assert code == 3, err
    assert "did not stabilize" in err and "quality: diverged" in out
    header, data = _read_csv_columns(trace)
    assert data.shape[0] == 1251 and np.isfinite(data).all()
    assert data[-1, header.index("dist")] == 1e6 and data[-2, header.index("dist")] == 0.0
    row = metrics.read_text().splitlines()[1].split(",")
    assert (row[1], row[5]) == ("", "diverged")


@pytest.mark.parametrize("command, argv, code", [
    ("simulate", ["--platform", "rotpen", "--disturbance", "paper", "--duration", "120"], 0),
    ("simulate", ["--platform", "nxtway", "--disturbance", "paper", "--duration", "120",
                  "--x0", "0,1.4,0,0"], 3),  # diverges mid-way
    ("simulate", ["--platform", "rotpen", "--duration", "2", "--trace", "missing/trace.csv"], 1),
    ("compare", ["--duration", "2"], 0),
], ids=["runs", "diverges", "unwritable", "compare"])
def test_no_thread_outlives_a_command_that_writes_traces(tmp_path, monkeypatch, capsys,
                                                        command, argv, code):
    # each trace is written by simulate while a worker thread runs the loop;
    # the worker has ended when the command returns, whatever its exit code
    monkeypatch.chdir(tmp_path)
    outputs = ["--trace-dir", "traces"] if command == "compare" else ["--metrics", "m.csv"]
    if "--trace" not in argv and command == "simulate":
        outputs += ["--trace", "trace.csv"]
    threads = threading.active_count()
    assert cli.run([command, *argv, *outputs]) == code, capsys.readouterr().err
    assert threading.active_count() == threads
    assert not os.path.exists("missing")


def test_simulate_smc_boundary_layer_smoke(tmp_path):
    trace = tmp_path / "trace.csv"
    code = cli.run(["simulate", "--platform", "nxtway", "--controller", "smc",
                    "--boundary-layer", "0.05", "--duration", "1",
                    "--x0", "0,0.05,0,0", "--trace", str(trace),
                    "--metrics", str(tmp_path / "m.csv")])
    assert code == 0
    header, _ = _read_csv_columns(trace)
    assert header[-1] == "s"


def test_a_boundary_layer_runs_with_an_smc_design_file(tmp_path, capsys):
    # the design file decides the controller, so --controller is not needed
    design, trace = tmp_path / "smc.txt", tmp_path / "trace.csv"
    assert cli.run(["synthesize", "--platform", "rotpen", "--smc",
                    "--out", str(design)]) == 0
    argv = ["simulate", "--platform", "rotpen", "--design", str(design),
            "--duration", "0.2", "--x0", "0,0.05,0,0", "--metrics", str(tmp_path / "m.csv")]
    assert cli.run(argv + ["--boundary-layer", "50", "--trace", str(trace)]) == 0
    assert cli.run(argv + ["--trace", str(tmp_path / "plain.csv")]) == 0
    # the layer is read: it changes the recorded commands
    assert trace.read_bytes() != (tmp_path / "plain.csv").read_bytes()


@pytest.mark.parametrize("command, lines, message", [
    ("simulate", ["platform=rotpen", "duration=1", "# a comment", "duration=0.5"],
     "run.cfg:4: duration repeats line 2"),
    # dashes and underscores spell one key
    ("compare", ["trace-dir=a", "duration=0.2", "trace_dir=b"],
     "run.cfg:3: trace_dir repeats line 1"),
])
def test_a_config_file_may_set_a_key_once(tmp_path, capsys, monkeypatch, command, lines,
                                          message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PENDULUM_CTL_CONFIG", raising=False)
    (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
    assert cli.run([command, "--config", "run.cfg"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_repeated_simulate_invocations_are_byte_identical(tmp_path):
    argv = ["simulate", "--platform", "nxtway", "--controller", "smc",
            "--duration", "1.5", "--x0", "0,0.05,0,0",
            "--disturbance", "pulse", "--dist-amplitude", "5",
            "--dist-frequency", "0.2", "--dist-start", "1.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run(argv + ["--trace", str(a),
                           "--metrics", str(tmp_path / "ma.csv")]) == 0
    assert cli.run(argv + ["--trace", str(b),
                           "--metrics", str(tmp_path / "mb.csv")]) == 0
    assert a.read_bytes() == b.read_bytes()


_REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


@pytest.mark.parametrize("size, duration, python", [
    ("tiny", "2.0", False), ("full", "120.0", False), ("full", "120.0", True)],
    ids=["tiny-2.0", "full-120.0", "full-120.0-python"])
@pytest.mark.parametrize("platform", cli.PLATFORMS)
@pytest.mark.parametrize("controller", ["lqr", "smc"])
def test_paper_pulse_outputs_match_recorded_digests(tmp_path, monkeypatch, platform, controller,
                                                    size, duration, python):
    # the benchmark's paper_pulse commands must reproduce its recorded SHA-256
    # digests, so a last-bit drift in the dynamics or the CSV writer fails
    # here too; the tiny runs stay at rest (the pulse starts at 60 s), so
    # only the full runs exercise the dynamics. The python cases run them on
    # the Python tick loop and trace template, whether or not cc exists
    if python:
        monkeypatch.setattr(plants, "_native_library", lambda platform: None)
        monkeypatch.setattr(simulate_module, "_formatter", lambda: None)
    with open(_REFERENCES, encoding="utf-8") as fh:
        expected = json.load(fh)["paper_pulse"][size][f"{platform}-{controller}"]
    trace, metrics = tmp_path / "trace.csv", tmp_path / "metrics.csv"
    assert cli.run(["simulate", "--platform", platform, "--controller", controller,
                    "--disturbance", "paper", "--duration", duration,
                    "--measurement", "ideal",
                    "--trace", str(trace), "--metrics", str(metrics)]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == expected["trace_sha256"]
    assert hashlib.sha256(metrics.read_bytes()).hexdigest() == expected["metrics_sha256"]


def test_simulate_pulse_requires_amplitude(tmp_path, capsys):
    assert cli.run(["simulate", "--platform", "nxtway",
                    "--disturbance", "pulse", "--duration", "1"]) == 1
    assert "dist_amplitude" in capsys.readouterr().err


_GOOD_LQR_FILE = """design = lqr
residual = nan
Ki = none
[Q] rows=1 cols=1
1.0
[R] rows=1 cols=1
1.0
[K] rows=1 cols=4
0.0 0.0 0.0 0.0
"""


@pytest.mark.parametrize("edit", [
    ("[Q] rows=1 cols=1\n1.0\n", ""),                       # missing matrix
    ("residual = nan\n", ""),                                 # missing key
    ("0.0 0.0 0.0 0.0\n", ""),                                # truncated block
    ("0.0 0.0 0.0 0.0", "0.0 0.0"),                           # short row
    ("0.0 0.0 0.0 0.0", "0.0 zero 0.0 0.0"),                  # non-numeric entry
    ("0.0 0.0 0.0 0.0", "0.0 nan 0.0 0.0"),                   # non-finite gain
    ("Ki = none", "Ki = inf"),                                # non-finite gain
    ("[K] rows=1 cols=4", "[K] rows=one cols=4"),             # bad header
    ("[K] rows=1 cols=4", "[K rows=1 cols=4"),                # bad header
    ("Ki = none", "Ki none"),                                 # stray line
    ("Ki = none", "Ki = lots"),                               # non-numeric key
    ("design = lqr", "design = pid"),                         # unknown kind
    ("[Q] rows=1 cols=1\n1.0\n", "[Q] rows=1 cols=1\nnan\n"),  # non-finite weight
    ("design = lqr", "design = lqr\nplatform = segway"),       # unknown platform
])
def test_simulate_malformed_design_file(tmp_path, capsys, edit):
    dfile = tmp_path / "design.txt"
    dfile.write_text(_GOOD_LQR_FILE.replace(*edit))
    code = cli.run(["simulate", "--platform", "rotpen", "--design", str(dfile),
                    "--duration", "0.1", "--trace", str(tmp_path / "t.csv"),
                    "--metrics", str(tmp_path / "m.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(dfile) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("k", "-5.0"), ("alpha", "-1.0")])
def test_simulate_refuses_an_smc_design_file_that_design_smc_would_refuse(
        tmp_path, capsys, key, value):
    dfile = tmp_path / "smc.txt"
    assert cli.run(["synthesize", "--platform", "rotpen", "--smc", "--out", str(dfile)]) == 0
    text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", dfile.read_text(),
                          flags=re.M)
    assert found == 1
    dfile.write_text(text)
    capsys.readouterr()
    code = cli.run(["simulate", "--platform", "rotpen", "--controller", "smc",
                    "--design", str(dfile), "--duration", "0.1",
                    "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(dfile) in err and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["smc.txt"]


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--platform", "nxtway", "--ts", "0"], "ts"),
    (["simulate", "--platform", "rotpen", "--ts", "-0.002"], "ts"),
    (["synthesize", "--platform", "nxtway", "--smc", "--ts", "0"], "ts"),
    (["synthesize", "--platform", "nxtway", "--smc", "--alpha", "0"], "alpha"),
    (["synthesize", "--platform", "rotpen", "--smc", "--alpha", "nan"], "alpha"),
])
def test_nonpositive_ts_and_alpha_are_rejected(tmp_path, capsys, argv, key):
    files = ["--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.csv")] \
        if argv[0] == "simulate" else ["--out", str(tmp_path / "d.txt")]
    assert cli.run(argv + files) == 1
    assert f"invalid value for {key}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_smc_design_runs_only_at_its_sample_time(tmp_path, capsys):
    dfile = tmp_path / "smc.txt"
    assert cli.run(["synthesize", "--platform", "rotpen", "--smc",
                    "--ts", "0.01", "--out", str(dfile)]) == 0
    assert load_design(dfile).Ts == 0.01
    argv = ["simulate", "--platform", "rotpen", "--controller", "smc",
            "--design", str(dfile), "--duration", "1",
            "--trace", str(tmp_path / "t.csv"),
            "--metrics", str(tmp_path / "m.csv")]
    capsys.readouterr()
    assert cli.run(argv) == 1  # the default rotpen period is 0.002
    assert "Ts = 0.01" in capsys.readouterr().err
    assert cli.run(argv + ["--ts", "0.01"]) == 0


def test_simulate_refuses_a_design_file_of_another_platform(tmp_path, capsys):
    dfile = tmp_path / "rotpen_smc.txt"
    assert cli.run(["synthesize", "--platform", "rotpen", "--smc", "--out", str(dfile)]) == 0
    assert "platform = rotpen" in dfile.read_text().splitlines()
    argv = ["simulate", "--controller", "smc", "--ts", "0.002", "--design", str(dfile),
            "--duration", "0.1", "--trace", str(tmp_path / "t.csv"),
            "--metrics", str(tmp_path / "m.csv")]
    capsys.readouterr()
    assert cli.run(argv + ["--platform", "nxtway"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(dfile) in err
    assert "for rotpen, not nxtway" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rotpen_smc.txt"]
    # a file without the platform line loads as before
    dfile.write_text(dfile.read_text().replace("platform = rotpen\n", ""))
    assert cli.run(argv + ["--platform", "nxtway"]) == 0


def test_simulate_takes_the_controller_from_its_design_file(tmp_path, capsys):
    dfile = tmp_path / "rotpen_smc.txt"
    assert cli.run(["synthesize", "--platform", "rotpen", "--smc", "--out", str(dfile)]) == 0
    metrics = tmp_path / "m.csv"
    argv = ["simulate", "--platform", "rotpen", "--design", str(dfile), "--duration", "0.1",
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(metrics)]
    for controller in ([], ["--controller", "smc"]):
        assert cli.run(argv + controller) == 0
        assert metrics.read_text().splitlines()[1].startswith("rotpen smc,")


_SIM = ["simulate", "--platform", "rotpen", "--duration", "0.1"]
_CMP = ["compare", "--duration", "0.2"]


@pytest.mark.parametrize("argv, flag", [
    (_SIM + ["--metrics", "{ok}/m.csv"], "--trace"),
    (_SIM + ["--trace", "{ok}/t.csv"], "--metrics"),
    (_CMP, "--out"),
    (_CMP + ["--out", "{ok}/report.txt"], "--trace-dir"),
    (["synthesize", "--platform", "nxtway"], "--out"),
    (["linearize", "--platform", "rotpen"], "--out"),
])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, argv, flag):
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = str(blocker / "dir" / "out")  # a path below a regular file
    argv = [a.format(ok=tmp_path) for a in argv] + [flag, bad]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert "Traceback" not in err


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("argv, bad", [
    (_SIM + ["--trace", "{bad}", "--metrics", "{ok}/m.csv"], "{bad}"),
    (_SIM + ["--trace", "{ok}/keep.csv", "--metrics", "{bad}"], "{bad}"),
    (_SIM + ["--trace", "{ok}/sub", "--metrics", "{ok}/m.csv"], "{ok}/sub"),
    (_CMP + ["--out", "{bad}", "--metrics", "{ok}/m.csv",
             "--trace-dir", "{ok}/traces"], "{bad}"),
    (_CMP + ["--out", "{ok}/keep.csv", "--metrics", "{bad}"], "{bad}"),
    (_CMP + ["--out", "{ok}/r.txt", "--trace-dir", "{ok}/file"], "{ok}/file"),
    (_CMP + ["--out", "{ok}/r.txt", "--trace-dir", "{ok}"], "{ok}/rotpen_smc.csv"),
    (_CMP + ["--out", "{ok}/other/r.txt", "--trace-dir", "{ok}/nt"], "{ok}/other"),
    (_CMP + ["--out", "{ok}/nt", "--trace-dir", "{ok}/nt"], "{ok}/nt"),
    (_CMP + ["--out", "{ok}/r.txt", "--metrics", "{ok}/nt", "--trace-dir", "{ok}/nt"],
     "{ok}/nt"),
])
def test_unwritable_output_is_found_before_simulating(tmp_path, capsys, monkeypatch,
                                                      argv, bad):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the output paths")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    (tmp_path / "file").write_text("")
    (tmp_path / "keep.csv").write_text("kept\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "rotpen_smc.csv").mkdir()
    before = _tree(tmp_path)
    fill = dict(ok=tmp_path, bad=tmp_path / "file" / "out.csv")
    assert cli.run([a.format(**fill) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad.format(**fill) in err
    assert "Traceback" not in err
    assert _tree(tmp_path) == before  # nothing created or truncated


@pytest.mark.parametrize("extra, name", [
    (["--measurement", "filtered-derivative", "--filter-cutoff", "inf"],
     "filter_cutoff"),
    (["--controller", "smc", "--boundary-layer", "inf"], "boundary_layer"),
    (["--boundary-layer", "nan"], "boundary_layer"),
    (["--saturation", "inf"], "saturation"),
    (["--saturation", "nan", "--disturbance", "paper"], "saturation"),
    (["--disturbance", "pulse", "--dist-amplitude", "inf",
      "--dist-frequency", "0.1"], "amplitude"),
    (["--disturbance", "pulse", "--dist-amplitude", "1",
      "--dist-frequency", "inf"], "frequency"),
    (["--disturbance", "pulse", "--dist-amplitude", "1",
      "--dist-frequency", "0.1", "--dist-start", "inf"], "start_time"),
    (["--disturbance", "pulse", "--dist-amplitude", "1",
      "--dist-frequency", "0.1", "--dist-duty", "nan"], "duty"),
])
def test_nonfinite_run_settings_are_refused(tmp_path, capsys, extra, name):
    argv = _SIM + ["--trace", str(tmp_path / "t.csv"),
                   "--metrics", str(tmp_path / "m.csv")] + extra
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_four_row_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    metrics = tmp_path / "metrics.csv"
    traces = tmp_path / "traces"
    code = cli.run(["compare", "--out", str(out), "--duration", "66",
                    "--metrics", str(metrics), "--trace-dir", str(traces)])
    assert code == 0
    text = out.read_text()
    for label in ("rotpen lqr", "rotpen smc", "nxtway lqr", "nxtway smc"):
        assert label in text
    assert "Estado q2" in text and "Robustez" in text
    assert len(metrics.read_text().splitlines()) == 5  # header + four rows
    assert len(list(traces.glob("*.csv"))) == 4
    assert out.read_text() in capsys.readouterr().out  # report also printed
    # both files byte for byte, so a drift in the table or the CSV writer shows
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1e9b2a9ad9699e118bfaecfbb431f831df82e8d8fcc4ca9b3da63d615a8b7a19")
    assert hashlib.sha256(metrics.read_bytes()).hexdigest() == (
        "04ff17fceecc0275f6eee0f205133124231a31c4c96e698a7c08706b658231bd")


def test_compare_creates_the_folders_of_outputs_inside_its_trace_dir(tmp_path,
                                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["compare", "--duration", "0.2", "--trace-dir", "nt",
                    "--out", "nt/r.txt", "--metrics", "nt/sub/m.csv"]) == 0
    assert "rotpen lqr" in (tmp_path / "nt" / "r.txt").read_text()
    assert len((tmp_path / "nt" / "sub" / "m.csv").read_text().splitlines()) == 5
    assert len(list((tmp_path / "nt").glob("*.csv"))) == 4


# ---------------------------------------------------------------------------
# linearize
# ---------------------------------------------------------------------------

def test_linearize_report_and_export(tmp_path, capsys):
    out = tmp_path / "rotpen_ss.txt"
    assert cli.run(["linearize", "--platform", "rotpen",
                    "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "closed_form" in report and "numeric" in report
    assert "unstable" in report.lower()

    values = [float(v) for v in
              re.findall(r"discrepancy.*?=\s*([0-9.eE+-]+)", report)]
    assert values and max(values) < 1e-6

    ss = load_statespace(out)
    assert ss.A.shape == (4, 4) and ss.kind == "continuous"


# ---------------------------------------------------------------------------
# the settings table: config keys, flags and the exit-code contract
# ---------------------------------------------------------------------------

def _flag(command, key, raw):
    """The command-line form of one setting, as the settings table builds it."""
    if isinstance(cli._SETTINGS[command][1][key][2], dict):
        return [f"--{raw}"]  # one exclusive flag per value, e.g. --smc
    return [f"--{key.replace('_', '-')}={raw}"]


# valid raw values per key, the first one differing from the default; runs
# stay short (at most 0.2 s simulated at a period of at least 2 ms), and the
# 1e308 s in the nonsense pool is refused before anything runs
_VALID = {
    "platform": ["rotpen", "nxtway"], "controller": ["smc", "lqr"],
    "q": ["5,1,1,1", "1,1,1,1,1"], "r": ["1", "1,1"], "alpha": ["20", "100"],
    "k": ["0.5", "0"], "ts": ["0.01", "0.002", "0.004"],
    "plant_dt": ["0.0005", "0.001"], "duration": ["0.2", "0.04"],
    "disturbance": ["paper", "pulse", "none"], "dist_amplitude": ["1", "5"],
    "dist_frequency": ["2", "10"], "dist_start": ["0.1", "0"],
    "dist_duty": ["0.25", "0.5"], "x0": ["0,0.05,0,0", "0,-0.3,0,0"],
    "reference": ["0.1,0,0,0", "0,0,0,0"],
    "measurement": ["filtered-derivative", "ideal"], "filter_cutoff": ["5", "30"],
    "boundary_layer": ["0.05", "0"], "saturation": ["3", "12"],
    "gains": ["reference"], "out": ["o.txt", "sub/o.txt"],
    "trace": ["t.csv", "sub/t.csv"], "metrics": ["m.csv", "sub/m.csv"],
    "trace_dir": ["traces", "sub/traces"], "design": ["{lqr}", "{smc}"],
}
_NONSENSE = ["", "nan", "inf", "-1", "0", "abc", "1,2", "1e308", "1e-320"]


def test_simulate_settings_leave_run_defaults_to_sim_config():
    # each run default is stated once, in SimConfig: a simulate setting named
    # after a defaulted SimConfig field defaults to None, meaning not given;
    # disturbance is exempt, its none/paper/pulse values being CLI vocabulary
    defaulted = {f.name for f in dataclasses.fields(SimConfig)
                 if f.default is not dataclasses.MISSING}
    rows = cli._SETTINGS["simulate"][1]
    named = sorted(defaulted & set(rows) - {"disturbance"})
    assert named == ["boundary_layer", "filter_cutoff", "measurement", "plant_dt",
                     "reference", "x0"]
    assert {key: rows[key][1] for key in named} == dict.fromkeys(named)
    assert set(cli._RUN_FIELDS.values()) <= defaulted


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, rows) in cli._SETTINGS.items() for key in rows])
def test_config_key_and_flag_resolve_alike(tmp_path, monkeypatch, command, key):
    monkeypatch.delenv("PENDULUM_CTL_CONFIG", raising=False)
    convert, default, _ = cli._SETTINGS[command][1][key]
    a, b = _VALID[key][0], _VALID[key][-1]
    assert convert(a) != default
    assert convert(a) != convert(b) or len(_VALID[key]) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={a}\n")

    def resolve(argv):
        args = cli._build_parser().parse_args([command] + argv)
        return cli._resolve_settings(command, args)

    from_config = resolve(["--config", str(cfg)])
    from_flag = resolve(_flag(command, key, a))
    assert from_config == from_flag
    assert from_config[key] == convert(a)
    assert resolve(["--config", str(cfg)] + _flag(command, key, b))[key] == convert(b)


# the settings every short run of a command starts from
_RUN = {"synthesize": {"platform": "nxtway"}, "linearize": {"platform": "rotpen"},
        "simulate": {"platform": "rotpen", "duration": "0.2"},
        "compare": {"duration": "0.2"}}


@pytest.mark.parametrize("command, settings, key", [
    ("simulate", {"duration": "1e308"}, "duration"),
    ("simulate", {"platform": "nxtway", "plant_dt": "1e-320"}, "plant_dt"),
    ("synthesize", {"controller": "smc", "alpha": "1e308"}, "alpha"),
    ("synthesize", {"controller": "smc", "k": "inf"}, "k"),
    ("synthesize", {"platform": "rotpen", "controller": "smc", "k": "nan"}, "k"),
    ("simulate", {"measurement": "filtered-derivative", "filter_cutoff": "1e308"},
     "filter_cutoff"),
    ("compare", {"duration": "0.003", "trace_dir": "traces"}, "duration"),
    ("simulate", {"duration": "1e9"}, "duration"),
    ("simulate", {"plant_dt": "1e-8"}, "plant_dt"),
    ("compare", {"duration": "1e9"}, "duration"),
    ("synthesize", {"controller": "smc", "ts": "1e-300"}, "Ts"),
    ("simulate", {"trace": "same.csv", "metrics": "./same.csv"}, "metrics"),
    ("compare", {"out": "r.txt", "metrics": "r.txt"}, "metrics"),
    ("simulate", {"design": "d.txt", "gains": "reference"}, "gains"),
    ("simulate", {"controller": "lqr", "design": "{smc}"}, "controller"),
    # pulse settings are read only by disturbance=pulse
    ("simulate", {"disturbance": "paper", "dist_amplitude": "1"}, "dist_amplitude"),
    ("simulate", {"dist_duty": "0.3"}, "dist_duty"),
    # the run settings are checked before the design is synthesized, which
    # here would fail for want of a sliding surface at Ts = 50 s
    ("simulate", {"controller": "smc", "ts": "50", "duration": "-1",
                  "trace": os.devnull, "metrics": os.devnull}, "duration"),
    # each controller's settings are refused by the other, never dropped
    ("synthesize", {"controller": "lqr", "alpha": "5"}, "alpha"),
    ("synthesize", {"controller": "lqr", "k": "3"}, "k"),
    ("synthesize", {"ts": "0.01"}, "ts"),
    ("synthesize", {"controller": "smc", "q": "1,2,3,4"}, "q"),
    ("synthesize", {"controller": "smc", "r": "9"}, "r"),
    # RK4 steps beyond the stability limit of a decaying plant mode, checked
    # before the design is synthesized
    ("simulate", {"platform": "nxtway", "ts": "0.024", "duration": "0.24"}, "plant_dt"),
    ("simulate", {"platform": "nxtway", "ts": "0.008", "plant_dt": "0.008"}, "plant_dt"),
    ("simulate", {"controller": "smc", "ts": "50", "duration": "100"}, "plant_dt"),
    # an initial state beyond the divergence limit
    ("simulate", {"x0": "2000,0,0,0"}, "x0"),
    ("simulate", {"controller": "smc", "ts": "50", "plant_dt": "0.001",
                  "x0": "2000,0,0,0", "duration": "100"}, "x0"),
    # synthesize and linearize check their output before computing anything;
    # here synthesis would fail on the weights
    ("synthesize", {"platform": "rotpen", "q": "-1,1,1,1", "out": "missing/x.txt"},
     "missing"),
    ("synthesize", {"platform": "rotpen", "out": "missing/x.txt"}, "missing"),
    ("linearize", {"out": "missing/x.txt"}, "missing"),
    # a run setting that the run would not read is refused, never dropped
    ("simulate", {"filter_cutoff": "600"},
     "filter_cutoff needs measurement=filtered-derivative, not ideal"),
    ("simulate", {"boundary_layer": "0.5"}, "boundary_layer needs controller=smc, not lqr"),
    ("simulate", {"gains": "reference", "boundary_layer": "0.5"}, "boundary_layer"),
    ("simulate", {"design": "{lqr}", "boundary_layer": "0.05"},
     "boundary_layer needs controller=smc, not lqr"),
])
def test_bad_settings_are_refused_before_writing(tmp_path, tmp_path_factory, capsys,
                                                 monkeypatch, command, settings, key):
    if settings.get("design") in ("{lqr}", "{smc}"):  # a file outside the run folder
        controller = settings["design"][1:-1]
        design = tmp_path_factory.mktemp("designs") / f"rotpen_{controller}.txt"
        assert cli.run(["synthesize", "--platform", "rotpen", f"--{controller}",
                        "--out", str(design)]) == 0
        capsys.readouterr()
        settings = {**settings, "design": str(design)}
    monkeypatch.chdir(tmp_path)
    argv = [command]
    for name, raw in {**_RUN[command], **settings}.items():
        argv += _flag(command, name, raw)
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(rf"\b{key}\b", err)
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, source, key, input_key", [
    (["simulate", "--platform", "rotpen", "--design", "in.txt", "--trace", "in.txt",
      "--metrics", "m.csv", "--duration", "0.1"], "design", "trace", "design"),
    (["simulate", "--platform", "rotpen", "--config", "in.txt", "--trace", "t.csv",
      "--metrics", "in.txt"], "config", "metrics", "config"),
    (["synthesize", "--config", "in.txt", "--out", "in.txt"], "config", "out", "config"),
    (["synthesize", "--out", "./in.txt"], "env", "out", "config"),
    (["linearize", "--config", "in.txt", "--out", "in.txt"], "config", "out", "config"),
    (["compare", "--config", "in.txt", "--metrics", "in.txt"], "config", "metrics",
     "config"),
])
def test_an_output_may_not_overwrite_an_input(tmp_path, capsys, monkeypatch,
                                              argv, source, key, input_key):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PENDULUM_CTL_CONFIG", raising=False)
    if source == "design":
        assert cli.run(["synthesize", "--platform", "rotpen", "--out", "in.txt"]) == 0
    else:
        platform = "" if argv[0] == "compare" else "platform = rotpen\n"
        (tmp_path / "in.txt").write_text(f"# settings\n{platform}")
        if source == "env":
            monkeypatch.setenv("PENDULUM_CTL_CONFIG", "in.txt")
    before = (tmp_path / "in.txt").read_bytes()
    capsys.readouterr()
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert f"{input_key} and {key} both name the file" in captured.err
    assert captured.out == ""
    assert (tmp_path / "in.txt").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["in.txt"]


@pytest.mark.parametrize("argv", [
    ["synthesize", "--platform", "rotpen", "--out", "missing/x.txt"],
    ["synthesize", "--platform", "rotpen"],  # its default output is a folder here
    ["linearize", "--platform", "rotpen", "--out", "missing/x.txt"],
])
def test_synthesize_and_linearize_check_their_output_first(tmp_path, capsys,
                                                           monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PENDULUM_CTL_CONFIG", raising=False)
    (tmp_path / "rotpen_lqr_design.txt").mkdir()
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["rotpen_lqr_design.txt"]


def test_output_clashes_are_judged_by_the_file_reached(tmp_path, capsys, monkeypatch):
    # two writes to /dev/null lose nothing, so sharing it is no clash
    monkeypatch.chdir(tmp_path)
    assert cli.run(["simulate", "--platform", "rotpen", "--duration", "0.2",
                    "--trace", os.devnull, "--metrics", os.devnull]) == 0
    assert cli.run(["compare", "--duration", "0.2", "--out", os.devnull,
                    "--metrics", os.devnull]) == 0
    assert not any(tmp_path.iterdir())
    # two hard links are one file, whatever their paths
    (tmp_path / "a.csv").write_text("kept\n")
    os.link(tmp_path / "a.csv", tmp_path / "b.csv")
    assert cli.run(["simulate", "--platform", "rotpen", "--duration", "0.2",
                    "--trace", "a.csv", "--metrics", "b.csv"]) == 1
    assert "trace and metrics both name" in capsys.readouterr().err
    assert (tmp_path / "a.csv").read_text() == "kept\n"


def test_a_symlinked_trace_keeps_its_link(tmp_path, monkeypatch):
    # the new trace is published at the file the link reaches, with the
    # bytes a plain path gets, and no .part file is left in either folder
    monkeypatch.chdir(tmp_path)
    run = ["simulate", "--platform", "rotpen", "--duration", "0.2"]
    assert cli.run(run + ["--trace", "plain.csv", "--metrics", "plain_m.csv"]) == 0
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "trace.csv").write_text("old\n")
    os.symlink(os.path.join("data", "trace.csv"), "link.csv")
    assert cli.run(run + ["--trace", "link.csv", "--metrics", "m.csv"]) == 0
    assert os.readlink("link.csv") == os.path.join("data", "trace.csv")
    assert (tmp_path / "data" / "trace.csv").read_bytes() == Path("plain.csv").read_bytes()
    assert sorted(os.listdir()) == ["data", "link.csv", "m.csv", "plain.csv", "plain_m.csv"]
    assert os.listdir("data") == ["trace.csv"]


def test_synthesize_keeps_a_design_files_permission_bits(tmp_path, monkeypatch):
    # the rewritten design, a new file moved in (a new inode) with its
    # closed-loop blocks, keeps the mode of the file it replaced
    monkeypatch.chdir(tmp_path)
    fresh, kept = Path("fresh.txt"), Path("kept.txt")
    kept.write_text("old design\n")
    kept.chmod(0o600)
    inode = kept.stat().st_ino
    for out in (fresh, kept):
        assert cli.run(["synthesize", "--platform", "rotpen", "--out", str(out)]) == 0
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600 and kept.stat().st_ino != inode
    assert kept.read_bytes() == fresh.read_bytes()
    assert "closed_loop_im" in kept.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.txt", "kept.txt"]


def test_fuzzed_settings_keep_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    # seeded draws of commands, keys and values from the settings table, each
    # value given as a flag or through a config file; every run must end in
    # exit 0-3 without a traceback, and an exit 1 must write nothing
    monkeypatch.delenv("PENDULUM_CTL_CONFIG", raising=False)
    designs = {"lqr": tmp_path / "lqr.txt", "smc": tmp_path / "smc.txt"}
    for controller, path in designs.items():
        assert cli.run(["synthesize", "--platform", "rotpen", f"--{controller}",
                        "--out", str(path)]) == 0
    rng = np.random.default_rng(6)
    commands = list(cli._SETTINGS)
    for case in range(400):
        command = commands[rng.integers(len(commands))]
        rows = cli._SETTINGS[command][1]
        settings = dict(_RUN[command])
        keys = rng.choice(list(rows), size=min(rng.integers(1, 4), len(rows)),
                          replace=False)
        for key in map(str, keys):
            pool = _VALID[key] if rng.random() < 0.5 else _NONSENSE
            settings[key] = pool[rng.integers(len(pool))].format(**designs)
        workdir = tmp_path / f"case{case}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        argv, config = [command], ""
        for key, raw in settings.items():
            if rng.random() < 0.5 and (not isinstance(rows[key][2], dict)
                                       or raw in rows[key][2]):
                argv += _flag(command, key, raw)
            else:
                config += f"{key}={raw}\n"
        if config:
            (workdir / "run.cfg").write_text(config)
            argv += ["--config", "run.cfg"]
        code = cli.run(argv)
        err = capsys.readouterr().err
        context = f"{argv} with config {config!r}: exit {code}, stderr {err!r}"
        assert code in (0, 1, 2, 3), context
        assert "Traceback" not in err, context
        if code == 1:
            assert [p.name for p in workdir.iterdir()] == (["run.cfg"] if config
                                                           else []), context


def _mutate_design(text: str, rng) -> str:
    """One seeded edit of a design file: drop, duplicate, truncate, swap or poison."""
    lines = text.splitlines(keepends=True)
    if len(text.split()) < 2:
        return text
    kind = rng.integers(5)
    if kind == 0:
        del lines[rng.integers(len(lines))]
    elif kind == 1:
        i = rng.integers(len(lines))
        lines.insert(i, lines[i])
    elif kind == 2:
        return text[:rng.integers(len(text))]
    else:
        spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line.split()))]
        (i, j), (k, m) = (spots[n] for n in rng.choice(len(spots), 2, replace=False))
        rows = {n: lines[n].split() for n in (i, k)}
        if kind == 3:
            rows[i][j], rows[k][m] = rows[k][m], rows[i][j]
        else:
            rows[i][j] = ["inf", "-inf", "nan", "1e308", "-1e308", "abc"][rng.integers(6)]
        for n, tokens in rows.items():
            lines[n] = " ".join(tokens) + "\n"
    return "".join(lines)


def test_fuzzed_design_files_keep_the_exit_code_contract(tmp_path, capsys):
    # seeded edits of a valid rotpen LQR and a valid nxtway SMC design file;
    # each edited file drives a short simulate run, which must end in exit
    # 0-3 without a traceback
    valid = {}
    for platform, controller in (("rotpen", "lqr"), ("nxtway", "smc")):
        path = tmp_path / f"{controller}.txt"
        assert cli.run(["synthesize", "--platform", platform, f"--{controller}",
                        "--out", str(path)]) == 0
        valid[platform] = path.read_text()
    capsys.readouterr()
    rng = np.random.default_rng(8)
    for case in range(300):
        platform = ("rotpen", "nxtway")[case % 2]
        text = valid[platform]
        for _ in range(rng.integers(1, 4)):
            text = _mutate_design(text, rng)
        dfile = tmp_path / "design.txt"
        dfile.write_text(text)
        code = cli.run(["simulate", "--platform", platform, "--design", str(dfile),
                        "--duration", "0.04", "--trace", str(tmp_path / "t.csv"),
                        "--metrics", str(tmp_path / "m.csv")])
        err = capsys.readouterr().err
        context = f"case {case}: exit {code}, stderr {err!r}, file {text!r}"
        assert code in (0, 1, 2, 3), context
        assert "Traceback" not in err, context


# values the contract test draws for any setting: valid ones, edge numbers
# and garbage (non-ASCII digits, empty, lists where scalars belong)
_FUZZ_VALUES = ("0", "-1", "1", "2.5", "0.002", "0.004", "0.5", "10", "nan", "inf", "-inf",
                "1e300", "-1e300", "5e-324", "1e-9", "", " ", "1,2", "0,0.05,0,0", "0,nan,0,0",
                "1,1,1,1", "5,1,1,1", "\u0663", "abc", "reference", "rotpen", "nxtway", "lqr",
                "smc", "paper", "pulse", "none", "ideal", "filtered-derivative")
# plausible values per setting; other numeric settings draw from _FUZZ_NUMBERS
_FUZZ_LIKELY = {"platform": ("rotpen", "nxtway"), "controller": ("lqr", "smc"),
                "gains": ("reference",), "disturbance": ("none", "paper", "pulse"),
                "measurement": ("ideal", "filtered-derivative"), "ts": ("0.002", "0.004"),
                "x0": ("0,0.05,0,0", "0,1.5,0,0", "0,0,0,0"), "reference": ("0.1,0,0,0",),
                "q": ("5,1,1,1", "1,-1,1,1", "1,1,1,1,1"), "r": ("1", "0"), "k": ("1", "-1")}
_FUZZ_NUMBERS = ("0.5", "1", "2", "10", "0.001")
_FUZZ_PATHS = ("trace", "metrics", "out", "trace_dir")


def _fuzz_case(rng, command, folder, designs):
    """(argv, outputs) of one seeded command line: plausible settings, up to two of
    them garbage, each given as a flag or a config line."""
    rows = cli._SETTINGS[command][1]
    keys = [key for key in rows if key == "platform" or rng.random() < 0.15]
    if command == "compare" and "duration" not in keys:
        keys.append("duration")  # compare runs four plants: keep every window short
    likely = dict(_FUZZ_LIKELY)
    if any(key.startswith("dist_") for key in keys):  # a pulse and what it requires
        keys += [k for k in ("disturbance", "dist_amplitude", "dist_frequency") if k not in keys]
        likely["disturbance"] = ("pulse",)
    others = [key for key in keys if key != "platform"]
    spoiled = set(rng.sample(others, min(len(others), rng.choice([0, 0, 0, 1, 1, 2]))))
    if rng.random() < 0.1:
        spoiled.add("platform")
    argv, config, outputs = [command], [], []
    for key in keys:
        if key in _FUZZ_PATHS:
            value = rng.choice([folder / "missing" / "x", folder, folder / "in.cfg"]
                               if key in spoiled else [folder / f"{key}.out"])
            outputs.append(value)
        elif key == "design":
            value = rng.choice([folder / "absent.txt", folder / "in.cfg"] if key in spoiled
                               else designs)
        else:
            value = rng.choice(_FUZZ_VALUES if key in spoiled else likely.get(key, _FUZZ_NUMBERS))
        value, text = str(value), rows[key][2]
        if isinstance(text, dict) and value in text and rng.random() < 0.5:
            argv.append(f"--{value}")  # the mutually exclusive flag form
        elif isinstance(text, dict) or rng.random() < 0.3:  # such a key has no --key
            config.append(f"{key}={value}")
        else:
            argv.append(f"--{key.replace('_', '-')}={value}")
    if config:
        (folder / "in.cfg").write_text("\n".join(config) + "\n")
        argv.append(f"--config={folder / 'in.cfg'}")
    return argv, outputs


def test_seeded_command_lines_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    # about 200 seeded command lines over the _SETTINGS table; each must exit
    # 0-3 without a traceback, an exit-1 message starts with error:, and a
    # refused command (1) or a failed synthesis (2) writes nothing: the case
    # folder holds the same files afterwards. Exit 3 writes its outputs, since
    # a run that did not stabilize still has a trace and metrics.
    monkeypatch.delenv("PENDULUM_CTL_CONFIG", raising=False)
    designs = []
    for platform, controller in (("rotpen", "smc"), ("nxtway", "lqr")):
        designs.append(tmp_path / f"{platform}_{controller}.txt")
        assert cli.run(["synthesize", "--platform", platform, f"--{controller}",
                        f"--out={designs[-1]}"]) == 0
    capsys.readouterr()
    rng = random.Random(20201)
    codes = []
    for case in range(200):
        folder = tmp_path / f"case{case}"
        folder.mkdir()
        monkeypatch.chdir(folder)  # where default output names land
        command = rng.choice(["simulate", "simulate", "synthesize", "linearize", "compare"])
        argv, outputs = _fuzz_case(rng, command, folder, designs)
        before = sorted(folder.rglob("*"))
        code = cli.run(argv)
        out, err = capsys.readouterr()
        context = f"case {case}: {argv} exit {code}, stderr {err!r}"
        assert code in (0, 1, 2, 3), context
        assert "Traceback" not in err + out, context
        if code == 1:
            assert err.startswith("error:"), context
        if code in (1, 2):
            assert sorted(folder.rglob("*")) == before, context
        codes.append(code)
    # the draw reaches every outcome
    assert {0, 1, 2, 3} <= set(codes), {c: codes.count(c) for c in set(codes)}
