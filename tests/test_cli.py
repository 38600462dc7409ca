"""End-to-end tests for the command-line front end.

Every invocation goes through cli.run so the exit-code contract is
exercised exactly as a shell would see it: 0 success, 1 config error,
2 synthesis failure, 3 diverged simulation.
"""

import math
import re

import numpy as np
import pytest

from pendulum_ctl import cli
from pendulum_ctl.linearize import load_statespace
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


def test_simulate_smc_boundary_layer_smoke(tmp_path):
    trace = tmp_path / "trace.csv"
    code = cli.run(["simulate", "--platform", "nxtway", "--controller", "smc",
                    "--boundary-layer", "0.05", "--duration", "1",
                    "--x0", "0,0.05,0,0", "--trace", str(trace),
                    "--metrics", str(tmp_path / "m.csv")])
    assert code == 0
    header, _ = _read_csv_columns(trace)
    assert header[-1] == "s"


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
    ("[K] rows=1 cols=4", "[K] rows=one cols=4"),             # bad header
    ("[K] rows=1 cols=4", "[K rows=1 cols=4"),                # bad header
    ("Ki = none", "Ki none"),                                 # stray line
    ("Ki = none", "Ki = lots"),                               # non-numeric key
    ("design = lqr", "design = pid"),                         # unknown kind
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
