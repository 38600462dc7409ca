"""Tests for trace metrics and the comparison table."""

import dataclasses

import numpy as np
import pytest

from pendulum_ctl.linearize import (
    discretize_zoh,
    nxtway_statespace_closed_form,
)
from pendulum_ctl.metrics import (
    SMOOTH_SCORE_LIMIT,
    Metrics,
    comparison_report,
    compute_metrics,
    save_metrics_csv,
)
from pendulum_ctl.plants import default_params
from pendulum_ctl.simulate import SimConfig, SimTrace, simulate
from pendulum_ctl.synthesis import design_smc, nxtway_integral_lqr


def _trace(t, q2=None, u=None, diverged=False, q2dot=None):
    t = np.asarray(t, dtype=float)
    n = t.size
    x = np.zeros((n, 4))
    if q2 is not None:
        x[:, 1] = q2
    if q2dot is not None:
        x[:, 3] = q2dot
    u = np.zeros(n) if u is None else np.asarray(u, dtype=float)
    return SimTrace(t=t, x=x, u_command=u, u_applied=u, d=np.zeros(n),
                    diverged=diverged)


def test_constant_trace_metrics():
    m = compute_metrics(_trace(np.arange(5) * 0.1), V_max=10.0)
    assert m.settle_time == 0.0
    assert m.u_inf == 0.0 and m.u_pct_max == 0.0
    assert m.pole_vel_max == 0.0
    assert m.stabilization_quality == "smooth"
    assert m.scattering_score == 0.0


def test_u_inf_and_percent():
    m = compute_metrics(_trace([0.0, 0.1, 0.2], u=[1.0, -2.0, 1.5]), V_max=10.0)
    assert m.u_inf == 2.0
    assert m.u_pct_max == pytest.approx(20.0)


def test_settle_time_is_last_band_exit_minus_onset():
    t = np.arange(11.0)
    q2 = np.zeros(11)
    q2[2] = 0.05
    q2[6] = -0.05
    m = compute_metrics(_trace(t, q2=q2), V_max=10.0, disturbance_onset=1.0)
    assert m.settle_time == pytest.approx(5.0)

    # an onset after the last exit clamps at zero
    m = compute_metrics(_trace(t, q2=q2), V_max=10.0, disturbance_onset=8.0)
    assert m.settle_time == 0.0

    # still outside at the final sample: that sample is the last exit
    q2_end = np.zeros(11)
    q2_end[-1] = 0.1
    m = compute_metrics(_trace(t, q2=q2_end), V_max=10.0)
    assert m.settle_time == pytest.approx(10.0)


def test_pole_velocity_max():
    m = compute_metrics(_trace([0.0, 1.0], q2dot=[0.3, -0.7]), V_max=10.0)
    assert m.pole_vel_max == pytest.approx(0.7)


def test_diverged_classification():
    m = compute_metrics(_trace([0.0, 1.0], u=[1.0, 2.0], diverged=True), V_max=10.0)
    assert m.stabilization_quality == "diverged"
    assert m.settle_time is None
    assert m.u_inf == 2.0  # numeric norms still reported


def test_a_fallen_pole_has_no_settle_time():
    # |q2 - reference| reaching pi/2 at any sample marks the run as fallen,
    # even when the pole is back inside the band by the end
    t = np.arange(5.0)
    below = np.nextafter(0.5 * np.pi, 0.0)
    for q2, reference, settle in (([0.0, below, 0.0, 0.0, 0.0], 0.0, 1.0),
                                  ([0.0, -below, 0.0, 0.0, 0.0], 0.0, 1.0),
                                  ([0.0, 0.5 * np.pi, 0.0, 0.0, 0.0], 0.0, None),
                                  ([0.0, -2.0, 0.0, 0.0, 0.0], 0.0, None),
                                  ([0.5, 0.5, 2.0, 0.5, 0.5], 0.5, 2.0),
                                  ([0.5, 0.5, 2.1, 0.5, 0.5], 0.5, None)):
        m = compute_metrics(_trace(t, q2=q2), V_max=10.0, reference_q2=reference)
        assert m.settle_time == settle, (q2, reference)
        assert (m.stabilization_quality == "diverged") == (settle is None)


def test_empty_trace_rejected():
    empty = SimTrace(t=np.empty(0), x=np.empty((0, 4)), u_command=np.empty(0),
                     u_applied=np.empty(0), d=np.empty(0))
    with pytest.raises(ValueError):
        compute_metrics(empty, V_max=10.0)
    with pytest.raises(ValueError):
        compute_metrics(_trace([0.0, 1.0]), V_max=0.0)


def test_time_shift_invariance():
    t = np.arange(11.0)
    q2 = np.zeros(11)
    q2[4] = 0.08
    u = np.sin(t)
    base = compute_metrics(_trace(t, q2=q2, u=u), V_max=6.0, disturbance_onset=2.0)
    shifted = compute_metrics(_trace(t + 5.0, q2=q2, u=u), V_max=6.0,
                              disturbance_onset=7.0)
    assert shifted.settle_time == base.settle_time
    assert shifted.u_inf == base.u_inf
    assert shifted.scattering_score == base.scattering_score


def test_u_inf_invariant_under_finer_resampling():
    u = np.array([1.0, -3.0, 2.0])
    t = np.array([0.0, 1.0, 2.0])
    coarse = compute_metrics(_trace(t, u=u), V_max=10.0)
    fine = compute_metrics(_trace(np.arange(9) / 4.0, u=np.repeat(u, 3)), V_max=10.0)
    assert fine.u_inf == coarse.u_inf


def test_matched_pair_ordering_and_classification():
    params = default_params("nxtway")
    ss = nxtway_statespace_closed_form(params)
    cfg = SimConfig(duration=10.0, controller_Ts=0.004, x0=(0.0, 0.05, 0.0, 0.0))

    lqr_trace = simulate(params, nxtway_integral_lqr(ss), cfg)
    smc_trace = simulate(params, design_smc(discretize_zoh(ss, 0.004), alpha=100.0),
                         cfg)
    lqr = compute_metrics(lqr_trace, V_max=params.V_max)
    smc = compute_metrics(smc_trace, V_max=params.V_max)

    assert lqr.stabilization_quality == "smooth"
    assert smc.stabilization_quality == "scattering"
    assert lqr.u_pct_max < smc.u_pct_max


# ---------------------------------------------------------------------------
# comparison table
# ---------------------------------------------------------------------------

def _metrics(u_inf=3.0, pct=30.0, settle=1.5, score=0.001):
    return Metrics(settle_time=settle, u_inf=u_inf, u_pct_max=pct,
                   pole_vel_max=0.42, scattering_score=score)


def test_quality_is_derived_from_settle_time_and_score():
    assert _metrics().stabilization_quality == "smooth"
    assert _metrics(score=SMOOTH_SCORE_LIMIT).stabilization_quality == "scattering"
    assert _metrics(settle=None).stabilization_quality == "diverged"
    assert _metrics(settle=None, score=0.9).stabilization_quality == "diverged"
    assert "stabilization_quality" not in {f.name for f in dataclasses.fields(Metrics)}


def test_report_headers_and_design_columns():
    text = comparison_report([("nxtway", "lqr", _metrics()),
                              ("nxtway", "smc", _metrics(score=0.05))])
    for header in ("Estado q2", "Potencia", "Velocidad Máxima",
                   "Criterio Energía Mínima", "Robustez"):
        assert header in text
    assert "rad/s" in text.splitlines()[0]  # unit note in the header

    lines = text.splitlines()
    lqr_line = next(ln for ln in lines if "nxtway lqr" in ln)
    smc_line = next(ln for ln in lines if "nxtway smc" in ln)
    assert lines.index(lqr_line) < lines.index(smc_line)  # input order kept
    assert "scattering (1.50 s)" in smc_line
    # LQR: Energia=Si then Robustez=No; SMC the other way around
    assert lqr_line.index("Si") < lqr_line.index("No")
    assert smc_line.index("No") < smc_line.index("Si")


def test_report_potencia_units_per_platform():
    text = comparison_report([("rotpen", "lqr", _metrics(u_inf=1.88, pct=31.3)),
                              ("nxtway", "lqr", _metrics(u_inf=3.87, pct=38.7))])
    rot_line = next(ln for ln in text.splitlines() if "rotpen lqr" in ln)
    nxt_line = next(ln for ln in text.splitlines() if "nxtway lqr" in ln)
    assert "1.88 V" in rot_line and "%" not in rot_line
    assert "38.7 %" in nxt_line and " V" not in nxt_line


def test_report_single_run_and_bad_labels(tmp_path):
    text = comparison_report([("rotpen", "lqr", _metrics())])
    assert len([ln for ln in text.splitlines() if "rotpen lqr" in ln]) == 1

    with pytest.raises(ValueError, match="needs at least one run"):
        comparison_report([])
    # a run names its platform and controller; no other name is read
    for report in (comparison_report,
                   lambda runs: save_metrics_csv(runs, tmp_path / "m.csv")):
        with pytest.raises(ValueError, match="unknown platform 'quanser'"):
            report([("quanser", "lqr", _metrics())])
        with pytest.raises(ValueError, match="unknown platform 'RotPen'"):
            report([("RotPen", "lqr", _metrics())])
        with pytest.raises(ValueError, match="unknown controller 'rotpen lqr'"):
            report([("rotpen", "rotpen lqr", _metrics())])
    assert not any(tmp_path.iterdir())


def test_report_shows_diverged_runs():
    m = Metrics(settle_time=None, u_inf=6.0, u_pct_max=100.0, pole_vel_max=55.0,
                scattering_score=0.9)
    text = comparison_report([("rotpen", "smc", m)])
    assert "diverged" in text


def test_metrics_csv_roundtrip(tmp_path):
    runs = [("nxtway", "lqr", _metrics()),
            ("rotpen", "smc", _metrics(settle=None, score=0.05)),
            ("rotpen", "lqr", _metrics(settle=0.25, score=0.05))]
    path = tmp_path / "metrics.csv"
    save_metrics_csv(runs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("label,settle_time,u_inf,u_pct_max,pole_vel_max,"
                        "stabilization_quality,scattering_score")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "nxtway lqr"
    assert float(first[1]) == 1.5
    assert float(first[2]) == 3.0
    assert first[5] == "smooth"
    second = lines[2].split(",")
    assert second[0] == "rotpen smc"
    assert second[1] == ""  # no numeric settle time
    assert second[5] == "diverged"
    third = lines[3].split(",")
    assert float(third[1]) == 0.25
    assert third[5] == "scattering"
