"""Tests for the closed-loop simulator.

Recorded commands are asserted equal to the public control laws on the
recorded states, RK4 order four is confirmed by step halving, and the
discrete reaching law is exercised on the sampled linear model with a
manual update loop so the check does not depend on the integrator under
test.
"""

import math

import numpy as np
import pytest

from pendulum_ctl.errors import ConfigError
from pendulum_ctl.linearize import (
    discretize_zoh,
    nxtway_statespace_closed_form,
    rotpen_statespace_closed_form,
)
from pendulum_ctl.plants import default_params
from pendulum_ctl.simulate import (
    DisturbanceSpec,
    SimConfig,
    SimTrace,
    disturbance_value,
    filtered_derivative,
    lqr_control_law,
    saturate,
    save_trace_csv,
    simulate,
    smc_control_law,
    standard_pulse_train,
)
from pendulum_ctl.synthesis import (
    DEFAULT_ROTPEN_Q,
    DEFAULT_ROTPEN_R,
    LqrDesign,
    SmcDesign,
    design_smc,
    lqr_gain,
    nxtway_integral_lqr,
    reference_lqr_design,
)


def _rotpen_lqr():
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    return lqr_gain(ss.A, ss.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R)


def _nxtway_lqr():
    return nxtway_integral_lqr(nxtway_statespace_closed_form(default_params("nxtway")))


def _nxtway_smc(k=None):
    ss = discretize_zoh(nxtway_statespace_closed_form(default_params("nxtway")), 0.004)
    return design_smc(ss, alpha=100.0, k=k)


def _gain_only_design(K, Ki=None):
    K = np.atleast_2d(np.asarray(K, dtype=float))
    return LqrDesign(Q=np.eye(K.shape[1]), R=np.eye(1), P=None, K=K, Ki=Ki,
                     residual=float("nan"))


# ---------------------------------------------------------------------------
# disturbance and saturation primitives
# ---------------------------------------------------------------------------

def test_disturbance_spec_validation():
    DisturbanceSpec()  # default: none
    with pytest.raises(ConfigError):
        DisturbanceSpec(kind="sine")
    with pytest.raises(ConfigError):
        DisturbanceSpec(kind="pulse_train", amplitude=-1.0, frequency=0.1)
    with pytest.raises(ConfigError):
        DisturbanceSpec(kind="pulse_train", amplitude=1.0, frequency=0.0)
    with pytest.raises(ConfigError):
        DisturbanceSpec(kind="pulse_train", amplitude=1.0, frequency=0.1, duty=1.5)


def test_standard_pulse_train_profile():
    spec = standard_pulse_train(10.0)
    assert spec.kind == "pulse_train"
    assert spec.amplitude == 5.0
    assert spec.frequency == 0.0167
    assert spec.start_time == 60.0 and spec.duty == 0.5

    period = 1.0 / 0.0167
    assert period == pytest.approx(59.88, abs=0.01)
    assert disturbance_value(spec, 30.0) == 0.0
    assert disturbance_value(spec, 60.0) == 5.0
    assert disturbance_value(spec, 60.0 + 0.49 * period) == 5.0
    assert disturbance_value(spec, 60.0 + 0.51 * period) == 0.0
    assert disturbance_value(spec, 60.0 + 1.25 * period) == 5.0

    quiet = DisturbanceSpec()
    assert disturbance_value(quiet, 1234.5) == 0.0
    with pytest.raises(ValueError):
        disturbance_value(spec, -1.0)


def test_saturate_clamps():
    assert saturate(5.0, 6.0) == 5.0
    assert saturate(12.0, 10.0) == 10.0
    assert saturate(-12.0, 10.0) == -10.0
    with pytest.raises(ValueError):
        saturate(1.0, 0.0)


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------

def test_sim_config_defaults_and_validation():
    cfg = SimConfig(duration=1.0, controller_Ts=0.004)
    assert cfg.plant_dt == pytest.approx(0.001)
    assert cfg.measurement == "ideal"
    assert cfg.x0 == (0.0, 0.0, 0.0, 0.0)

    with pytest.raises(ConfigError):
        SimConfig(duration=0.0, controller_Ts=0.004)
    with pytest.raises(ConfigError):
        SimConfig(duration=1.0, controller_Ts=0.004, plant_dt=0.008)
    with pytest.raises(ConfigError):
        SimConfig(duration=1.0, controller_Ts=0.004, plant_dt=0.003)
    with pytest.raises(ConfigError):
        SimConfig(duration=1.0, controller_Ts=0.004, x0=(1.0, 2.0))
    with pytest.raises(ConfigError):
        SimConfig(duration=1.0, controller_Ts=0.004, x0=(0.0, math.nan, 0.0, 0.0))
    with pytest.raises(ConfigError):
        SimConfig(duration=1.0, controller_Ts=0.004, measurement="noisy")
    with pytest.raises(ConfigError):
        SimConfig(duration=1.0, controller_Ts=0.004, saturation_V=-2.0)


def test_sim_trace_validation():
    with pytest.raises(ValueError):
        SimTrace(t=[0.0, 1.0], x=np.zeros((3, 4)), u_command=[0.0, 0.0],
                 u_applied=[0.0, 0.0], d=[0.0, 0.0])
    with pytest.raises(ValueError):
        SimTrace(t=[0.0, 0.0], x=np.zeros((2, 4)), u_command=[0.0, 0.0],
                 u_applied=[0.0, 0.0], d=[0.0, 0.0])


# ---------------------------------------------------------------------------
# control laws
# ---------------------------------------------------------------------------

def test_lqr_control_law_basics():
    d = _gain_only_design([1.0, 2.0, 3.0, 4.0])
    assert lqr_control_law(d, [0.0, 0.0, 0.0, 0.0]) == 0.0
    assert lqr_control_law(d, [1.0, 0.0, 0.0, 0.0]) == -1.0
    assert lqr_control_law(d, [1.0, 0.0, 0.0, 0.0],
                           reference=[1.0, 0.0, 0.0, 0.0]) == 0.0


def test_lqr_control_law_reference_gains():
    d = reference_lqr_design("nxtway")
    u = lqr_control_law(d, [0.0, 1.0, 0.0, 0.0])
    assert u == pytest.approx(69.4743, abs=1e-9)
    # integral term enters as -Ki * integ
    u2 = lqr_control_law(d, [0.0, 1.0, 0.0, 0.0], integ=2.0)
    assert u2 - u == pytest.approx(-d.Ki * 2.0, abs=1e-12)


def test_smc_control_law_switching():
    d = SmcDesign(L=[0.0, 0.0, 0.0, 1.0], Keq=np.zeros(4), k=20.0, Ts=0.004,
                  alpha=100.0, surface_eigs=np.zeros(3), k_exceeds_bound=True)
    u, s = smc_control_law(d, [0.0, 0.0, 0.0, 0.5])
    assert s == 0.5 and u == -20.0
    u, s = smc_control_law(d, [0.0, 0.0, 0.0, 0.0])
    assert s == 0.0 and u == 0.0  # sign(0) = 0

    real = _nxtway_smc()
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=4)
        u_pos, s_pos = smc_control_law(real, x)
        u_neg, s_neg = smc_control_law(real, -x)
        assert u_neg == pytest.approx(-u_pos, rel=1e-12)
        assert s_neg == pytest.approx(-s_pos, rel=1e-12)
        assert s_pos == pytest.approx(float(real.L @ x), rel=1e-12)


def test_smc_control_law_boundary_layer():
    d = SmcDesign(L=[0.0, 0.0, 0.0, 1.0], Keq=np.zeros(4), k=20.0, Ts=0.004,
                  alpha=100.0, surface_eigs=np.zeros(3))
    u, s = smc_control_law(d, [0.0, 0.0, 0.0, 0.05], boundary_layer=0.1)
    assert s == pytest.approx(0.05)
    assert u == pytest.approx(-20.0 * 0.5)  # linear inside the layer
    u, _ = smc_control_law(d, [0.0, 0.0, 0.0, 0.5], boundary_layer=0.1)
    assert u == -20.0  # full switching outside


# ---------------------------------------------------------------------------
# filtered derivative
# ---------------------------------------------------------------------------

def test_filtered_derivative_constant_and_ramp():
    const = filtered_derivative(np.ones(200), Ts=0.01, cutoff_hz=5.0)
    np.testing.assert_allclose(const, 0.0, atol=1e-15)

    t = np.arange(400) * 0.01
    ramp = filtered_derivative(2.5 * t, Ts=0.01, cutoff_hz=5.0)
    assert ramp[-1] == pytest.approx(2.5, abs=1e-6)

    with pytest.raises(ValueError):
        filtered_derivative([1.0], Ts=0.01, cutoff_hz=5.0)
    with pytest.raises(ValueError):
        filtered_derivative([1.0, 2.0], Ts=0.01, cutoff_hz=0.0)


def test_filtered_derivative_attenuates_high_frequency():
    Ts, cutoff, f = 1e-3, 5.0, 50.0
    t = np.arange(0.0, 1.0, Ts)
    out = filtered_derivative(np.sin(2 * math.pi * f * t), Ts=Ts, cutoff_hz=cutoff)
    steady = np.abs(out[4 * len(out) // 5:]).max()
    attenuation_db = 20 * math.log10(2 * math.pi * f / steady)
    assert attenuation_db >= 20 * math.log10(10.0) - 3.0


# ---------------------------------------------------------------------------
# closed-loop runs
# ---------------------------------------------------------------------------

def test_equilibrium_stays_at_zero():
    cfg = SimConfig(duration=1.0, controller_Ts=0.004)
    for params, design in (
        (default_params("rotpen"), _rotpen_lqr()),
        (default_params("nxtway"), _nxtway_lqr()),
        (default_params("nxtway"), _nxtway_smc()),
    ):
        cfg_p = cfg if params.platform == "nxtway" else \
            SimConfig(duration=1.0, controller_Ts=0.002)
        trace = simulate(params, design, cfg_p)
        assert not trace.diverged
        assert np.abs(trace.x).max() < 1e-9
        assert np.abs(trace.u_applied).max() < 1e-9


def test_rotpen_reference_gains_recover_from_pulse():
    params = default_params("rotpen")
    cfg = SimConfig(duration=70.0, controller_Ts=0.002,
                    disturbance=standard_pulse_train(params.V_max))
    trace = simulate(params, reference_lqr_design("rotpen"), cfg)
    assert not trace.diverged
    tail = trace.t >= 63.0  # three seconds after pulse onset
    assert np.abs(trace.x[tail, 1]).max() < 0.02
    assert np.abs(trace.u_applied).max() <= params.V_max


def test_nxtway_smc_stabilizes_and_chatters():
    params = default_params("nxtway")
    cfg = SimConfig(duration=10.0, controller_Ts=0.004, x0=(0.0, 0.05, 0.0, 0.0))
    trace = simulate(params, _nxtway_smc(), cfg)
    assert not trace.diverged
    assert abs(trace.x[-1, 1]) < 0.02
    assert trace.s is not None
    # switching leaves a visibly scattered actuation signal
    assert np.abs(np.diff(trace.u_applied)).mean() / params.V_max > 0.02


def test_integral_action_tracks_wheel_step():
    params = default_params("nxtway")
    cfg = SimConfig(duration=40.0, controller_Ts=0.004,
                    reference=(1.0, 0.0, 0.0, 0.0))
    trace = simulate(params, _nxtway_lqr(), cfg)
    assert not trace.diverged
    assert trace.integ is not None
    assert abs(trace.x[-1, 0] - 1.0) < 1e-3
    assert abs(trace.x[-1, 1]) < 1e-3


def test_divergence_halts_with_flag():
    params = default_params("rotpen")
    destabilizing = _gain_only_design([0.0, -1e4, 0.0, 0.0])
    cfg = SimConfig(duration=5.0, controller_Ts=0.002, x0=(0.0, 0.01, 0.0, 0.0),
                    saturation_V=1e6)
    trace = simulate(params, destabilizing, cfg)
    assert trace.diverged
    assert len(trace.t) < 30
    assert np.all(np.isfinite(trace.x))


def test_saturation_invariant():
    params = default_params("rotpen")
    cfg = SimConfig(duration=1.0, controller_Ts=0.002, x0=(0.0, 0.2, 0.0, 0.0))
    trace = simulate(params, _rotpen_lqr(), cfg)
    assert np.abs(trace.u_applied).max() <= params.V_max + 1e-15
    assert np.abs(trace.u_command).max() > params.V_max  # the clamp was active
    np.testing.assert_array_equal(
        trace.u_applied, np.clip(trace.u_command, -params.V_max, params.V_max))
    assert [saturate(u, params.V_max) for u in trace.u_command] == \
        trace.u_applied.tolist()


def test_recorded_smc_rows_equal_the_control_law():
    params = default_params("nxtway")
    design = _nxtway_smc()
    for layer in (0.0, 2.0):
        cfg = SimConfig(duration=2.0, controller_Ts=0.004,
                        x0=(0.0, 0.05, 0.0, 0.0), boundary_layer=layer)
        trace = simulate(params, design, cfg)
        if layer > 0.0:
            assert np.any(np.abs(trace.s) < layer)  # the layer branch ran
        for k in range(trace.t.size):
            assert smc_control_law(design, trace.x[k], layer) == \
                (trace.u_command[k], trace.s[k])


def test_recorded_filtered_lqr_rows_equal_the_control_law():
    params = default_params("nxtway")
    design = _nxtway_lqr()
    Ts, cutoff, reference = 0.004, 30.0, (0.1, 0.0, 0.0, 0.0)
    cfg = SimConfig(duration=2.0, controller_Ts=Ts, x0=(0.0, 0.05, 0.0, 0.0),
                    reference=reference, measurement="filtered-derivative",
                    filter_cutoff=cutoff)
    trace = simulate(params, design, cfg)
    rate1 = filtered_derivative(trace.x[:, 0], Ts, cutoff)
    rate2 = filtered_derivative(trace.x[:, 1], Ts, cutoff)
    for k in range(trace.t.size):
        measured = [trace.x[k, 0], trace.x[k, 1], rate1[k], rate2[k]]
        assert lqr_control_law(design, measured, integ=trace.integ[k],
                               reference=reference) == trace.u_command[k]


def test_rk4_order_by_step_halving():
    params = default_params("rotpen")
    quiet = _gain_only_design([0.0, 0.0, 0.0, 0.0])
    finals = []
    for dt in (0.01, 0.005, 0.0025):
        cfg = SimConfig(duration=1.0, controller_Ts=0.05, plant_dt=dt,
                        x0=(0.0, 2.6, 0.0, 0.0))
        trace = simulate(params, quiet, cfg)
        finals.append(trace.x[-1])
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    assert 10.0 < e1 / e2 < 24.0


def test_measurement_filtering_keeps_loop_stable():
    params = default_params("rotpen")
    base = dict(duration=3.0, controller_Ts=0.002, x0=(0.0, 0.05, 0.0, 0.0))
    ideal = simulate(params, _rotpen_lqr(), SimConfig(**base))
    filtered = simulate(params, _rotpen_lqr(),
                        SimConfig(**base, measurement="filtered-derivative",
                                  filter_cutoff=30.0))
    assert not filtered.diverged
    assert abs(filtered.x[-1, 1]) < 0.005
    # the reconstructed velocities leave a measurable imprint
    assert np.abs(filtered.x[:, 1] - ideal.x[:, 1]).max() > 1e-5


def test_smc_reaching_law_on_sampled_linear_model():
    ss = discretize_zoh(nxtway_statespace_closed_form(default_params("nxtway")), 0.004)
    design = design_smc(ss, alpha=100.0, k=5e-7)
    assert not design.k_exceeds_bound
    assert np.all(np.abs(design.surface_eigs) < 1.0)

    Bd = ss.B.sum(axis=1)
    rate = ss.Ts * design.alpha / math.sqrt(2.0)
    x = np.array([0.1, 0.05, 0.0, 0.0])
    s_prev = float(design.L @ x)
    checked = 0
    for _ in range(500):
        u, s = smc_control_law(design, x)
        x = ss.A @ x + Bd * u
        s_next = float(design.L @ x)
        if abs(s) > 1e-6:
            delta_v = 0.5 * (s_next ** 2 - s ** 2)
            assert delta_v <= -rate * abs(s) + 1e-12
            checked += 1
        assert np.abs(x).max() < 10.0
        s_prev = s_next
    assert checked >= 1


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def test_trace_csv_layout_and_roundtrip(tmp_path):
    params = default_params("rotpen")
    cfg = SimConfig(duration=0.02, controller_Ts=0.002, x0=(0.0, 0.03, 0.0, 0.0))
    design = _rotpen_lqr()
    trace = simulate(params, design, cfg)
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q1,q2,q1dot,q2dot,u_cmd,u_applied,dist"
    assert len(lines) == len(trace.t) + 1

    fields = [float(v) for v in lines[3].split(",")]
    k = 2
    assert fields[0] == trace.t[k]
    assert fields[1:5] == [trace.x[k, 0], trace.x[k, 1], trace.x[k, 2], trace.x[k, 3]]
    assert fields[5] == trace.u_command[k]

    # the recorded command equals the published control law on the record
    u = lqr_control_law(design, trace.x[k])
    assert u == trace.u_command[k]


def test_trace_csv_optional_columns(tmp_path):
    nxt = default_params("nxtway")
    cfg = SimConfig(duration=0.04, controller_Ts=0.004, x0=(0.0, 0.02, 0.0, 0.0))

    smc_trace = simulate(nxt, _nxtway_smc(), cfg)
    p1 = tmp_path / "smc.csv"
    save_trace_csv(smc_trace, p1)
    assert p1.read_text().splitlines()[0] == \
        "t,q1,q2,q1dot,q2dot,u_cmd,u_applied,dist,s"

    lqr_trace = simulate(nxt, _nxtway_lqr(), cfg)
    p2 = tmp_path / "lqr.csv"
    save_trace_csv(lqr_trace, p2)
    assert p2.read_text().splitlines()[0] == \
        "t,q1,q2,q1dot,q2dot,u_cmd,u_applied,dist,integ"


def test_repeated_runs_are_byte_identical(tmp_path):
    params = default_params("nxtway")
    cfg = SimConfig(duration=6.0, controller_Ts=0.004, x0=(0.0, 0.04, 0.0, 0.0),
                    disturbance=DisturbanceSpec(kind="pulse_train", amplitude=5.0,
                                                frequency=0.2, start_time=1.0))
    paths = []
    for name in ("a.csv", "b.csv"):
        trace = simulate(params, _nxtway_smc(), cfg)
        p = tmp_path / name
        save_trace_csv(trace, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
