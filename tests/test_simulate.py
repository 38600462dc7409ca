"""Tests for the closed-loop simulator.

Recorded commands are asserted equal to the control laws and the
derivative filter written out here, applied to the recorded states; RK4
order four is confirmed by step halving and against the exact
zero-order-hold model in the small-signal limit, and the discrete reaching
law is exercised on the sampled linear model with a manual update loop so
the check does not depend on the integrator under test.
"""

import ctypes
import dataclasses
import decimal
import errno
import functools
import inspect
import io
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import tracemalloc

import numpy as np
import pytest

from pendulum_ctl.linearize import (
    closed_form,
    discretize_zoh,
    jacobian_linearize,
    nxtway_statespace_closed_form,
    rotpen_statespace_closed_form,
)
from pendulum_ctl import cli
from pendulum_ctl import matrixfile as matrixfile_module
from pendulum_ctl import plants as plants_module
from pendulum_ctl import simulate as simulate_module
from pendulum_ctl.plants import (
    default_params,
    params_from_mapping,
    scalar_rhs,
    tick_loop,
)
from pendulum_ctl.simulate import (
    DisturbanceSpec,
    SimConfig,
    SimTrace,
    check_plant_step,
    disturbance_value,
    save_trace_csv,
    simulate,
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
    with pytest.raises(ValueError, match="unknown disturbance kind 'sine'"):
        DisturbanceSpec(kind="sine")
    with pytest.raises(ValueError, match="amplitude must be non-negative"):
        DisturbanceSpec(kind="pulse_train", amplitude=-1.0, frequency=0.1)
    with pytest.raises(ValueError, match="frequency must be positive"):
        DisturbanceSpec(kind="pulse_train", amplitude=1.0, frequency=0.0)
    with pytest.raises(ValueError, match=r"duty cycle must lie in \[0, 1\]"):
        DisturbanceSpec(kind="pulse_train", amplitude=1.0, frequency=0.1, duty=1.5)
    for name in ("amplitude", "frequency", "start_time", "duty"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                DisturbanceSpec(kind="pulse_train", **{
                    "amplitude": 1.0, "frequency": 0.1, name: bad})


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


def _pulse_formula(spec, t):
    """The disturbance at one time, in plain float arithmetic."""
    if spec.kind != "pulse_train" or t < spec.start_time or spec.amplitude == 0.0:
        return 0.0
    period = 1.0 / spec.frequency
    return spec.amplitude if (t - spec.start_time) % period < spec.duty * period else 0.0


def test_disturbance_column_equals_the_scalar_formula_bit_for_bit():
    # simulate computes the disturbance of every tick at once, at t = k Ts;
    # each value must be the float formula's, bit for bit
    cases = [(standard_pulse_train(default_params(p).V_max), Ts, 120.0)
             for p, Ts in (("rotpen", 0.002), ("nxtway", 0.004))]
    cases += [(DisturbanceSpec(), 0.002, 10.0),
              (DisturbanceSpec(kind="none", amplitude=3.0), 0.004, 10.0)]
    rng = np.random.default_rng(20)
    for i in range(80):
        Ts = float(rng.choice([0.002, 0.004, 0.01, 0.024]))
        n = int(rng.integers(1, 4000))
        duty = [0.0, 1.0, 0.5, float(rng.random())][i % 4]
        # every fifth train starts beyond the run's end; half start on a tick
        # and have a whole number of ticks per period, so edges fall on ticks
        on_grid = i % 2 == 0
        start = (Ts * n * (1.0 + rng.random()) if i % 5 == 0
                 else Ts * int(rng.integers(0, n)) if on_grid
                 else float(rng.random() * Ts * n))
        frequency = (1.0 / (Ts * 2 * int(rng.integers(1, 200))) if on_grid
                     else float(10.0 ** rng.uniform(-2, 2)))
        cases.append((DisturbanceSpec(kind="pulse_train",
                                      amplitude=float(rng.choice([0.0, rng.random() * 10])),
                                      frequency=frequency, start_time=start, duty=duty),
                      Ts, Ts * n))
    for spec, Ts, duration in cases:
        n = round(duration / Ts)
        t = np.arange(n + 1, dtype=float)
        t *= Ts  # as simulate builds its time column
        want = np.array([_pulse_formula(spec, k * Ts) for k in range(n + 1)])
        got = disturbance_value(spec, t)
        assert got.tobytes() == want.tobytes(), spec
        scalar = disturbance_value(spec, (n // 2) * Ts)
        assert type(scalar) is float and scalar == want[n // 2]
    # the runs above cover both levels and the edges between them
    assert all(np.unique(disturbance_value(spec, np.arange(60001) * 0.002)).size == 2
               for spec, *_ in cases[:2])


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------

def test_sim_config_defaults_and_validation():
    cfg = SimConfig(duration=1.0, controller_Ts=0.004)
    assert cfg.plant_dt == pytest.approx(0.001)
    assert cfg.measurement == "ideal"
    assert cfg.x0 == (0.0, 0.0, 0.0, 0.0)

    with pytest.raises(ValueError, match="duration must be a positive number"):
        SimConfig(duration=0.0, controller_Ts=0.004)
    with pytest.raises(ValueError, match="plant_dt must not exceed controller_Ts"):
        SimConfig(duration=1.0, controller_Ts=0.004, plant_dt=0.008)
    with pytest.raises(ValueError, match="controller_Ts must be an integer multiple of plant_dt"):
        SimConfig(duration=1.0, controller_Ts=0.004, plant_dt=0.003)
    with pytest.raises(ValueError, match="x0 must have 4 entries"):
        SimConfig(duration=1.0, controller_Ts=0.004, x0=(1.0, 2.0))
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        SimConfig(duration=1.0, controller_Ts=0.004, x0=(0.0, math.nan, 0.0, 0.0))
    # an x0 beyond the divergence limit would run no tick; a far reference is
    # a run that diverges
    with pytest.raises(ValueError, match=r"x0 entries must lie within .*\+-1000$"):
        SimConfig(duration=1.0, controller_Ts=0.004, x0=(0.0, 0.0, -1000.5, 0.0))
    assert SimConfig(duration=1.0, controller_Ts=0.004, x0=(1e3, 0.0, 0.0, -1e3),
                     reference=(2e3, 0.0, 0.0, 0.0)).x0 == (1e3, 0.0, 0.0, -1e3)
    with pytest.raises(ValueError, match="unknown measurement mode 'noisy'"):
        SimConfig(duration=1.0, controller_Ts=0.004, measurement="noisy")
    with pytest.raises(ValueError, match="saturation_V must be positive"):
        SimConfig(duration=1.0, controller_Ts=0.004, saturation_V=-2.0)
    for name in ("saturation_V", "filter_cutoff", "boundary_layer"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be .* finite"):
                SimConfig(duration=1.0, controller_Ts=0.004, **{name: bad})

    # the run length is a whole number of controller periods, never rounded
    for duration, Ts in ((0.005, 0.002), (1.5, 1.0)):
        with pytest.raises(ValueError, match="integer multiple of controller_Ts"):
            SimConfig(duration=duration, controller_Ts=Ts)
    for duration, Ts in ((0.2, 0.002), (120.0, 0.002), (88.0, 0.004)):
        assert SimConfig(duration=duration, controller_Ts=Ts).duration == duration

    # counting the periods must not overflow
    for kwargs, name in (({"duration": 1e308}, "duration"),
                         ({"controller_Ts": 1e-320}, "duration"),
                         ({"plant_dt": 1e-320}, "plant_dt")):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{"duration": 1.0, "controller_Ts": 0.004, **kwargs})

    # one run takes at most 10^7 RK4 steps; the paper run takes 240,000
    for kwargs, name in (({"duration": 1e9}, "duration"),
                         ({"duration": 10.0, "plant_dt": 1e-8}, "plant_dt"),
                         ({"duration": 1e5, "plant_dt": 1e-8}, "duration"),
                         ({"duration": 10000.004}, "duration"),
                         ({"duration": 5000.0, "plant_dt": 0.0004}, "plant_dt")):
        with pytest.raises(ValueError, match=f"^{name}: .* exceed the limit"):
            SimConfig(**{"controller_Ts": 0.004, **kwargs})
    assert SimConfig(duration=40.0, controller_Ts=0.004, plant_dt=0.0004).duration == 40.0
    assert SimConfig(duration=10000.0, controller_Ts=0.004).duration == 10000.0

    # under filtered-derivative the cutoff lies below the Nyquist rate, 125 Hz
    # at 4 ms; an ideal-measurement run never uses it, so it is not checked
    filtered = dict(duration=1.0, controller_Ts=0.004, measurement="filtered-derivative")
    for cutoff in (125.0, 1e308):
        with pytest.raises(ValueError, match="filter_cutoff"):
            SimConfig(filter_cutoff=cutoff, **filtered)
    assert SimConfig(filter_cutoff=124.9, **filtered).filter_cutoff == 124.9
    assert SimConfig(duration=1.0, controller_Ts=0.04).filter_cutoff == 30.0


def test_plant_step_beyond_rk4_stability_is_refused():
    # nxtway's upright mode at -511.458 rad/s keeps RK4 stable up to
    # 2.7853 / 511.458 s: Ts = 21.6 ms runs at its default plant_dt of Ts / 4,
    # and Ts = 22 ms is refused, by the check and by simulate
    params = default_params("nxtway")
    check_plant_step(params, 0.0216 / 4)
    with pytest.raises(ValueError, match=r"^plant_dt = 0\.0055 s .* mode at -511\.458 "
                                         r"rad/s; the largest stable step is 5\.4458e-03 s$"):
        check_plant_step(params, 0.022 / 4)
    # the bisection starts at |z| = 3, beyond which no step is stable
    with pytest.raises(ValueError, match=r"largest stable step is 5\.4458e-03 s$"):
        check_plant_step(params, 1e150)
    with pytest.raises(ValueError, match="^plant_dt = 0.0055 s"):
        simulate(params, reference_lqr_design("nxtway"),
                 SimConfig(duration=0.22, controller_Ts=0.022))


def test_sim_trace_validation():
    with pytest.raises(ValueError):
        SimTrace(t=[0.0, 1.0], x=np.zeros((3, 4)), u_command=[0.0, 0.0],
                 u_applied=[0.0, 0.0], d=[0.0, 0.0])
    # a state history of 3 or 5 columns wrote rows that the CSV header does
    # not name, and compute_metrics raised IndexError on width 3
    for width in (3, 5):
        with pytest.raises(ValueError, match="state history"):
            SimTrace(t=[0.0, 1.0], x=np.zeros((2, width)), u_command=[0.0, 0.0],
                     u_applied=[0.0, 0.0], d=[0.0, 0.0])
    with pytest.raises(ValueError):
        SimTrace(t=[0.0, 0.0], x=np.zeros((2, 4)), u_command=[0.0, 0.0],
                 u_applied=[0.0, 0.0], d=[0.0, 0.0])


# ---------------------------------------------------------------------------
# control laws and the derivative filter, written out
# ---------------------------------------------------------------------------

def _lqr_formula(design, e, integ=0.0):
    """u = -K e - Ki integ on the error e = measured state - reference."""
    k1, k2, k3, k4 = design.K[0].tolist()
    u = -(k1 * e[0] + k2 * e[1] + k3 * e[2] + k4 * e[3])
    return u if design.Ki is None else u - design.Ki * integ


def _smc_formula(design, e, layer=0.0):
    """(u, s) with u = -Keq e - k sign(s), s = L e and sign(0) = 0; s / layer inside |s| < layer."""
    l1, l2, l3, l4 = design.L.tolist()
    k1, k2, k3, k4 = design.Keq.tolist()
    s = l1 * e[0] + l2 * e[1] + l3 * e[2] + l4 * e[3]
    sign = s / layer if abs(s) < layer else (math.copysign(1.0, s) if s else 0.0)
    return -(k1 * e[0] + k2 * e[1] + k3 * e[2] + k4 * e[3]) - design.k * sign, s


def _oracle_derivative_filter(Ts, cutoff_hz):
    """Backward differences through the bilinear-mapped first-order low-pass, one sample a call."""
    om = 2.0 * math.pi * cutoff_hz
    c = 2.0 / Ts
    fa, fg = (c - om) / (c + om), om / (c + om)
    prev = None
    praw = y = 0.0

    def step(x):
        nonlocal prev, praw, y
        if prev is not None:
            raw = (x - prev) / Ts
            y = fa * y + fg * (raw + praw)
            praw = raw
        prev = x
        return y

    return step


def _first_rows(design, x0, **settings):
    """The two rows of a nxtway run of one 4 ms controller period from x0."""
    cfg = SimConfig(duration=0.004, controller_Ts=0.004, x0=x0, **settings)
    return simulate(default_params("nxtway"), design, cfg)


def _toy_smc():
    """s = q2dot and no equivalent control, so u = -20 sign(q2dot)."""
    return SmcDesign(L=[0.0, 0.0, 0.0, 1.0], Keq=np.zeros(4), k=20.0, Ts=0.004,
                     alpha=100.0, surface_eigs=np.zeros(3))


def test_lqr_control_law_basics():
    d = _gain_only_design([1.0, 2.0, 3.0, 4.0])
    assert _first_rows(d, (0.0, 0.0, 0.0, 0.0)).u_command[0] == 0.0
    assert _first_rows(d, (1.0, 0.0, 0.0, 0.0)).u_command[0] == -1.0
    assert _first_rows(d, (1.0, 0.0, 0.0, 0.0),
                       reference=(1.0, 0.0, 0.0, 0.0)).u_command[0] == 0.0


def test_lqr_control_law_reference_gains():
    d = reference_lqr_design("nxtway")
    assert _first_rows(d, (0.0, 1.0, 0.0, 0.0)).u_command[0] == pytest.approx(69.4743, abs=1e-9)
    # the integral of q1 - q1_ref after one tick from q1 = 0.5 is 0.5 Ts, and
    # it enters as -Ki * integ
    trace = _first_rows(d, (0.5, 1.0, 0.0, 0.0))
    assert trace.integ.tolist() == [0.0, 0.5 * 0.004]
    assert trace.u_command[1] == _lqr_formula(d, trace.x[1], trace.integ[1])
    assert trace.u_command[1] - _lqr_formula(d, trace.x[1]) == \
        pytest.approx(-d.Ki * 0.002, abs=1e-12)


def test_smc_control_law_switching():
    trace = _first_rows(_toy_smc(), (0.0, 0.0, 0.0, 0.5))
    assert trace.s[0] == 0.5 and trace.u_command[0] == -20.0
    trace = _first_rows(_toy_smc(), (0.0, 0.0, 0.0, 0.0))
    assert trace.s[0] == 0.0 and trace.u_command[0] == 0.0  # sign(0) = 0


def test_smc_control_law_boundary_layer():
    trace = _first_rows(_toy_smc(), (0.0, 0.0, 0.0, 0.05), boundary_layer=0.1)
    assert trace.s[0] == pytest.approx(0.05)
    assert trace.u_command[0] == pytest.approx(-20.0 * 0.5)  # linear inside the layer
    trace = _first_rows(_toy_smc(), (0.0, 0.0, 0.0, 0.5), boundary_layer=0.1)
    assert trace.u_command[0] == -20.0  # full switching outside


def _rate_of_q1(Ts, cutoff_hz, q1_0, q1dot_0, seconds):
    """Trace whose commands are the controller's q1dot estimate, on an arm that coasts.

    Without friction or back EMF, and with the pole upright at rest, the arm
    turns at its initial rate; an actuator limit of 1e-300 V keeps the
    commands from driving it, and the gain row [0, 0, -1, 0] makes each
    command the velocity estimate itself.
    """
    params = dataclasses.replace(default_params("rotpen"), f_r=0.0, K_m=0.0)
    cfg = SimConfig(duration=seconds, controller_Ts=Ts, x0=(q1_0, 0.0, q1dot_0, 0.0),
                    saturation_V=1e-300, measurement="filtered-derivative",
                    filter_cutoff=cutoff_hz)
    return simulate(params, _gain_only_design([0.0, 0.0, -1.0, 0.0]), cfg)


def test_filtered_derivative_constant_and_ramp():
    # the estimate is zero on the first sample and on a constant, and has
    # unity gain on a constant slope
    const = _rate_of_q1(0.01, 5.0, 0.7, 0.0, 2.0)
    assert np.all(const.x[:, 0] == 0.7)
    np.testing.assert_allclose(const.u_command, 0.0, atol=1e-15)

    ramp = _rate_of_q1(0.01, 5.0, 0.0, 2.5, 4.0)
    np.testing.assert_allclose(np.diff(ramp.x[:, 0]), 2.5 * 0.01, rtol=1e-12)
    assert ramp.u_command[0] == 0.0
    assert ramp.u_command[-1] == pytest.approx(2.5, abs=1e-6)
    rate = _oracle_derivative_filter(0.01, 5.0)
    assert [rate(q1) for q1 in ramp.x[:, 0].tolist()] == ramp.u_command.tolist()


def test_filtered_derivative_attenuates_high_frequency():
    # the written-out filter, which the recorded rows follow bit for bit
    # (the tests above and below), passes a 50 Hz tone 20 dB below its
    # derivative at a 5 Hz cutoff, within 3 dB
    Ts, cutoff, f = 1e-3, 5.0, 50.0
    rate = _oracle_derivative_filter(Ts, cutoff)
    out = np.array([rate(x) for x in np.sin(2 * math.pi * f * np.arange(0.0, 1.0, Ts))])
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
    sat = params.V_max
    assert [-sat if u < -sat else (sat if u > sat else u) for u in trace.u_command] == \
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
            assert _smc_formula(design, trace.x[k], layer) == \
                (trace.u_command[k], trace.s[k])


def test_recorded_filtered_lqr_rows_equal_the_control_law():
    params = default_params("nxtway")
    design = _nxtway_lqr()
    Ts, cutoff, reference = 0.004, 30.0, (0.1, 0.0, 0.0, 0.0)
    cfg = SimConfig(duration=2.0, controller_Ts=Ts, x0=(0.0, 0.05, 0.0, 0.0),
                    reference=reference, measurement="filtered-derivative",
                    filter_cutoff=cutoff)
    trace = simulate(params, design, cfg)
    rate1 = _oracle_derivative_filter(Ts, cutoff)
    rate2 = _oracle_derivative_filter(Ts, cutoff)
    for k in range(trace.t.size):
        measured = [trace.x[k, 0], trace.x[k, 1], rate1(trace.x[k, 0]), rate2(trace.x[k, 1])]
        e = [m - r for m, r in zip(measured, reference)]
        assert _lqr_formula(design, e, trace.integ[k]) == trace.u_command[k]


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


@pytest.mark.parametrize("measurement", ["ideal", "filtered-derivative"])
@pytest.mark.parametrize("platform, controller", [
    ("rotpen", "lqr"), ("rotpen", "smc"), ("nxtway", "lqr"), ("nxtway", "smc")])
def test_negating_x0_negates_the_run_bit_for_bit(platform, controller, measurement):
    # both plants and both laws are odd in the state and the input, and
    # rounding is symmetric under negation
    design = {("rotpen", "lqr"): _rotpen_lqr, ("rotpen", "smc"): _rotpen_smc,
              ("nxtway", "lqr"): _nxtway_lqr, ("nxtway", "smc"): _nxtway_smc}[
        platform, controller]()
    up, down = [simulate(default_params(platform), design, SimConfig(
        duration=3.0, controller_Ts=0.002 if platform == "rotpen" else 0.004,
        x0=(sign * 0.01, sign * 0.05, sign * -0.02, sign * 0.1), measurement=measurement))
        for sign in (1.0, -1.0)]
    assert not up.diverged and up.t.size == down.t.size
    for name in ("x", "u_command", "u_applied", "s", "integ"):
        a, b = getattr(up, name), getattr(down, name)
        assert (a is None) == (b is None), name
        if name == "integ" and a is not None:  # both integrals start at +0.0
            a, b = a[1:], b[1:]
        if a is not None:
            assert (-a).tobytes() == b.tobytes(), name


def _zoh_error(platform, sub):
    """Max |x - x_zoh| / max |x_zoh| of 3 s of nominal LQR from q2 = 1e-7.

    x_zoh is the exact zero-order-hold model of the closed form under the
    same law, x[k+1] = Ad x[k] + Bd u[k] with u[k] = -K x[k] - Ki integ[k],
    a path that shares no code with the RK4 kernels.
    """
    params = default_params(platform)
    design = _rotpen_lqr() if platform == "rotpen" else _nxtway_lqr()
    Ts = 0.002 if platform == "rotpen" else 0.004
    x = simulate(params, design, SimConfig(duration=3.0, controller_Ts=Ts, plant_dt=Ts / sub,
                                           x0=(0.0, 1e-7, 0.0, 0.0))).x
    zoh = discretize_zoh(closed_form(params), Ts)
    Bd = zoh.B.sum(axis=1)  # the same voltage on each motor
    K, Ki = design.K[0], design.Ki or 0.0
    lin = np.empty_like(x)
    lin[0] = x[0]
    integ = 0.0
    for k in range(len(x) - 1):
        u = -(K @ lin[k]) - Ki * integ
        integ += lin[k, 0] * Ts
        lin[k + 1] = zoh.A @ lin[k] + Bd * u
    return np.abs(x - lin).max() / np.abs(lin).max()


def test_small_signal_runs_match_the_exact_zoh_model():
    assert _zoh_error("rotpen", 4) <= 1e-10
    # nxtway's back-EMF mode at -511.5 rad/s takes |lambda| dt = 0.51 at the
    # default plant_dt of Ts / 4; halving it cuts the error by about 2^4
    coarse, fine = _zoh_error("nxtway", 4), _zoh_error("nxtway", 8)
    assert coarse <= 3e-4
    assert coarse / fine >= 12.0


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
        u, s = _smc_formula(design, x)
        x = ss.A @ x + Bd * u
        s_next = float(design.L @ x)
        if abs(s) > 1e-6:
            delta_v = 0.5 * (s_next ** 2 - s ** 2)
            assert delta_v <= -rate * abs(s) + 1e-12
            checked += 1
        assert np.abs(x).max() < 10.0
        s_prev = s_next
    assert checked >= 1


@pytest.mark.parametrize("k", [None, 5e-7])
@pytest.mark.parametrize("platform, closed_form, Ts", [
    ("rotpen", rotpen_statespace_closed_form, 0.002),
    ("nxtway", nxtway_statespace_closed_form, 0.004)])
def test_smc_reaches_and_keeps_the_quasi_sliding_band(platform, closed_form, Ts, k):
    # the test above checks the reaching decrement only while |s| > 1e-6, so
    # with k = 5e-7 it sees a single step; here, from seeded states with
    # |s0| >> k, s must land on -k sign(s0) in one step (L Bd = 1, Keq = L Ad)
    # and stay in the quasi-sliding band |s| <= k for the rest of the run
    # (Gao, Wang & Homaifa, IEEE TIE 42(2), 1995), up to rounding
    ss = discretize_zoh(closed_form(default_params(platform)), Ts)
    design = design_smc(ss, alpha=100.0, k=k)
    Bd = ss.B.sum(axis=1)
    assert float(design.L @ Bd) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(design.Keq, design.L @ ss.A)

    rng = np.random.default_rng(20)
    for _ in range(10):
        x = rng.normal(size=4)
        x *= (100.0 + 1000.0 * rng.random()) * design.k / abs(float(design.L @ x))
        s_start = float(design.L @ x)
        for step in range(400):
            u, s = _smc_formula(design, x)
            # rounding of the cancelling products L Ad x and L Bd u
            slack = 1e-13 * (1.0 + float(np.abs(design.L) @ np.abs(ss.A) @ np.abs(x)))
            x = ss.A @ x + Bd * u
            s_next = float(design.L @ x)
            if step == 0:
                assert abs(s_next + design.k * math.copysign(1.0, s_start)) <= slack
            assert abs(s_next) <= design.k + slack


# ---------------------------------------------------------------------------
# the rest skip against the tick-by-tick loop
# ---------------------------------------------------------------------------

def _oracle_rhs(params):
    """The five-argument f(q1, q2, q1dot, q2dot, v) -> state rates the loop used to call."""
    p = params
    if params.platform == "rotpen":
        a, b, c, l2 = p.mass_constants
        gam = p.gamma
        kmkg = p.K_m * p.K_g
        fr, fp = p.f_r, p.f_p
        halfmpg = 0.5 * p.m_p * p.L_p * p.g
        ngb, nb, l2x2, gb = -gam * b, -b, 2 * l2, gam * b

        def f(x1, x2, x3, x4, v):
            s = math.sin(x2)
            co = math.cos(x2)
            m11 = gam * (a + l2 * s * s)
            m12 = ngb * co
            m21 = nb * co
            m22 = c
            r1 = v - (gam * (l2x2 * s * co * x4 + fr) + kmkg) * x3 \
                - (gb * s * x4) * x4
            r2 = l2 * s * co * x3 * x3 - fp * x4 + halfmpg * s
            det = m11 * m22 - m12 * m21
            return x3, x4, (m22 * r1 - m12 * r2) / det, (m11 * r2 - m21 * r1) / det

        return f

    n2Jm, pw, rb = p.mass_constants
    al, be = p.alpha, p.beta
    MLR = p.M * p.L * p.R
    MgL = p.M * p.g * p.L
    m11, m22 = pw / al, -rb / al
    m11m22 = m11 * m22
    c11, c21 = 2 * (be + p.f_w) / al, 2 * be / al
    nbe2, n2Jm2 = -2 * be, 2 * n2Jm

    def f(x1, x2, x3, x4, v):
        s = math.sin(x2)
        co = math.cos(x2)
        q0 = MLR * co - n2Jm2
        m12 = q0 / al
        m21 = -q0 / al
        w = 2 * v
        r1 = w - c11 * x3 - ((nbe2 - MLR * x4 * s) / al) * x4
        r2 = w - c21 * x3 + c21 * x4 - MgL * s / al
        det = m11m22 - m12 * m21
        return x3, x4, (m22 * r1 - m12 * r2) / det, (m11 * r2 - m21 * r1) / det

    return f


def _oracle_rk4_step(f, x, v, dt):
    x1, x2, x3, x4 = x
    a1, a2, a3, a4 = f(x1, x2, x3, x4, v)
    h = 0.5 * dt
    b1, b2, b3, b4 = f(x1 + h * a1, x2 + h * a2, x3 + h * a3, x4 + h * a4, v)
    c1, c2, c3, c4 = f(x1 + h * b1, x2 + h * b2, x3 + h * b3, x4 + h * b4, v)
    d1, d2, d3, d4 = f(x1 + dt * c1, x2 + dt * c2, x3 + dt * c3, x4 + dt * c4, v)
    w = dt / 6.0
    return (x1 + w * (a1 + 2 * b1 + 2 * c1 + d1),
            x2 + w * (a2 + 2 * b2 + 2 * c2 + d2),
            x3 + w * (a3 + 2 * b3 + 2 * c3 + d3),
            x4 + w * (a4 + 2 * b4 + 2 * c4 + d4))


def _oracle_simulate(params, design, cfg):
    """simulate as a plain tick-by-tick loop: every tick computed, none copied."""
    f = _oracle_rhs(params)
    sat = params.V_max if cfg.saturation_V is None else cfg.saturation_V
    is_smc = isinstance(design, SmcDesign)
    ki = None if is_smc else design.Ki
    Ts, dt = cfg.controller_Ts, cfg.plant_dt
    sub, n = round(Ts / dt), round(cfg.duration / Ts)
    r1, r2, r3, r4 = cfg.reference
    use_filter = cfg.measurement == "filtered-derivative"
    rate1 = _oracle_derivative_filter(Ts, cfg.filter_cutoff)
    rate2 = _oracle_derivative_filter(Ts, cfg.filter_cutoff)
    rows, s_rows, i_rows = [], [], []
    x1, x2, x3, x4 = cfg.x0
    integ = 0.0
    diverged = False
    for k in range(n + 1):
        if not all(abs(v) <= 1e3 for v in (x1, x2, x3, x4)):
            diverged = True
            break
        t = k * Ts
        if use_filter:
            e1, e2, e3, e4 = x1 - r1, x2 - r2, rate1(x1) - r3, rate2(x2) - r4
        else:
            e1, e2, e3, e4 = x1 - r1, x2 - r2, x3 - r3, x4 - r4
        if is_smc:
            u, s = _smc_formula(design, (e1, e2, e3, e4), cfg.boundary_layer)
        else:
            u, s = _lqr_formula(design, (e1, e2, e3, e4), integ), None
        s_rows.append(s)
        i_rows.append(integ)
        ua = -sat if u < -sat else (sat if u > sat else u)
        d = _pulse_formula(cfg.disturbance, t)
        rows.append((t, x1, x2, x3, x4, u, ua, d))
        if ki is not None:
            integ += e1 * Ts
        if k < n:
            xs = (x1, x2, x3, x4)
            for _ in range(sub):
                xs = _oracle_rk4_step(f, xs, ua + d, dt)
            x1, x2, x3, x4 = xs
    cols = np.array(rows).T
    return SimTrace(t=cols[0], x=cols[1:5].T, u_command=cols[5], u_applied=cols[6],
                    d=cols[7], s=s_rows if is_smc else None,
                    integ=i_rows if ki is not None else None, diverged=diverged)


def _rotpen_smc():
    ss = discretize_zoh(rotpen_statespace_closed_form(default_params("rotpen")), 0.002)
    return design_smc(ss, alpha=100.0)


_PULSE = DisturbanceSpec(kind="pulse_train", amplitude=2.0, frequency=0.5,
                         start_time=1.0)
_ORACLE_CASES = {
    # platform, design, SimConfig settings
    "paper-rotpen-lqr": ("rotpen", _rotpen_lqr, dict(duration=62.0, controller_Ts=0.002)),
    "paper-rotpen-smc": ("rotpen", _rotpen_smc, dict(duration=62.0, controller_Ts=0.002)),
    "paper-nxtway-lqr": ("nxtway", _nxtway_lqr, dict(duration=62.0, controller_Ts=0.004)),
    "paper-nxtway-smc": ("nxtway", _nxtway_smc, dict(duration=62.0, controller_Ts=0.004)),
    "negative-zero-x0": ("rotpen", _rotpen_lqr, dict(
        duration=3.0, controller_Ts=0.002, disturbance=_PULSE,
        x0=(-0.0, -0.0, 0.0, -0.0))),
    "negative-zero-x0-smc": ("nxtway", _nxtway_smc, dict(
        duration=3.0, controller_Ts=0.004, disturbance=_PULSE,
        x0=(0.0, -0.0, -0.0, -0.0))),
    "filtered-from-rest": ("nxtway", _nxtway_lqr, dict(
        duration=3.0, controller_Ts=0.004, disturbance=_PULSE,
        measurement="filtered-derivative")),
    "filtered-from-rest-smc": ("rotpen", _rotpen_smc, dict(
        duration=3.0, controller_Ts=0.002, disturbance=_PULSE,
        measurement="filtered-derivative")),
    "integral-reference": ("nxtway", _nxtway_lqr, dict(
        duration=3.0, controller_Ts=0.004, reference=(0.1, 0.0, 0.0, 0.0))),
    # no proportional action on q1, so only the integral moves at first
    "integral-alone-moves": ("nxtway", lambda: _gain_only_design(
        [0.0, *_nxtway_lqr().K[0, 1:]], Ki=_nxtway_lqr().Ki), dict(
        duration=3.0, controller_Ts=0.004, reference=(0.1, 0.0, 0.0, 0.0))),
    "ends-at-rest": ("rotpen", _rotpen_lqr, dict(duration=2.0, controller_Ts=0.002)),
    "no-disturbance": ("nxtway", _nxtway_smc, dict(
        duration=2.0, controller_Ts=0.004, disturbance=DisturbanceSpec())),
    "pulse-from-zero": ("rotpen", _rotpen_lqr, dict(
        duration=3.0, controller_Ts=0.002, disturbance=DisturbanceSpec(
            kind="pulse_train", amplitude=2.0, frequency=0.5, start_time=0.0))),
    "boundary-layer": ("nxtway", _nxtway_smc, dict(
        duration=3.0, controller_Ts=0.004, disturbance=_PULSE, boundary_layer=2.0)),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_rest_skip_matches_tick_by_tick_loop(case):
    platform, make_design, settings = _ORACLE_CASES[case]
    params = default_params(platform)
    if "disturbance" not in settings:  # the paper's pulse train, from 60 s
        settings = dict(settings, disturbance=standard_pulse_train(params.V_max))
    cfg = SimConfig(**settings)
    design = make_design()
    got = simulate(params, design, cfg)
    want = _oracle_simulate(params, design, cfg)
    assert got.diverged == want.diverged
    for name in ("t", "x", "u_command", "u_applied", "d", "s", "integ"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name


def test_scalar_rhs_matches_the_five_argument_form_bit_for_bit():
    rng = np.random.default_rng(11)
    for platform in ("rotpen", "nxtway"):
        params = default_params(platform)
        f, g = scalar_rhs(params), _oracle_rhs(params)
        # mostly full-scale entries: a reassociated product differs in ~1% of them
        for _ in range(8000):
            x = rng.normal(scale=2.0, size=4) * rng.choice([0.0, 1e-300, 1e-6] + [1.0] * 5, 4)
            x1, x2, x3, x4 = (-x).tolist() if rng.random() < 0.5 else x.tolist()
            v = float(rng.normal(scale=3.0))
            assert np.array(f(x2, x3, x4, v)).tobytes() == \
                np.array(g(x1, x2, x3, x4, v)[2:]).tobytes()


def _oracle_advance(f, dt, steps):
    """advance(q1, q2, q1dot, q2dot, v) as steps RK4 steps over an accelerations-only f."""
    h = 0.5 * dt
    w = dt / 6.0

    def advance(x1, x2, x3, x4, v):
        for _ in range(steps):
            a3, a4 = f(x2, x3, x4, v)
            b1, b2 = x3 + h * a3, x4 + h * a4
            b3, b4 = f(x2 + h * x4, b1, b2, v)
            c1, c2 = x3 + h * b3, x4 + h * b4
            c3, c4 = f(x2 + h * b2, c1, c2, v)
            d1, d2 = x3 + dt * c3, x4 + dt * c4
            d3, d4 = f(x2 + dt * c2, d1, d2, v)
            x1, x2, x3, x4 = (x1 + w * (x3 + 2.0 * b1 + 2.0 * c1 + d1),
                              x2 + w * (x4 + 2.0 * b2 + 2.0 * c2 + d2),
                              x3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
                              x4 + w * (a4 + 2.0 * b4 + 2.0 * c4 + d4))
        return x1, x2, x3, x4

    return advance


def _outcome(advance, x, v):
    """The result's bytes, or the exception a state too large for sin raises."""
    try:
        return struct.pack("4d", *advance(*x, v))
    except ValueError as exc:
        return repr(exc)


def _scaled_params(base, rng):
    """base with every field scaled by 0.8..1.2; the efficiencies stay at most 1."""
    values = {f.name: getattr(base, f.name) * rng.uniform(0.8, 1.2)
              for f in dataclasses.fields(base)}
    for name in ("eta_g", "eta_m"):
        if name in values:
            values[name] = min(values[name], 1.0)
    return params_from_mapping(base.platform, values)


@pytest.mark.parametrize("kernel", ["native", "python"])
@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_the_run_kernels_step_rk4_over_scalar_rhs_bit_for_bit(tmp_path, platform, kernel):
    # with zero gains u_applied is a signed zero, so each period steps the
    # plant under v = u_applied + dist: every stored row must be the RK4
    # oracle's state from the row before, and a run may end diverged only
    # where the oracle's period raises or ends beyond 1e3. Factory
    # parameters and four sets with every field scaled by 0.8..1.2; states
    # mix signed zeros, subnormals and |x| up to 1e3 (the slow sin path)
    native = None
    if kernel == "native":
        _native_or_skip(platform, tmp_path)
        native = plants_module._native_library(platform)
    rng = np.random.default_rng(23 if platform == "rotpen" else 29)
    base = default_params(platform)
    param_sets = [base] + [_scaled_params(base, rng) for _ in range(4)]
    special = [0.0, -0.0, 1e-310, -1e-310]
    settings = _loop_settings(k1=0.0, k2=0.0, k3=0.0, k4=0.0)
    periods = ends = 0
    for params in param_sets:
        for steps in (1, 4, 20):
            dt = 0.002 / steps
            want = _oracle_advance(scalar_rhs(params), dt, steps)
            for _ in range(50):
                x0 = (rng.uniform(-1.0, 1.0, size=4) * rng.choice([1e-3, 1.0, 30.0, 1e3], 4)).tolist()
                for i in range(4):
                    if rng.random() < 0.2:
                        x0[i] = special[rng.integers(len(special))]
                dist = [[0.0, -0.0, float(rng.normal(scale=5.0))][rng.integers(3)]
                        for _ in range(4)]
                table, k, _, diverged = plants_module._runner(params, dt, steps, dist, settings,
                                                              x0, native)
                rows, ua = table[:4].T.tolist(), table[5].tolist()
                assert struct.pack("4d", *rows[0]) == struct.pack("4d", *x0) and not any(ua[:k])
                for j in range(1, k):
                    got = struct.pack("4d", *rows[j])
                    assert got == _outcome(want, rows[j - 1], ua[j - 1] + dist[j - 1]), (steps, x0)
                assert diverged == (k < 4)
                if diverged:
                    end = _outcome(want, rows[k - 1], ua[k - 1] + dist[k - 1])
                    assert isinstance(end, str) or max(map(abs, struct.unpack("4d", end))) > 1e3
                periods, ends = periods + k - 1, ends + diverged
    assert periods > 1500 and ends > 0


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_generated_kernels_show_source_lines_in_tracebacks(platform):
    params = default_params(platform)
    constants = plants_module._DYNAMICS[platform][0](params)
    run = plants_module._kernel_factory(platform, "run")(**constants, dt=0.001, steps=2)
    # a run whose dist column is None fails at the tick's read of it
    settings = [float(_loop_settings()[name]) for name in plants_module._SETTINGS]
    kernels = [(run, (settings, [None] * 8, 1, 0, 1, (0.0,) * len(plants_module._CARRY)), "run"),
               (scalar_rhs(params), (0.1, 0.0, 0.0, None), "rhs")]
    for kernel, args, kind in kernels:
        with pytest.raises(TypeError) as info:
            kernel(*args)
        frame = traceback.extract_tb(info.tb)[-1]
        assert frame.filename == f"<pendulum_ctl.plants: {platform} {kind}>"
        assert frame.line and frame.line in inspect.getsource(kernel)


def test_kernels_compile_lazily_and_once_per_platform_and_kind():
    code = ("import pendulum_ctl.cli; from pendulum_ctl import plants, simulate; "
            "print(plants._kernel_factory.cache_info().currsize, "
            "simulate._formatter.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    # importing compiles no kernel and builds or loads no trace formatter
    assert out.stdout.strip() == "0 0", out.stderr
    # the run kernel: one compile per platform, by the Python loop or the probe
    for platform in ("rotpen", "nxtway"):
        tick_loop(default_params(platform), 0.001, 2, [0.0] * 2, _loop_settings(), (0.0,) * 4)
    misses = plants_module._kernel_factory.cache_info().misses
    cfg = SimConfig(duration=0.04, controller_Ts=0.004, plant_dt=0.0005,
                    x0=(0.0, 0.05, 0.0, 0.0))
    simulate(default_params("nxtway"), _nxtway_lqr(), cfg)
    simulate(params_from_mapping("rotpen", {"m_p": 0.13}), _rotpen_lqr(), cfg)
    assert plants_module._kernel_factory.cache_info().misses == misses
    # the Jacobian differentiates the rhs kernel: one compile per platform
    for platform in ("rotpen", "nxtway"):
        jacobian_linearize(default_params(platform))
    misses = plants_module._kernel_factory.cache_info().misses
    jacobian_linearize(params_from_mapping("rotpen", {"m_p": 0.13, "L_p": 0.3}))
    jacobian_linearize(params_from_mapping("nxtway", {"M": 0.55}))
    assert plants_module._kernel_factory.cache_info().misses == misses


@pytest.mark.parametrize("kernel", ["native", "python"])
def test_rest_skip_engages_on_the_paper_run(tmp_path, monkeypatch, kernel):
    if kernel == "native":
        _native_or_skip("rotpen", tmp_path)
    else:
        _python_only(monkeypatch)
    runs, start = [], plants_module._start

    def counted(*args):
        table, advance = start(*args)
        ends = []
        runs.append(ends)

        def advanced(stop):
            ends.append(advance(stop))
            return ends[-1]
        return table, advanced

    monkeypatch.setattr(plants_module, "_start", counted)
    params = default_params("rotpen")
    cfg = SimConfig(duration=120.0, controller_Ts=0.002,
                    disturbance=standard_pulse_train(params.V_max))
    trace = simulate(params, _rotpen_lqr(), cfg)
    ticks = trace.t.size
    assert ticks == 60001 and not trace.diverged
    assert len(runs) == 1  # an untraced run is one run, in slices
    (ends,) = runs
    # the first slice copies the rest up to the first pulse, at row 30000;
    # every later one ends a slice past the row it started from, or at the end
    rows = [0] + [k for k, _, _ in ends]
    assert rows[1] == 30000 and rows[-1] == ticks
    assert all(k == min(j + plants_module._SLICE, ticks) or k > j + plants_module._SLICE
               for j, k in zip(rows[1:], rows[2:]))
    periods = ends[-1][1][plants_module._CARRY.index("periods")]
    assert 0 < periods <= 0.51 * ticks  # one period per tick advanced


def test_a_run_at_rest_allocates_little_beyond_its_trace():
    # every tick after the first is copied in one slice assignment; numpy
    # buffers a source that overlaps its destination at the destination's
    # size, which would take the run from 81 to 128 bytes per tick
    params = default_params("rotpen")
    for design in (_rotpen_lqr(), _rotpen_smc()):
        simulate(params, design, SimConfig(duration=0.004, controller_Ts=0.002))  # compile
        tracemalloc.start()
        try:
            trace = simulate(params, design, SimConfig(duration=100.0, controller_Ts=0.002))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the time column, the table's 7 (LQR) or 8 (SMC) rows and
        # SimTrace's check of the time column: 73 or 81 bytes per tick
        assert peak < 100 * trace.t.size


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

    # the recorded command equals the control law on the record
    assert _lqr_formula(design, trace.x[k]) == trace.u_command[k]


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


def _per_row_csv(trace, cols, arrays):
    """The writer's output as one repr per cell and one line per row."""
    lines = [",".join(cols)]
    for i in range(trace.t.size):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
    return "\n".join(lines) + "\n"


def _reference_csv(trace):
    """A trace's CSV bytes as _per_row_csv writes them, s or integ last when present."""
    cols = ["t", "q1", "q2", "q1dot", "q2dot", "u_cmd", "u_applied", "dist"]
    arrays = [trace.t, *trace.x.T, trace.u_command, trace.u_applied, trace.d]
    for name in ("s", "integ"):
        if getattr(trace, name) is not None:
            cols.append(name)
            arrays.append(getattr(trace, name))
    return _per_row_csv(trace, cols, arrays).encode()


_B = simulate_module._CSV_BLOCK


# the formatters a trace can be written with: the C one (where cc is at
# hand; else this too is the Python template) and the Python template
_FORMATTERS = ("native", "python")
_FORMATTER = simulate_module._formatter


def _use_formatter(monkeypatch, formatter):
    """Write traces with the C formatter where cc is at hand ("native"), or in Python."""
    monkeypatch.setattr(simulate_module, "_formatter",
                        _FORMATTER if formatter == "native" else lambda: None)


@pytest.mark.parametrize("extra", ["s", "integ"])
@pytest.mark.parametrize("rows", [1, _B - 1, _B, _B + 1, 2 * _B + 1, 3 * _B + 1, 4 * _B,
                                  6 * _B + 1])
def test_trace_csv_matches_per_row_writer(tmp_path, monkeypatch, extra, rows):
    # block boundaries at one row, one short of a block, a whole block,
    # one past it, past two and three blocks, and at four; at 6B + 1 rows
    # the first 4B rows are zeros (but the first). Written by the C and by
    # the Python formatter
    rng = np.random.default_rng(rows)
    values = rng.normal(scale=3.0, size=(rows, 8))
    if rows == 6 * _B + 1:
        values[:4 * _B] = 0.0
    special = [-0.0, 1e-05, 1e16, 5e-324, 1 / 3, -1e-300, 123456789.0, math.inf, -math.inf,
               math.nan, -math.nan]
    n = min(len(special), values.size)
    values.flat[:n] = special[:n]  # first and last rows
    values.flat[-n:] = special[-n:]
    t = np.arange(rows) * 0.002
    trace = SimTrace(t=t, x=values[:, 0:4], u_command=values[:, 4],
                     u_applied=values[:, 5], d=values[:, 6],
                     **{extra: values[:, 7]})
    path = tmp_path / "trace.csv"
    cols = ["t", "q1", "q2", "q1dot", "q2dot", "u_cmd", "u_applied", "dist", extra]
    want = _per_row_csv(trace, cols, [t, *values.T]).encode()
    assert b"inf,-inf,nan,nan" in want
    for formatter in _FORMATTERS:
        _use_formatter(monkeypatch, formatter)
        save_trace_csv(trace, path)
        assert path.read_bytes() == want, formatter


_DESIGNS = {("rotpen", "lqr"): _rotpen_lqr, ("rotpen", "smc"): _rotpen_smc,
            ("nxtway", "lqr"): _nxtway_lqr, ("nxtway", "smc"): _nxtway_smc}


def _pulse_run(platform, controller, rows, measurement="ideal", x0=(0.0, 0.05, 0.0, 0.0),
               pulse_tick=200):
    """(params, design, cfg) of a run of rows rows with a pulse from pulse_tick."""
    Ts = 0.002 if platform == "rotpen" else 0.004
    pulse = DisturbanceSpec(kind="pulse_train", amplitude=2.0, frequency=2.0,
                            start_time=pulse_tick * Ts)
    cfg = SimConfig(duration=(rows - 1) * Ts, controller_Ts=Ts, x0=x0,
                    disturbance=pulse, measurement=measurement)
    return default_params(platform), _DESIGNS[platform, controller](), cfg


def _pulse_trace(platform, controller, rows, **run):
    """The trace of _pulse_run's run, written nowhere."""
    return simulate(*_pulse_run(platform, controller, rows, **run))


@pytest.mark.parametrize("rows", [2, _B, _B + 1, 3 * _B + 1])
@pytest.mark.parametrize("measurement", ["ideal", "filtered-derivative"])
@pytest.mark.parametrize("platform, controller", sorted(_DESIGNS))
def test_a_traced_run_writes_the_per_row_reference(tmp_path, platform, controller,
                                                   measurement, rows):
    # one row is never a run (it lasts one period at least). Under ideal
    # measurement the run rests until a pulse at tick 1250, so rest copies
    # cross block boundaries; filtered runs start off the upright
    x0, tick = ((0.0, 0.0, 0.0, 0.0), 1250) if measurement == "ideal" else \
        ((0.0, 0.05, 0.0, 0.0), 200)
    params, design, cfg = _pulse_run(platform, controller, rows, measurement, x0, tick)
    path = tmp_path / "trace.csv"
    trace = simulate(params, design, cfg)
    save_trace_csv(trace, path)
    assert trace.t.size == rows and not trace.diverged
    assert path.read_bytes() == _reference_csv(trace)


def _assert_written_alone(trace, path):
    """The file holds the per-row reference of trace, and no child process is left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert path.read_bytes() == _reference_csv(trace)


# a trace already at the path, which a failed write must leave as it was
_OLD_TRACE = b"t,q1\n0.0,0.25\n"


def _assert_alone_and_kept(path, old):
    """path holds the bytes old (None: no file), no .part file is left
    beside it, and no child process is left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (path.read_bytes() if path.exists() else None) == old
    assert [p.name for p in path.parent.iterdir()] == ([] if old is None else [path.name])


def _counted_forks(monkeypatch):
    """The pid of each os.fork call from now on."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _write_diverged_run(tmp_path, monkeypatch, arm_rate):
    """Run positive feedback on the arm rate from arm_rate, writing the trace with each formatter."""
    cfg = SimConfig(duration=20.0, controller_Ts=0.002, x0=(0.0, 0.0, arm_rate, 0.0),
                    saturation_V=1e6)
    path = tmp_path / "trace.csv"
    for formatter in _FORMATTERS:
        _use_formatter(monkeypatch, formatter)
        trace = simulate(default_params("rotpen"), _gain_only_design([0.0, 0.0, -1.0, 0.0]),
                         cfg)
        save_trace_csv(trace, path)
        assert trace.diverged
        _assert_written_alone(trace, path)
    return trace


def test_a_diverged_run_writes_its_truncated_trace(tmp_path, monkeypatch):
    # from an arm rate of 0.01 the run diverges after 1943 ticks, in the
    # second block
    trace = _write_diverged_run(tmp_path, monkeypatch, 0.01)
    assert _B < trace.t.size < 2 * _B


def test_a_diverged_run_past_two_blocks_writes_its_truncated_trace(tmp_path, monkeypatch):
    # from 1e-4 it diverges after 2285 ticks, in the third block
    trace = _write_diverged_run(tmp_path, monkeypatch, 1e-4)
    assert 2 * _B < trace.t.size < 3 * _B


@pytest.mark.parametrize("rows", [2, _B])
def test_a_trace_of_one_block_at_most_is_written_without_a_fork(tmp_path, monkeypatch, rows):
    # a run and its trace fork nothing; longer traces fork nothing either
    # (test_trace_writer_leaves_no_child_process)
    calls = _counted_forks(monkeypatch)
    params, design, cfg = _pulse_run("nxtway", "smc", rows)
    trace = simulate(params, design, cfg)
    save_trace_csv(trace, tmp_path / "trace.csv")
    save_trace_csv(simulate(params, design, cfg), tmp_path / "written.csv")
    assert len(calls) == 0
    for name in ("trace.csv", "written.csv"):
        _assert_written_alone(trace, tmp_path / name)


def _even_trace(rows):
    """A trace of rows rows whose cells are all non-zero."""
    values = np.random.default_rng(rows).uniform(1.0, 2.0, size=(rows, 7))
    return SimTrace(t=0.002 * np.arange(1, rows + 1), x=values[:, 0:4],
                    u_command=values[:, 4], u_applied=values[:, 5], d=values[:, 6])


@pytest.mark.parametrize("rows", [_B + 1, 3 * _B + 1])
def test_without_os_fork_a_long_trace_is_written_in_one_process(tmp_path, monkeypatch, rows):
    trace = _even_trace(rows)
    monkeypatch.delattr(os, "fork")
    path = tmp_path / "trace.csv"
    for formatter in _FORMATTERS:
        _use_formatter(monkeypatch, formatter)
        save_trace_csv(trace, path)
        _assert_written_alone(trace, path)


def test_trace_writer_leaves_no_child_process(tmp_path, monkeypatch):
    # a trace of several blocks is written while a second Python thread is
    # live, as it is in a process holding OpenBLAS workers: nothing forks
    forks = _counted_forks(monkeypatch)
    params, design, cfg = _pulse_run("rotpen", "lqr", 3 * _B + 1)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10.0,))
    waiter.start()
    try:
        for formatter in _FORMATTERS:
            _use_formatter(monkeypatch, formatter)
            trace = simulate(params, design, cfg)
            save_trace_csv(trace, tmp_path / "trace.csv")
            _assert_written_alone(trace, tmp_path / "trace.csv")
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    assert forks == []


def test_the_trace_writer_holds_one_block_in_memory(tmp_path, monkeypatch):
    # each block is formatted into one buffer (C) or one list of lines
    # (Python) and written before the next, so the memory the writer takes
    # does not grow with the rows
    traces = [_pulse_trace("rotpen", "smc", rows) for rows in (4 * _B + 1, 16 * _B + 1)]
    for formatter in _FORMATTERS:
        _use_formatter(monkeypatch, formatter)
        simulate_module._formatter()  # loaded before the measurement
        peaks = []
        for trace in traces:
            path = tmp_path / f"{formatter}-{trace.t.size}.csv"
            tracemalloc.start()
            try:
                save_trace_csv(trace, path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            _assert_written_alone(trace, path)
        # one block of 9 columns is about 0.2 MB of bytes and 0.4 MB of floats
        assert peaks[1] < peaks[0] + 64 * 1024, (formatter, peaks)


def test_an_exception_in_the_tick_loop_leaves_no_file(tmp_path, monkeypatch):
    def fails(*args):
        raise RuntimeError("tick loop failed")

    monkeypatch.setattr(simulate_module, "tick_loop", fails)
    params, design, cfg = _pulse_run("nxtway", "lqr", 3 * _B + 1, pulse_tick=0)
    path = tmp_path / "trace.csv"
    with pytest.raises(RuntimeError, match="tick loop failed"):
        save_trace_csv(simulate(params, design, cfg), path)
    with pytest.raises(RuntimeError, match="tick loop failed"):
        simulate(params, design, cfg, path)
    assert not path.exists()


def _full_disk_at(monkeypatch, failing, error=lambda: OSError(errno.ENOSPC,
                                                              os.strerror(errno.ENOSPC))):
    """Make the trace file's write number failing (the header's is 1) raise error(),
    ENOSPC unless given.

    Returns the size of each write, then that of the file when it failed.
    """
    sizes = []

    def full_disk(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        write = fh.write

        def fills(data):
            sizes.append(len(data))
            if len(sizes) == failing:
                fh.flush()
                sizes.append(os.path.getsize(file))
                raise error()
            return write(data)

        fh.write = fills
        return fh

    monkeypatch.setattr(matrixfile_module, "open", full_disk, raising=False)
    return sizes


@pytest.mark.parametrize("formatter", _FORMATTERS)
def test_a_full_disk_leaves_no_partial_file(tmp_path, monkeypatch, formatter):
    # the second block's write fails after the header and the first block
    # reached the file: the error propagates, the new file is removed and
    # closed (the fixtures check that no descriptor is left), and a trace
    # already at the path is kept
    _use_formatter(monkeypatch, formatter)
    trace = _pulse_trace("rotpen", "lqr", 3 * _B + 1)
    path = tmp_path / "trace.csv"
    for old in (None, _OLD_TRACE):
        if old is not None:
            path.write_bytes(old)
        sizes = _full_disk_at(monkeypatch, 3)
        with pytest.raises(OSError, match="No space left on device"):
            save_trace_csv(trace, path)
        assert sizes[-1] == sizes[0] + sizes[1] > 0  # a partial file existed
        _assert_alone_and_kept(path, old)


def test_a_failed_first_block_write_removes_the_file(tmp_path, monkeypatch):
    # the first block fails to reach the file after the header: the new
    # file is removed, a trace already at the path is kept, and no process
    # is left (one process writes the trace)
    trace = _pulse_trace("rotpen", "smc", 3 * _B + 1)
    path = tmp_path / "trace.csv"
    for formatter in _FORMATTERS:
        _use_formatter(monkeypatch, formatter)
        for old in (None, _OLD_TRACE):
            if old is not None:
                path.write_bytes(old)
            sizes = _full_disk_at(monkeypatch, 2)
            with pytest.raises(OSError, match="No space left on device"):
                save_trace_csv(trace, path)
            assert sizes[-1] == sizes[0] > 0  # the header was written
            _assert_alone_and_kept(path, old)
        path.unlink()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_while_formatting_removes_the_file(tmp_path, monkeypatch, error):
    # the error comes while the second block is formatted, by the C
    # formatter where cc is at hand and by the Python template; an
    # interrupt is no Exception, and must remove the new file all the same
    # and keep a trace already at the path
    trace = _pulse_trace("nxtway", "lqr", 3 * _B + 1)
    native, write_blocks = _FORMATTER(), simulate_module._write_blocks
    path = tmp_path / "trace.csv"
    for formatter in _FORMATTERS:
        for old in (None, _OLD_TRACE):
            if old is not None:
                path.write_bytes(old)
            calls = []
            if formatter == "native" and native is not None:
                def fails(*args):
                    calls.append(args[2:4])
                    if len(calls) == 2:
                        raise error("formatting failed")
                    return native(*args)

                monkeypatch.setattr(simulate_module, "_formatter", lambda: fails)
            else:
                def fails(fh, columns, counts):
                    calls.append((0, *counts))
                    write_blocks(fh, columns, [_B])
                    raise error("formatting failed")

                _use_formatter(monkeypatch, "python")
                monkeypatch.setattr(simulate_module, "_write_blocks", fails)
            with pytest.raises(error, match="formatting failed"):
                save_trace_csv(trace, path)
            assert calls[0][0] == 0 and len(calls) == (2 if calls[0][1] == _B else 1)
            _assert_alone_and_kept(path, old)
            monkeypatch.setattr(simulate_module, "_write_blocks", write_blocks)
        path.unlink()


def _streamed_run(case):
    """(params, design, cfg) of a run that simulate writes as it runs, by case: a paper run
    "platform-controller", a filtered-derivative run, a paper run that diverges mid-way,
    or a run from beyond the divergence limit."""
    if case == "filtered":
        return _pulse_run("rotpen", "smc", 3 * _B + 1, "filtered-derivative")
    platform, controller = ("nxtway", "lqr") if case in ("diverges", "beyond") else \
        case.split("-")
    params = default_params(platform)
    cfg = SimConfig(duration=120.0, controller_Ts=0.002 if platform == "rotpen" else 0.004,
                    disturbance=standard_pulse_train(params.V_max),
                    x0=(0.0, 1.4, 0.0, 0.0) if case == "diverges" else (0.0,) * 4)
    if case == "beyond":  # SimConfig refuses such an x0: set past it, the run stores no row
        object.__setattr__(cfg, "x0", (0.0, 2e3, 0.0, 0.0))
    return params, _DESIGNS[platform, controller](), cfg


@pytest.mark.parametrize("kernel", ["native", "python"])
@pytest.mark.parametrize("case", ["rotpen-lqr", "rotpen-smc", "nxtway-lqr", "nxtway-smc",
                                  "filtered", "diverges", "beyond"])
def test_a_run_writes_its_trace_while_it_runs(tmp_path, monkeypatch, case, kernel):
    # simulate with a trace path writes the bytes save_trace_csv writes for
    # the trace simulate returns without one, and returns that trace; its
    # worker thread has ended when it returns
    params, design, cfg = _streamed_run(case)
    if kernel == "native":
        _native_or_skip(params.platform, tmp_path)
    else:
        _python_only(monkeypatch)
    threads = threading.active_count()
    streamed = simulate(params, design, cfg, tmp_path / "streamed.csv")
    assert threading.active_count() == threads
    trace = simulate(params, design, cfg)
    save_trace_csv(trace, tmp_path / "saved.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "saved.csv").read_bytes()
    for name in ("t", "x", "u_command", "u_applied", "d", "s", "integ"):
        a, b = getattr(streamed, name), getattr(trace, name)
        assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes()), name
    assert streamed.diverged == trace.diverged == (case in ("diverges", "beyond"))
    rows = {"diverges": 12840, "beyond": 0, "filtered": 3 * _B + 1}.get(case)
    assert trace.t.size == (rows if rows is not None else round(120.0 / cfg.controller_Ts) + 1)
    if case == "beyond":
        header = "t,q1,q2,q1dot,q2dot,u_cmd,u_applied,dist,integ\n"  # the header alone
        assert (tmp_path / "streamed.csv").read_text() == header


@pytest.mark.parametrize("kernel", ["native", "python"])
@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_a_write_that_fails_while_the_run_runs_keeps_the_old_file(tmp_path, monkeypatch, error,
                                                                  kernel):
    # the second block's write fails while the worker runs the loop on: the
    # error propagates from simulate, the new file is removed, a trace
    # already at the path is kept and the worker has been joined
    params, design, cfg = _streamed_run("rotpen-lqr")
    if kernel == "native":
        _native_or_skip("rotpen", tmp_path)
    else:
        _python_only(monkeypatch)
    path = tmp_path / "trace.csv"
    threads = threading.active_count()
    for old in (None, _OLD_TRACE):
        if old is not None:
            path.write_bytes(old)
        sizes = _full_disk_at(monkeypatch, 3, lambda: error("the write failed"))
        with pytest.raises(error, match="the write failed"):
            simulate(params, design, cfg, path)
        assert sizes[-1] == sizes[0] + sizes[1] > 0  # a partial file existed
        _assert_alone_and_kept(path, old)
        assert threading.active_count() == threads


@pytest.mark.parametrize("kernel", ["native", "python"])
def test_an_exception_in_a_slice_reaches_the_caller_and_keeps_the_old_file(tmp_path, monkeypatch,
                                                                         kernel):
    # the worker meets the error in the run's third slice: simulate raises
    # it, after the writer removed the new file and the worker ended
    params, design, cfg = _streamed_run("nxtway-smc")
    if kernel == "native":
        _native_or_skip("nxtway", tmp_path)
    else:
        _python_only(monkeypatch)
    start = plants_module._start

    def failing(*args):
        table, advance = start(*args)
        slices = []

        def advanced(stop):
            slices.append(stop)
            if len(slices) == 3:
                raise RuntimeError("the slice failed")
            return advance(stop)
        return table, advanced

    monkeypatch.setattr(plants_module, "_start", failing)
    path = tmp_path / "trace.csv"
    threads = threading.active_count()
    for old in (None, _OLD_TRACE):
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(RuntimeError, match="the slice failed"):
            simulate(params, design, cfg, path)
        _assert_alone_and_kept(path, old)
        assert threading.active_count() == threads
    with pytest.raises(RuntimeError, match="the slice failed"):
        simulate(params, design, cfg)


def _buffer_floats(column):
    """The number of floats in the buffer that a trace column views."""
    base = column
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base.size


@pytest.mark.parametrize("platform, controller, rows", [
    ("rotpen", "lqr", 8), ("rotpen", "smc", 9), ("nxtway", "lqr", 9), ("nxtway", "smc", 9)])
def test_the_table_holds_one_row_per_csv_column(platform, controller, rows):
    # an LQR design without Ki records neither s nor the integral; the
    # times, the first of the rows CSV columns, are the trace's own array
    for length in (_B, 3 * _B + 1):
        trace = simulate(*_pulse_run(platform, controller, length))
        assert _buffer_floats(trace.t) == length
        for column in (trace.x, trace.u_command, trace.u_applied, trace.d, trace.s, trace.integ):
            if column is not None:
                assert _buffer_floats(column) == (rows - 1) * length


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


# ---------------------------------------------------------------------------
# the native tick loop
# ---------------------------------------------------------------------------

_NO_CC = "no C compiler (cc) on PATH: the tick loop runs in Python"


def _native_or_skip(platform, tmp_path):
    """Skip without cc; where cc exists, fail unless the tick loop is native, naming why."""
    if plants_module._native_library(platform) is not None:
        return
    if shutil.which("cc") is None:
        pytest.skip(_NO_CC)
    pytest.fail(f"cc is on PATH, yet the {platform} tick loop is not native: "
                f"{_why_not_native(platform, tmp_path)}")


def _why_not_native(platform, tmp_path):
    """The compiler's stderr, the load error or the first probe run that differs."""
    so_file = str(tmp_path / f"{platform}.so")
    try:
        plants_module._build(plants_module._c_source(platform), so_file)
        run = plants_module._load(so_file, "run", plants_module._RUN_SIGNATURE)
    except subprocess.CalledProcessError as error:
        return f"the compile failed:\n{error.stderr.decode()}"
    except (OSError, AttributeError) as error:  # no object, or no run symbol in it
        return f"the load failed: {error}"
    mismatch = plants_module._probe_mismatch(platform, run)
    if mismatch is not None:
        return f"{mismatch} differs in C from the Python loop"
    return "it builds, loads and matches every probe run here, so the kernel cache failed"


def _fresh_native(monkeypatch, cache_home):
    """Make _native_library start over, with its cache under cache_home."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    fresh = functools.cache(plants_module._native_library.__wrapped__)
    monkeypatch.setattr(plants_module, "_native_library", fresh)
    return fresh


def _own_object(platform):
    """The file name of this source's tick-<platform> object in the kernel cache."""
    key = plants_module._cache_key(f"tick-{platform}", plants_module._GENERATOR)
    return f"tick-{platform}-{key}.so"


def _loop_name(platform):
    """The tick loop platform runs: native or python."""
    return "python" if plants_module._native_library(platform) is None else "native"


def _python_only(monkeypatch):
    monkeypatch.setattr(plants_module, "_native_library", lambda platform: None)


def _short_run_bytes(tmp_path, name):
    """Trace CSV bytes of a rotpen SMC and a nxtway LQR run of 3 blocks and a row."""
    out = []
    for platform, controller in (("rotpen", "smc"), ("nxtway", "lqr")):
        params, design, cfg = _pulse_run(platform, controller, 3 * _B + 1)
        path = tmp_path / f"{name}-{platform}.csv"
        save_trace_csv(simulate(params, design, cfg), path)
        out.append(path.read_bytes())
    return out


def _loop_outcome(platform, native, settings, x0, dist):
    """Rows, row reached, carried state bits and flag of a tick loop run over dist.

    native None runs the Python loop.
    """
    table, k, carry, diverged = plants_module._runner(default_params(platform), 0.0005, 4, dist,
                                                      settings, x0, native)
    return table.tobytes(), k, struct.pack(f"{len(carry)}d", *carry), diverged


def _carried(carry):
    """The carried state bits of a _loop_outcome as floats by their _CARRY names."""
    return dict(zip(plants_module._CARRY, struct.unpack(f"{len(carry) // 8}d", carry),
                    strict=True))


def _carries_its_last_row(outcome, rows):
    """Whether the outcome of a run of rows rows carries its last stored row's state, finite."""
    table, k, carry, _ = outcome
    last = np.frombuffer(table).reshape(-1, rows)[:4, k - 1]
    carried = _carried(carry)
    state = struct.pack("4d", *(carried[f"x{i}"] for i in range(1, 5)))
    return struct.pack("4d", *last) == state and all(map(math.isfinite, carried.values()))


def _loop_settings(**changed):
    """The probe runs' settings: an LQR law without Ki under ideal measurement."""
    return {**plants_module._PROBE_SETTINGS, "smc": 0.0, "integral": 0.0, "filtered": 0.0,
            "eps": 0.0, **changed}


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_the_tick_loop_is_native_where_cc_exists(tmp_path, monkeypatch, platform):
    _native_or_skip(platform, tmp_path)
    assert _loop_name(platform) == "native"
    kernels, start = [], plants_module._start

    def recorded(*args):
        kernels.append(args[-1])
        return start(*args)

    monkeypatch.setattr(plants_module, "_start", recorded)
    table, run = tick_loop(default_params(platform), 0.0005, 4, [0.0] * 3, _loop_settings(),
                           (0.0, 0.0, 0.0, 0.0))
    assert table.shape == (7, 3) and list(run) == [(3, False)]
    assert kernels == [plants_module._native_library(platform)]


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_a_period_that_leaves_the_floats_ends_both_loops_at_its_row(tmp_path, platform):
    # where Python raises (sin of an infinity) C runs on in infinities and
    # NaNs; the divergence test after the period ends the run in either
    # loop. The run ends diverged after the pulse's first row, row 3, with
    # that row's own finite state carried
    _native_or_skip(platform, tmp_path)
    native = plants_module._native_library(platform)
    for pulse in (math.inf, -math.inf, math.nan, 1e300, 1e200, -1e308, 1e12):
        dist = [0.0] * 3 + [pulse] * 5
        want, got = (_loop_outcome(platform, n, _loop_settings(), (0.0, 0.1, 0.0, 0.0), dist)
                     for n in (None, native))
        assert got == want, pulse
        assert want[1] == 4 and want[3] is True
        assert _carries_its_last_row(want, len(dist)), pulse


def _zero_determinant(monkeypatch):
    """Make every nxtway constant 0 but al: m12 = 0 and det = 0, so the solve divides by zero."""
    constants, stage = plants_module._DYNAMICS["nxtway"]
    zeros = dict.fromkeys(constants(default_params("nxtway")), 0.0)
    zeros["al"] = 1.0
    monkeypatch.setitem(plants_module._DYNAMICS, "nxtway", (lambda p: zeros, stage))


def test_a_zero_determinant_ends_the_run_diverged_in_both_loops(tmp_path, monkeypatch):
    # Python raises ZeroDivisionError in the first period and C divides
    # into infinities and NaNs: either loop ends the run after row 0,
    # carrying its state, and nothing is raised
    _native_or_skip("nxtway", tmp_path)
    native = plants_module._native_library("nxtway")
    _zero_determinant(monkeypatch)
    want, got = (_loop_outcome("nxtway", n, _loop_settings(), (0.0, 0.1, 0.0, 0.0), [0.0] * 4)
                 for n in (None, native))
    assert got == want
    assert want[1] == 1 and want[3] is True
    assert _carries_its_last_row(want, 4)


@pytest.mark.parametrize("kernel", ["native", "python"])
def test_a_zero_determinant_exits_3_from_the_cli(tmp_path, monkeypatch, capsys, kernel):
    if kernel == "native":
        _native_or_skip("nxtway", tmp_path)
    else:
        _python_only(monkeypatch)
    _zero_determinant(monkeypatch)
    code = cli.run(["simulate", "--platform", "nxtway", "--duration", "0.04",
                    "--trace", str(tmp_path / "trace.csv"),
                    "--metrics", str(tmp_path / "metrics.csv")])
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert "did not stabilize" in err
    assert (tmp_path / "trace.csv").read_text().count("\n") == 2  # the header and row 0


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_a_name_added_to_the_carried_state_needs_no_other_edit(monkeypatch, platform):
    # _runner starts the carried state from _CARRY by name and the run
    # kernel unpacks and returns _CARRY, so a new carried name (a counter,
    # say) starts at 0.0 and leaves the run and the other names as they were
    args = (default_params(platform), 0.0005, 4, [0.0] * 4 + [2.0] * 4,
            _loop_settings(filtered=1.0), (0.0, 0.1, 0.0, 0.0), None)
    table, k, carry, diverged = plants_module._runner(*args)
    monkeypatch.setattr(plants_module, "_CARRY", plants_module._CARRY + ("spare",))
    plants_module._kernel_factory.cache_clear()
    try:
        result = plants_module._runner(*args)
    finally:
        plants_module._kernel_factory.cache_clear()
    assert (k, diverged) == (8, False)
    assert result[0].tobytes() == table.tobytes()
    assert result[1:] == (k, carry + (0.0,), diverged)


_SPECIAL = (0.0, -0.0, 5e-324, -1e-310)


def _random_loop_case(rng):
    """(settings, x0, dist) of a random design, state, measurement and pulse."""
    smc = float(rng.random() < 0.5)
    settings = dict(
        zip(("k1", "k2", "k3", "k4", "l1", "l2", "l3", "l4"),
            (rng.normal(size=8) * [1.0, 30.0, 2.0, 5.0, 1.0, 10.0, 1.0, 1.0]).tolist()),
        Ts=0.002, kk=rng.uniform(0.0, 3.0), kint=float(rng.normal()),
        eps=[0.0, float(rng.uniform(0.0, 2.0))][rng.integers(2)], sat=rng.uniform(0.5, 10.0),
        fa=rng.uniform(-1.0, 1.0), fg=rng.uniform(0.0, 1.0), smc=smc,
        integral=0.0 if smc else float(rng.random() < 0.5), filtered=float(rng.random() < 0.5))
    at_rest = rng.random() < 0.3
    settings.update(zip(("r1", "r2", "r3", "r4"),
                        [0.0] * 4 if at_rest else rng.normal(scale=0.01, size=4).tolist()))
    if at_rest:
        x0 = [_SPECIAL[rng.integers(2)]] * 4
    else:
        x0 = (rng.normal(size=4) * rng.choice([1e-3, 1.0, 30.0, 1e3], 4)).tolist()
        for i in range(4):
            if rng.random() < 0.2:
                x0[i] = _SPECIAL[rng.integers(len(_SPECIAL))]
    rows = int(rng.integers(2, 48))
    dist = [0.0] * rows
    start, stop = sorted(rng.integers(0, rows + 1, size=2).tolist())
    dist[start:stop] = [float(rng.normal(scale=3.0))] * (stop - start)
    return settings, x0, dist


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_the_c_and_python_tick_loops_give_the_same_runs(tmp_path, platform):
    # seeded designs, states, measurements, boundary layers and pulses
    _native_or_skip(platform, tmp_path)
    native = plants_module._native_library(platform)
    rng = np.random.default_rng(31 if platform == "rotpen" else 37)
    cases = [_random_loop_case(rng) for _ in range(60)]
    cases += [
        (_loop_settings(), (0.0, 2e3, 0.0, 0.0), [0.0] * 8),  # beyond 1e3 at row 0
        (_loop_settings(), (999.9, 0.0, 100.0, 0.0), [0.0] * 8),  # beyond it at row 1
        (_loop_settings(filtered=1.0), (0.0, 0.1, 0.0, 0.0), [0.0, math.inf, 0.0]),
        # at exact rest with an integral that turns NaN (0 * inf) and that an
        # SMC law never reads: the rest test must fail, so every tick is
        # computed
        (_loop_settings(smc=1.0, integral=1.0, Ts=math.inf), (0.0,) * 4, [0.0] * 8),
    ]
    outcomes = []
    for case in cases:
        want, got = (_loop_outcome(platform, n, *case) for n in (None, native))
        assert got == want, case
        outcomes.append(want)
    # a run that diverges after a row carries that row's finite state; one
    # beyond 1e3 from x0 stores no row and carries x0
    ends = [_carries_its_last_row(o, len(c[2])) for o, c in zip(outcomes, cases) if o[3] and o[1]]
    assert len(ends) >= 2 and all(ends)
    carry = {**dict.fromkeys(plants_module._CARRY, 0.0), "x2": 2e3, "p2": 2e3}
    assert outcomes[-4][1:] == (0, struct.pack(f"{len(carry)}d", *carry.values()), True)
    assert outcomes[-3][1:] == (1, outcomes[-3][2], True)
    # the period raised ValueError (sin of an infinity) at row 1: diverged,
    # carrying the row's finite state
    assert outcomes[-2][1] == 2 and outcomes[-2][3] is True
    assert all(map(math.isfinite, _carried(outcomes[-2][2]).values()))
    assert _carried(outcomes[-1][2])["periods"] == 7.0  # 7 periods, none copied
    assert math.isnan(_carried(outcomes[-1][2])["integ"])
    # with a finite Ts the integral stays 0.0, and the run copies after one period
    at_rest = _loop_outcome(platform, None, _loop_settings(smc=1.0, integral=1.0), (0.0,) * 4,
                            [0.0] * 8)
    assert _carried(at_rest[2])["periods"] == 1.0
    assert sum(o[-1] is False and o[1] == len(c[2]) for o, c in zip(outcomes, cases)) > 20


@pytest.mark.parametrize("kernel", ["native", "python"])
@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_a_change_of_the_zeros_sign_alone_ends_a_rest_stretch(tmp_path, platform, kernel):
    # from exact rest a run copies its row while dist keeps its bits: a
    # column whose zero changes sign at row 8 costs one more period than a
    # constant one. From -0.0 the first period lands on +0.0, so it is not
    # at rest yet
    native = None
    if kernel == "native":
        _native_or_skip(platform, tmp_path)
        native = plants_module._native_library(platform)
    columns = (([0.0] * 8 + [-0.0] * 8, 1.0), ([-0.0] * 8 + [0.0] * 8, 1.0),
               ([0.0] * 16, 0.0), ([-0.0] * 16, 0.0))
    for dist, extra in columns:
        for zero, periods in ((0.0, 1.0), (-0.0, 2.0)):
            _, k, carry, diverged = _loop_outcome(platform, native, _loop_settings(),
                                                  (zero,) * 4, dist)
            assert (k, diverged) == (16, False)
            assert _carried(carry)["periods"] == periods + extra, (dist, zero)


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_the_probe_runs_cover_the_laws_saturation_a_pulse_edge_and_rest(platform):
    laws = plants_module._PROBE_LAWS
    assert {(smc, integral, filtered, eps > 0.0) for smc, integral, filtered, eps in laws} >= {
        (0.0, 0.0, 0.0, False), (0.0, 1.0, 1.0, False), (1.0, 0.0, 0.0, False),
        (1.0, 0.0, 1.0, True)}
    saturated = copied = edges = 0
    outcomes = plants_module._probe_outcomes(platform, None)
    # each run, whole and then resumed in slices: the Python loop resumes
    # bit for bit, so a C loop must give both to pass
    assert len(outcomes) == 2 * len(laws) and outcomes[1::2] == outcomes[::2]
    for (smc, integral, _, _), outcome in zip(laws, outcomes[::2]):
        table = np.frombuffer(outcome[0]).reshape(7 + int(smc or integral), 16)
        k, carry, diverged = outcome[1:]
        saturated += int(np.any(table[4, :k] != table[5, :k]))
        edges += int(k == 16)  # past the pulse edge at row 8
        periods = _carried(carry)["periods"]
        copied += int(not diverged and periods < k - 1)
    assert saturated and edges and copied
    # the slices stop inside a copy at rest (which runs past row 3 to the
    # pulse edge), at row 3 itself in a run that moves, and on the edge
    reached = set()
    for i, (smc, integral, filtered, eps) in enumerate(laws):
        settings = dict(plants_module._PROBE_SETTINGS, smc=smc, integral=integral,
                        filtered=filtered, eps=eps)
        _, advance = plants_module._start(
            default_params(platform), 0.0005, 4, plants_module._PROBE_DIST, settings,
            plants_module._PROBES[i % len(plants_module._PROBES)], None)
        reached.add(tuple(advance(stop)[0] for stop in plants_module._PROBE_STOPS))
    assert {(8, 8, 11, 16), (3, 8, 11, 16)} <= reached


@pytest.mark.parametrize("dist, dt, steps", [
    (np.zeros((7, 4)), 0.0005, 4),  # a table, not a column
    ([], 0.0005, 4),
    (["0.0"] * 4, 0.0005, 4),
    ([0.0] * 4, 0.0005, 2.5),  # the C loop took 3 RK4 steps a period
    ([0.0] * 4, 0.0005, 4.0),
    ([0.0] * 4, 0.0005, 0),  # no step: the plant would freeze
    ([0.0] * 4, 0.0005, -1),
    ([0.0] * 4, 0.0, 4),
    ([0.0] * 4, -0.0005, 4),
    ([0.0] * 4, math.inf, 4),
    ([0.0] * 4, math.nan, 4),
], ids=["2-d-dist", "empty-dist", "non-numeric-dist", "fractional-steps", "float-steps",
        "no-steps", "negative-steps", "zero-dt", "negative-dt", "infinite-dt", "nan-dt"])
def test_the_tick_loop_refuses_what_it_cannot_index(monkeypatch, dist, dt, steps):
    runs = []
    monkeypatch.setattr(plants_module, "_native_library",
                        lambda platform: lambda *args: runs.append(args))
    with pytest.raises(ValueError):
        tick_loop(default_params("rotpen"), dt, steps, dist, _loop_settings(),
                  (0.0, 0.1, 0.0, 0.0))
    assert not runs  # refused before the loop ran


@pytest.mark.parametrize("measurement", ["ideal", "filtered-derivative"])
@pytest.mark.parametrize("platform, controller", sorted(_DESIGNS))
def test_paper_runs_write_the_same_trace_natively_and_in_python(tmp_path, monkeypatch, platform,
                                                                 controller, measurement):
    _native_or_skip(platform, tmp_path)
    params, design = default_params(platform), _DESIGNS[platform, controller]()
    cfg = SimConfig(duration=120.0, controller_Ts=0.002 if platform == "rotpen" else 0.004,
                    disturbance=standard_pulse_train(params.V_max), measurement=measurement)
    save_trace_csv(simulate(params, design, cfg), tmp_path / "native.csv")
    _python_only(monkeypatch)
    save_trace_csv(simulate(params, design, cfg), tmp_path / "python.csv")
    assert (tmp_path / "native.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


@pytest.mark.parametrize("platform, controller", sorted(_DESIGNS))
def test_a_run_that_leaves_the_floats_ends_alike_natively_and_in_python(tmp_path, monkeypatch,
                                                                        platform, controller):
    # a 1e6 V pulse at tick 1250 leaves the floats within one period: the
    # robot's stepping raises ValueError (the sine of an infinity), the
    # pendulum's lands beyond the divergence limit; either way the written
    # trace ends, complete, at the last finite row
    params, design, cfg = _pulse_run(platform, controller, 3 * _B + 1, pulse_tick=1250)
    cfg = dataclasses.replace(cfg, disturbance=dataclasses.replace(cfg.disturbance,
                                                                  amplitude=1e6))
    traces = [simulate(params, design, cfg)]
    _python_only(monkeypatch)
    traces.append(simulate(params, design, cfg))
    for trace, name in zip(traces, ("native.csv", "python.csv")):
        save_trace_csv(trace, tmp_path / name)
    for trace in traces:
        assert trace.diverged and trace.t.size == 1251 and np.isfinite(trace.x).all()
    assert (tmp_path / "native.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
    assert (tmp_path / "python.csv").read_bytes() == _reference_csv(traces[1])


def test_without_cc_the_python_kernel_runs_with_the_same_bytes(tmp_path, monkeypatch):
    # and the Python template formats the trace
    want = _short_run_bytes(tmp_path, "before")
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is None and native("nxtway") is None
    assert _loop_name("rotpen") == "python"
    assert _fresh_formatter(monkeypatch)() is None
    assert _short_run_bytes(tmp_path, "after") == want


def test_a_failing_compile_leaves_the_python_kernel_and_no_file(tmp_path, monkeypatch):
    want = _short_run_bytes(tmp_path, "before")
    (tmp_path / "bin").mkdir()
    cc = tmp_path / "bin" / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: error' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is None
    assert os.listdir(tmp_path / "cache" / "pendulum_ctl") == []
    assert _loop_name("nxtway") == "python"
    assert _short_run_bytes(tmp_path, "after") == want


@pytest.mark.parametrize("weight, left", [
    ("2.0000000001 * b3", 4),  # an ulp-scale change: it compiles, but differs
    ("2.0 ** b3", 0),  # not C: the compile fails
    ("1 / 2 * 4.0 * b3", 4),  # C divides the integers: it compiles, but differs
], ids=["weight-off", "not-c", "integer-division"])
def test_a_stepper_that_fails_the_probe_is_not_used(tmp_path, monkeypatch, weight, left):
    _native_or_skip("rotpen", tmp_path)
    want = _short_run_bytes(tmp_path, "before")
    c_source = plants_module._c_source

    def off(platform):
        source = c_source(platform)
        changed = source.replace("(a3 + (2.0 * b3)", f"(a3 + ({weight})")
        assert changed != source
        return changed

    monkeypatch.setattr(plants_module, "_c_source", off)
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is None and native("nxtway") is None
    # per object built, the object and its .probe file, which records the refusal
    assert len(os.listdir(tmp_path / "cache" / "pendulum_ctl")) == left
    assert _short_run_bytes(tmp_path, "after") == want


@pytest.mark.parametrize("mode", [0o775, 0o757])
def test_a_cache_directory_others_may_write_is_not_used(tmp_path, monkeypatch, mode):
    _native_or_skip("rotpen", tmp_path)
    want = _short_run_bytes(tmp_path, "before")
    shared = tmp_path / "cache" / "pendulum_ctl"
    shared.mkdir(parents=True)
    shared.chmod(mode)
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    name = _own_object("rotpen")
    (shared / name).write_bytes(b"not a shared object")  # would fail to load
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    assert native("rotpen") is not None  # built and loaded in a private directory
    assert os.listdir(shared) == [name] and os.listdir(private) == []
    assert _loop_name("rotpen") == "native"
    assert _short_run_bytes(tmp_path, "after") == want


def test_a_second_process_loads_the_cached_kernel_without_cc(tmp_path, monkeypatch):
    _native_or_skip("nxtway", tmp_path)
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("nxtway") is not None
    folder = tmp_path / "cache" / "pendulum_ctl"
    built = folder / _own_object("nxtway")
    stored = built.with_suffix(".probe")
    assert sorted(os.listdir(folder)) == sorted([built.name, stored.name])
    digest = stored.read_text()
    day = time.time() - 86400
    os.utime(built, (day, day))
    before = built.stat()
    (tmp_path / "bin").mkdir()
    # the Python loop's outcomes come from the .probe file: no Python kernel is compiled
    code = ("from pendulum_ctl import plants; "
            "print(plants._native_library('nxtway') is not None, "
            "plants._kernel_factory.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PATH": str(tmp_path / "bin"),
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "True 0", out.stderr
    after = built.stat()
    # the same object, not rebuilt, and its load touched it
    assert after.st_ino == before.st_ino and after.st_mtime > day + 3600
    assert stored.read_text() == digest


def test_the_cache_key_is_the_generator_the_name_the_compiler_and_the_interpreter(monkeypatch):
    # the generator is the generating module's file, read at its import
    for module in (plants_module, simulate_module):
        with open(module.__file__, "rb") as f:
            assert module._GENERATOR == f.read()
    generator = plants_module._GENERATOR
    key = plants_module._cache_key("tick-rotpen", generator)
    assert plants_module._cache_key("tick-rotpen", generator) == key
    edited = bytearray(generator)
    edited[len(edited) // 2] ^= 1  # one byte of the module source
    assert plants_module._cache_key("tick-rotpen", bytes(edited)) != key
    assert plants_module._cache_key("tick-nxtway", generator) != key
    monkeypatch.setattr(plants_module, "_CC", plants_module._CC + ("-g",))
    assert plants_module._cache_key("tick-rotpen", generator) != key
    monkeypatch.undo()
    monkeypatch.setattr(sys.implementation, "cache_tag", "cpython-00")
    assert plants_module._cache_key("tick-rotpen", generator) != key


def test_without_its_module_source_an_object_is_keyed_by_its_c_text(tmp_path, monkeypatch):
    _native_or_skip("rotpen", tmp_path)
    assert plants_module.module_source(None) is None
    monkeypatch.setattr(plants_module, "_GENERATOR", None)
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is not None
    key = plants_module._cache_key("tick-rotpen", plants_module._c_source("rotpen").encode())
    assert f"tick-rotpen-{key}.so" in os.listdir(tmp_path / "cache" / "pendulum_ctl")


def _counted_probes(monkeypatch):
    """A list that gets the platform of each full probe (the Python runs included)."""
    full, mismatch = [], plants_module._probe_mismatch

    def counted(platform, native):
        full.append(platform)
        return mismatch(platform, native)

    monkeypatch.setattr(plants_module, "_probe_mismatch", counted)
    return full


@pytest.mark.parametrize("change", ["missing", "corrupt", "stale", "longer", "unreadable"])
def test_a_probe_file_that_does_not_match_takes_the_full_probe_and_is_rewritten(
        tmp_path, monkeypatch, change):
    _native_or_skip("rotpen", tmp_path)
    full = _counted_probes(monkeypatch)
    assert _fresh_native(monkeypatch, tmp_path / "cache")("rotpen") is not None
    assert full == ["rotpen"]  # built: the full probe writes the file
    stored = tmp_path / "cache" / "pendulum_ctl" / _own_object("rotpen").replace(".so", ".probe")
    digest = stored.read_text()
    assert digest == plants_module._outcomes_digest(plants_module._probe_outcomes("rotpen", None))
    assert _fresh_native(monkeypatch, tmp_path / "cache")("rotpen") is not None
    assert full == ["rotpen"]  # loaded: the C probe matched the stored outcomes
    if change == "missing":
        stored.unlink()
    elif change == "corrupt":
        stored.write_bytes(b"\xff\xfe" + os.urandom(62))
    elif change == "stale":  # the outcomes of another probe
        stored.write_text(plants_module._outcomes_digest(
            plants_module._probe_outcomes("nxtway", None)))
    elif change == "longer":
        stored.write_text(digest + "0")
    else:
        stored.unlink()
        stored.mkdir()  # open fails, and so does the rewrite
    assert _fresh_native(monkeypatch, tmp_path / "cache")("rotpen") is not None
    assert full == ["rotpen"] * 2
    if change == "unreadable":
        assert stored.is_dir()
    else:
        assert stored.read_text() == digest


def test_a_c_loop_that_does_not_resume_from_its_start_row_is_refused(tmp_path, monkeypatch):
    # a frame that starts each call at row 0, not at the row it is given,
    # runs every whole probe run as the Python loop does, but no run resumed
    # in slices: the probe refuses it, and the traces stay the same bytes
    _native_or_skip("rotpen", tmp_path)
    want = _short_run_bytes(tmp_path, "before")
    frame = plants_module._C_SOURCE.replace("int64_t k = start;", "int64_t k = 0;")
    assert frame != plants_module._C_SOURCE
    monkeypatch.setattr(plants_module, "_C_SOURCE", frame)
    so_file = str(tmp_path / "rotpen.so")
    plants_module._build(plants_module._c_source("rotpen"), so_file)
    run = plants_module._load(so_file, "run", plants_module._RUN_SIGNATURE)
    assert plants_module._probe_mismatch("rotpen", run).startswith("probe run 0 in slices ")
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is None and native("nxtway") is None
    assert _short_run_bytes(tmp_path, "after") == want


def test_a_kernel_that_differs_from_its_stored_outcomes_is_refused(tmp_path, monkeypatch):
    # an object under this source's key whose C differs by a weight: its
    # refusal is stored with its C outcomes, and a later process refuses it
    # without the Python runs; stored outcomes of the Python loop or of
    # other refused C runs do not match its probe runs, and neither does the
    # full probe, which stores the refusal again
    _native_or_skip("rotpen", tmp_path)
    want = _short_run_bytes(tmp_path, "before")
    c_source = plants_module._c_source

    def off(platform):
        return c_source(platform).replace("(a3 + (2.0 * b3)", "(a3 + (2.0000000001 * b3)")

    monkeypatch.setattr(plants_module, "_c_source", off)
    full = _counted_probes(monkeypatch)
    assert _fresh_native(monkeypatch, tmp_path / "cache")("rotpen") is None
    monkeypatch.setattr(plants_module, "_c_source", c_source)
    folder = tmp_path / "cache" / "pendulum_ctl"
    stored = folder / _own_object("rotpen").replace(".so", ".probe")
    assert sorted(os.listdir(folder)) == sorted([_own_object("rotpen"), stored.name])
    refusal = stored.read_text()
    digest = plants_module._outcomes_digest(plants_module._probe_outcomes("rotpen", None))
    assert refusal.startswith(plants_module._REFUSED)
    assert len(refusal) == len(plants_module._REFUSED) + 64
    assert refusal != plants_module._REFUSED + digest
    assert _fresh_native(monkeypatch, tmp_path / "cache")("rotpen") is None
    assert full == ["rotpen"] and stored.read_text() == refusal  # refused from the record
    for other in (digest, plants_module._REFUSED + digest):
        stored.write_text(other)
        assert _fresh_native(monkeypatch, tmp_path / "cache")("rotpen") is None
        assert stored.read_text() == refusal
    assert full == ["rotpen"] * 3
    assert _short_run_bytes(tmp_path, "after") == want


def test_a_warm_cache_process_generates_no_c_and_compiles_no_python_kernel(tmp_path):
    # a native simulate of each platform and one trace write: the objects
    # are found by their generator's key and the Python probe outcomes by
    # their .probe files, so no C text is generated and no Python run
    # kernel compiled. The first process builds the cache
    _native_or_skip("rotpen", tmp_path)
    code = """if True:
        import sys
        from pendulum_ctl import plants, simulate, synthesis
        calls = []
        for module, name in ((plants, "_c_source"), (simulate, "_csv_c_source")):
            def counted(*args, generate=getattr(module, name), name=name):
                calls.append(name)
                return generate(*args)
            setattr(module, name, counted)
        cfg = simulate.SimConfig(duration=0.04, controller_Ts=0.004, plant_dt=0.0005,
                                 x0=(0.0, 0.05, 0.0, 0.0))
        for platform in ("rotpen", "nxtway"):
            params = plants.default_params(platform)
            trace = simulate.simulate(params, synthesis.nominal_lqr(params), cfg)
        simulate.save_trace_csv(trace, sys.argv[1])
        native = [plants._native_library(p) is not None for p in ("rotpen", "nxtway")]
        print(native + [simulate._formatter() is not None], sorted(set(calls)),
              plants._kernel_factory.cache_info().currsize)
    """
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join(sys.path)}
    outs = [subprocess.run([sys.executable, "-c", code, str(tmp_path / f"trace{i}.csv")],
                           capture_output=True, text=True, env=env) for i in range(2)]
    assert outs[0].stdout.strip() == "[True, True, True] ['_c_source', '_csv_c_source'] 2", (
        outs[0].stderr)
    assert outs[1].stdout.strip() == "[True, True, True] [] 0", outs[1].stderr
    assert (tmp_path / "trace0.csv").read_bytes() == (tmp_path / "trace1.csv").read_bytes()


def test_a_build_deletes_only_objects_of_other_keys_unused_for_30_days(tmp_path, monkeypatch):
    _native_or_skip("rotpen", tmp_path)
    folder = tmp_path / "cache" / "pendulum_ctl"
    folder.mkdir(parents=True, mode=0o700)
    month, now = 31 * 86400, time.time()
    objects = {"old": f"tick-rotpen-{'0' * 64}.so", "recent": f"tick-rotpen-{'1' * 64}.so",
               "other platform": f"tick-nxtway-{'2' * 64}.so",
               "earlier name": f"advance-rotpen-{'3' * 64}.so",
               "recent other name": f"csv-{'4' * 64}.so",
               # an old object's outcomes go with it, however recent
               "recent probe of an old object": f"tick-rotpen-{'0' * 64}.probe",
               # a recent object keeps its outcomes, however old
               "old probe of a recent object": f"tick-rotpen-{'1' * 64}.probe",
               "old probe without its object": f"tick-nxtway-{'5' * 64}.probe",
               "recent probe without its object": f"tick-nxtway-{'6' * 64}.probe"}
    for label, name in objects.items():
        (folder / name).write_bytes(b"an object of another key")
        age = 86400 if label.startswith("recent") else month
        os.utime(folder / name, (now - age, now - age))
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is not None  # built: every aged object goes, whatever its name
    own = _own_object("rotpen")
    kept = ["recent", "recent other name", "old probe of a recent object",
            "recent probe without its object"]
    assert sorted(os.listdir(folder)) == sorted([own, own.replace(".so", ".probe")]
                                                + [objects[label] for label in kept])
    # a load, not a build, deletes nothing
    (folder / objects["old"]).write_bytes(b"an object of another key")
    os.utime(folder / objects["old"], (now - month, now - month))
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is not None
    assert len(os.listdir(folder)) == 7


# ---------------------------------------------------------------------------
# the C trace formatter
# ---------------------------------------------------------------------------

_NO_CC_FORMATTER = "no C compiler (cc) on PATH: the trace is formatted in Python"


def _formatter_or_skip(tmp_path):
    """The C trace formatter; skip without cc, and where cc exists fail naming why it is unused."""
    native = simulate_module._formatter()
    if native is not None:
        return native
    if shutil.which("cc") is None:
        pytest.skip(_NO_CC_FORMATTER)
    pytest.fail("cc is on PATH, yet the trace formatter is not native: "
                f"{_why_no_formatter(tmp_path)}")


def _why_no_formatter(tmp_path):
    """The compiler's stderr, the load error or the first probe line that differs."""
    so_file = str(tmp_path / "csv.so")
    try:
        plants_module._build(simulate_module._csv_c_source(), so_file)
        native = plants_module._load(so_file, "format_rows", simulate_module._FORMAT_SIGNATURE)
    except subprocess.CalledProcessError as error:
        return f"the compile failed:\n{error.stderr.decode()}"
    except (OSError, AttributeError) as error:  # no object, or no format_rows in it
        return f"the load failed: {error}"
    mismatch = simulate_module._formatter_mismatch(native)
    if mismatch is not None:
        return f"{mismatch} differs from repr"
    return "it builds, loads and matches the probe here, so the object cache failed"


def _fresh_formatter(monkeypatch):
    """Make _formatter start over."""
    fresh = functools.cache(_FORMATTER.__wrapped__)
    monkeypatch.setattr(simulate_module, "_formatter", fresh)
    return fresh


def test_the_trace_formatter_is_native_where_cc_exists(tmp_path, monkeypatch):
    native = _formatter_or_skip(tmp_path)
    calls = []

    def recorded(*args):
        calls.append(args[2:4])
        return native(*args)

    monkeypatch.setattr(simulate_module, "_formatter", lambda: recorded)
    trace = _pulse_trace("nxtway", "smc", 2 * _B + 1)
    save_trace_csv(trace, tmp_path / "trace.csv")
    assert calls == [(0, _B), (_B, 2 * _B), (2 * _B, 2 * _B + 1)]  # one block at a time
    assert (tmp_path / "trace.csv").read_bytes() == _reference_csv(trace)


def _bits(values):
    return np.array(values, dtype=np.uint64).view(np.float64)


def test_the_c_formatter_writes_every_float_as_repr_does(tmp_path):
    # a seeded million and more: bit patterns over all exponents, subnormals,
    # the least and greatest finite doubles, powers of 2 and 10 and their
    # neighbours, whole numbers near 2^53, eighths near 2^49 (where two
    # shortest decimals tie), both ends of fixed notation and both signs of
    # zero
    native = _formatter_or_skip(tmp_path)
    rng = np.random.default_rng(28)
    edges = [5e-324, 1.7976931348623157e308, 9999999999999998.0, 1e16, 1e-4, 1e-5, 0.0, -0.0]
    powers = np.array(edges + [2.0 ** e for e in range(-1074, 1024)]
                      + [float(f"1e{e}") for e in range(-323, 309)])
    up = powers[powers > 0.0].view(np.uint64)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, size=700_000, dtype=np.uint64).view(np.float64),
        _bits(rng.integers(1, 2 ** 52, size=100_000)),  # subnormals
        _bits(np.arange(1, 20_000)),  # the least subnormals
        powers, -powers, (up + 1).view(np.float64), (up - 1).view(np.float64),
        np.arange(2 ** 53 - 100_000, 2 ** 53 + 100_000).astype(np.float64),
        2.0 ** 49 + np.arange(20_000) * 0.125,  # ties between two shortest decimals
        np.round(rng.uniform(-100.0, 100.0, 100_000), 4), np.arange(50_000) * 0.002,
    ])
    values = values[:values.size // 8 * 8]
    assert values.size >= 10 ** 6
    columns = list(values.reshape(-1, 8).T)  # strided
    rows = values.size // 8
    want, got = io.BytesIO(), io.BytesIO()
    simulate_module._write_blocks(want, columns, [rows])
    simulate_module._write_native(got, native, columns, [rows])
    if got.getvalue() != want.getvalue():
        lines = zip(got.getvalue().split(b"\n"), want.getvalue().split(b"\n"))
        pytest.fail("first differing row (C, repr): %r" % (next(
            (g, w) for g, w in lines if g != w),))
    assert want.getvalue().count(b"e-3") > 1000 and b"e+308" in want.getvalue()


def test_the_c_writer_refuses_rows_its_columns_do_not_hold(tmp_path):
    # a row count past the shortest column, or back before the last count,
    # is refused before any of its rows is formatted; so is a column that is
    # not float64
    native = _formatter_or_skip(tmp_path)
    columns = [np.arange(4.0), np.arange(3.0)]
    for counts, rows in (([2, 4], 2), ([3, 1], 3)):
        got = io.BytesIO()
        with pytest.raises(ValueError, match="row count"):
            simulate_module._write_native(got, native, columns, counts)
        assert got.getvalue() == b"".join(b"%d.0,%d.0\n" % (i, i) for i in range(rows))
    with pytest.raises(ValueError, match="float64"):
        simulate_module._write_native(io.BytesIO(), native, [np.arange(3)], [3])


def _formatted_into(native, columns, rows, size, fill):
    """(format_rows' bytes for rows 0 to rows of columns, the buffer they went to): size
    bytes and 64 more, each fill before the call."""
    spans = np.array([(column.ctypes.data, column.strides[0]) for column in columns],
                     dtype=np.int64)
    buffer = np.full(size + 64, fill, dtype=np.uint8)
    written = native(len(columns), spans.ctypes.data, 0, rows, buffer.ctypes.data)
    return buffer[:written].tobytes(), buffer


@pytest.mark.parametrize("fill", [0x00, 0xff])
def test_a_full_block_of_the_longest_cells_stays_inside_the_buffer(tmp_path, fill):
    # one block of 9 columns of 25-byte cells fills the buffer _write_native
    # sizes; the 64 canary bytes past it stay as they were
    native = _formatter_or_skip(tmp_path)
    longest = np.resize([-2.2250738585072014e-308, -1.2345678901234567e-100], _B * 9)
    columns = list(longest.reshape(_B, 9).T)
    size = simulate_module._block_bytes(9)
    got, buffer = _formatted_into(native, columns, _B, size, fill)
    want = io.BytesIO()
    simulate_module._write_blocks(want, columns, [_B])
    assert got == want.getvalue() and len(got) == _B * 9 * simulate_module._CSV_CELL
    assert not np.any(buffer[size:] != fill)


@pytest.mark.parametrize("fill", [0x00, 0xff])
def test_a_cell_writes_at_most_csv_over_bytes_past_its_end(tmp_path, fill):
    # each probe cell and the widest cell of each layout, alone on its line:
    # nothing is written from _CSV_OVER bytes past the cell's end (its
    # newline is the first of them) on
    native = _formatter_or_skip(tmp_path)
    cells = [*simulate_module._PROBE_CELLS, 0.00012345678901234567, -0.0012345678901234567,
             -1234567890123456.8, -1e15, -8.0e-5, -9e-300, -1.2345678901234567e-100]
    for x in cells:
        got, buffer = _formatted_into(native, [np.array([x])], 1, 0, fill)
        assert got == f"{x!r}\n".encode()
        assert not np.any(buffer[len(got) - 1 + simulate_module._CSV_OVER:] != fill), x


def _cell_digits(x):
    """The digits f, trailing zeros and all, whose zeros the C formatter strips from x's cell.

    x's own, for a whole number below 2^53 of a negative binary exponent;
    else repr's shortest decimal over 10^k, the decimal exponent shortest
    starts from.
    """
    bits = struct.unpack("<Q", struct.pack("<d", abs(x)))[0]
    bq, c = bits >> 52, bits & (1 << 52) - 1
    q = bq - 1075 if bq else -1074
    c |= 1 << 52 if bq else 0
    if -53 < q < 0 and c % (1 << -q) == 0:
        return c >> -q
    k = (q * 661971961083 - (274743187321 if c == 1 << 52 and bq > 1 else 0)) >> 41
    f = decimal.Decimal(repr(abs(x))).scaleb(-k)
    assert f == f.to_integral_value()
    return int(f)


def test_the_probe_covers_each_layout_of_repr():
    cells = simulate_module._PROBE_CELLS
    lines = [repr(x) for x in cells]
    assert {"0.0", "-0.0", "inf", "-inf", "nan", "5e-324", "1e-05", "0.0001", "1e+16",
            "9999999999999998.0", "1.7976931348623157e+308"} <= set(lines)
    # the widest cells of "0.000ddd" and of "ddd.ddd"
    assert {"0.00012345678901234567", "1234567890123456.8"} <= set(lines)
    digits = [str(_cell_digits(x)) for x in cells if math.isfinite(x) and x != 0.0]
    # each strip step (10^8 once and twice, 10^4, 10^2, 10) and each digit
    # count boundary
    assert {1, 2, 4, 8, 15, 16} <= {len(f) - len(f.rstrip("0")) for f in digits}
    assert {str(10 ** 8), str(10 ** 16)} <= set(digits)
    assert {str(n) for n in (10 ** 4 - 1, 10 ** 8 - 1, 10 ** 8 + 1, 10 ** 16 - 1)} <= set(digits)
    assert len(lines) == 48  # 6 rows of 8 columns


def test_a_formatter_that_fails_the_probe_is_not_used(tmp_path, monkeypatch):
    # ".0" is left off whole numbers: it compiles, but differs from repr
    _formatter_or_skip(tmp_path)
    trace = _pulse_trace("rotpen", "smc", 2 * _B + 1)
    source = simulate_module._csv_c_source

    def off():
        changed = source().replace(
            '__builtin_memcpy(p + decpt, ".0", 2);\n        return p + decpt + 2;',
            "return p + decpt;")
        assert changed != source()
        return changed

    monkeypatch.setattr(simulate_module, "_csv_c_source", off)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert _fresh_formatter(monkeypatch)() is None
    assert len(os.listdir(tmp_path / "cache" / "pendulum_ctl")) == 1  # built, then refused
    save_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == _reference_csv(trace)

