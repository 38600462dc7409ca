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
import errno
import functools
import inspect
import math
import mmap
import os
import select
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
from pendulum_ctl import plants as plants_module
from pendulum_ctl import simulate as simulate_module
from pendulum_ctl.plants import (
    default_params,
    params_from_mapping,
    period_stepper,
    scalar_rhs,
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


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_period_stepper_matches_rk4_over_scalar_rhs_bit_for_bit(platform):
    # factory parameters and four sets with every field scaled by 0.8..1.2;
    # states mix signed zeros, a subnormal and |q2| up to 1e3 (slow sin path)
    rng = np.random.default_rng(23 if platform == "rotpen" else 29)
    base = default_params(platform)
    param_sets = [base] + [_scaled_params(base, rng) for _ in range(4)]
    special = [0.0, -0.0, 1e-310, -1e-310]
    for params in param_sets:
        for steps in (1, 4, 20):
            dt = 0.002 / steps
            want = _oracle_advance(scalar_rhs(params), dt, steps)
            # period_stepper is native where cc exists; the Python kernel too
            kernels = (period_stepper(params, dt, steps),
                       plants_module._stepper(params, dt, steps, None))
            for _ in range(150):
                x = (rng.normal(size=4) * rng.choice([1e-3, 1.0, 30.0, 1e3], 4)).tolist()
                for i in range(4):
                    if rng.random() < 0.2:
                        x[i] = special[rng.integers(len(special))]
                v = [0.0, -0.0, float(rng.normal(scale=5.0))][rng.integers(3)]
                for got in kernels:
                    assert _outcome(got, x, v) == _outcome(want, x, v), (got, steps, x, v)


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_generated_kernels_show_source_lines_in_tracebacks(platform):
    params = default_params(platform)
    kernels = [(period_stepper(params, 0.001, 2), (0.0, 0.1, 0.0, 0.0, None), "advance"),
               (scalar_rhs(params), (0.1, 0.0, 0.0, None), "rhs")]
    for kernel, args, kind in kernels:
        with pytest.raises(TypeError) as info:
            kernel(*args)
        frame = traceback.extract_tb(info.tb)[-1]
        assert frame.filename == f"<pendulum_ctl.plants: {platform} {kind}>"
        assert frame.line and frame.line in inspect.getsource(kernel)


def test_kernels_compile_lazily_and_once_per_platform_and_kind():
    code = ("import pendulum_ctl.cli; from pendulum_ctl import plants; "
            "print(plants._kernel_factory.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "0", out.stderr  # importing compiles nothing
    for platform in ("rotpen", "nxtway"):
        period_stepper(default_params(platform), 0.001, 2)
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


def test_rest_skip_engages_on_the_paper_run(monkeypatch):
    calls = [0]

    def counting_stepper(*args):
        advance = period_stepper(*args)

        def counted(*state):
            calls[0] += 1
            return advance(*state)

        return counted

    monkeypatch.setattr(simulate_module, "period_stepper", counting_stepper)
    params = default_params("rotpen")
    cfg = SimConfig(duration=120.0, controller_Ts=0.002,
                    disturbance=standard_pulse_train(params.V_max))
    trace = simulate(params, _rotpen_lqr(), cfg)
    ticks = trace.t.size
    assert ticks == 60001 and not trace.diverged
    assert 0 < calls[0] <= 0.51 * ticks  # one call per controller period advanced


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
        # the table's 8 (LQR) or 9 (SMC) rows and SimTrace's check of the
        # time column: 73 or 81 bytes per tick
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


_B = simulate_module._CSV_BLOCK


@pytest.mark.parametrize("extra", ["s", "integ"])
@pytest.mark.parametrize("rows", [1, _B - 1, _B, _B + 1, 2 * _B + 1, 3 * _B + 1, 4 * _B])
def test_trace_csv_matches_per_row_writer(tmp_path, extra, rows):
    # block boundaries at one row, one short of a block, a whole block,
    # one past it, past two and three blocks, and at four
    rng = np.random.default_rng(rows)
    values = rng.normal(scale=3.0, size=(rows, 8))
    special = [-0.0, 1e-05, 1e16, 5e-324, 1 / 3, -1e-300, 123456789.0]
    values.flat[:len(special)] = special  # first and last rows
    values.flat[-len(special):] = special
    t = np.arange(rows) * 0.002
    trace = SimTrace(t=t, x=values[:, 0:4], u_command=values[:, 4],
                     u_applied=values[:, 5], d=values[:, 6],
                     **{extra: values[:, 7]})
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    cols = ["t", "q1", "q2", "q1dot", "q2dot", "u_cmd", "u_applied", "dist", extra]
    arrays = [t, *values.T]
    assert path.read_bytes() == _per_row_csv(trace, cols, arrays).encode()


_DESIGNS = {("rotpen", "lqr"): _rotpen_lqr, ("rotpen", "smc"): _rotpen_smc,
            ("nxtway", "lqr"): _nxtway_lqr, ("nxtway", "smc"): _nxtway_smc}


def _streamed_run(platform, controller, rows, measurement="ideal", x0=(0.0, 0.05, 0.0, 0.0),
                  pulse_tick=200):
    """(params, design, cfg) of a run of rows rows with a pulse from pulse_tick."""
    Ts = 0.002 if platform == "rotpen" else 0.004
    pulse = DisturbanceSpec(kind="pulse_train", amplitude=2.0, frequency=2.0,
                            start_time=pulse_tick * Ts)
    cfg = SimConfig(duration=(rows - 1) * Ts, controller_Ts=Ts, x0=x0,
                    disturbance=pulse, measurement=measurement)
    return default_params(platform), _DESIGNS[platform, controller](), cfg


@pytest.mark.parametrize("rows", [2, _B, _B + 1, 3 * _B + 1])
@pytest.mark.parametrize("measurement", ["ideal", "filtered-derivative"])
@pytest.mark.parametrize("platform, controller", sorted(_DESIGNS))
def test_streamed_trace_equals_the_in_process_writer(tmp_path, platform, controller,
                                                     measurement, rows):
    # one row is never a run (it lasts one period at least). Under ideal
    # measurement the run rests until a pulse at tick 1250, so rest copies
    # cross block boundaries; filtered runs start off the upright
    x0, tick = ((0.0, 0.0, 0.0, 0.0), 1250) if measurement == "ideal" else \
        ((0.0, 0.05, 0.0, 0.0), 200)
    params, design, cfg = _streamed_run(platform, controller, rows, measurement, x0, tick)
    streamed, written = tmp_path / "streamed.csv", tmp_path / "written.csv"
    trace = simulate(params, design, cfg, streamed)
    assert trace.t.size == rows and not trace.diverged
    save_trace_csv(trace, written)
    assert streamed.read_bytes() == written.read_bytes()


def test_a_diverged_run_streams_its_truncated_trace(tmp_path):
    # positive feedback on the arm rate diverges after 1943 ticks, in the
    # second block
    cfg = SimConfig(duration=20.0, controller_Ts=0.002, x0=(0.0, 0.0, 0.01, 0.0),
                    saturation_V=1e6)
    path = tmp_path / "trace.csv"
    trace = simulate(default_params("rotpen"), _gain_only_design([0.0, 0.0, -1.0, 0.0]),
                     cfg, path)
    assert trace.diverged and _B < trace.t.size < 2 * _B
    save_trace_csv(trace, tmp_path / "written.csv")
    assert path.read_bytes() == (tmp_path / "written.csv").read_bytes()


@pytest.mark.parametrize("rows, forks", [(2, 0), (_B, 0), (_B + 1, 1)])
def test_only_a_trace_of_more_than_one_block_forks(tmp_path, monkeypatch, rows, forks):
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    params, design, cfg = _streamed_run("nxtway", "smc", rows)
    simulate(params, design, cfg, tmp_path / "trace.csv")
    simulate(params, design, cfg)  # no path: no writer
    assert len(calls) == forks
    assert (tmp_path / "trace.csv").read_text().count("\n") == rows + 1


def test_trace_writer_leaves_no_child_process(tmp_path):
    # the fork happens while a second Python thread is live, as it does in a
    # process holding OpenBLAS workers; the child touches neither
    params, design, cfg = _streamed_run("rotpen", "lqr", 3 * _B + 1)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10.0,))
    waiter.start()
    try:
        trace = simulate(params, design, cfg, tmp_path / "trace.csv")
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    save_trace_csv(trace, tmp_path / "written.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "written.csv").read_bytes()


def test_a_failed_writer_child_raises_and_leaves_no_process(tmp_path, monkeypatch):
    # formatting fails in the forked child alone, so it exits 1 after the
    # header; its copy of this test must never run the lines below
    pid = os.getpid()
    write_blocks = simulate_module._write_blocks

    def child_fails(*args):
        if os.getpid() != pid:
            raise OSError("refused in the child")
        return write_blocks(*args)

    monkeypatch.setattr(simulate_module, "_write_blocks", child_fails)
    params, design, cfg = _streamed_run("rotpen", "smc", 3 * _B + 1)
    path = tmp_path / "trace.csv"
    with pytest.raises(OSError, match=r"the trace writer's child failed \(wait status 256\)"):
        simulate(params, design, cfg, path)
    with open(tmp_path / "after.txt", "a") as fh:
        fh.write(f"{os.getpid()}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (tmp_path / "after.txt").read_text() == f"{pid}\n"
    assert not path.exists()  # no partial trace is left


def test_an_exception_in_the_tick_loop_reaps_the_writer(tmp_path, monkeypatch):
    calls = [0]

    def failing_stepper(*args):
        advance = period_stepper(*args)

        def fails_later(*state):
            calls[0] += 1
            if calls[0] == 2 * _B + 5:  # after two blocks went to the writer
                raise RuntimeError("stepper failed")
            return advance(*state)

        return fails_later

    monkeypatch.setattr(simulate_module, "period_stepper", failing_stepper)
    params, design, cfg = _streamed_run("nxtway", "lqr", 3 * _B + 1, pulse_tick=0)
    path = tmp_path / "trace.csv"
    with pytest.raises(RuntimeError, match="stepper failed"):
        simulate(params, design, cfg, path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not path.exists()


# the split of the tail: the writer child is held at its first block until
# the parent has set its limit, so the child is on row 0 when the loop ends
# and the parent takes every block from B + (k - B) // 2B * B on

_NO_LIMIT = np.iinfo(np.int64).max


def _held_child(monkeypatch, child_block=None):
    """Hold the writer child at its first block until the parent sets a limit.

    Returns (the start rows of the blocks the parent formats, the slots).
    Each slot is an int64 view of a 16-byte shared mapping simulate made:
    [the child's block or stop, the parent's limit]. child_block(slot,
    start), if given, runs in the child before each block it writes.
    """
    pid, slots, parent_blocks = os.getpid(), [], []
    new_mapping, write_blocks = mmap.mmap, simulate_module._write_blocks

    def recorded(fileno, length, *args):
        mapping = new_mapping(fileno, length, *args)
        if length == 16:
            slots.append(np.frombuffer(mapping, dtype=np.int64))
        return mapping

    def held(fh, columns, start, stop):
        if os.getpid() == pid:
            parent_blocks.append(start)
        else:
            deadline = time.monotonic() + 10.0
            while start == 0 and slots[-1][1] == _NO_LIMIT and time.monotonic() < deadline:
                time.sleep(0.001)
            if child_block is not None:
                child_block(slots[-1], start)
        return write_blocks(fh, columns, start, stop)

    monkeypatch.setattr(mmap, "mmap", recorded)
    monkeypatch.setattr(simulate_module, "_write_blocks", held)
    return parent_blocks, slots


def _assert_written_alone(tmp_path, trace, path):
    """The file equals save_trace_csv of trace, and no child is left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    save_trace_csv(trace, tmp_path / "written.csv")
    assert path.read_bytes() == (tmp_path / "written.csv").read_bytes()


@pytest.mark.parametrize("platform, controller", sorted(_DESIGNS))
def test_the_parent_formats_the_back_of_the_tail(tmp_path, monkeypatch, platform, controller):
    parent_blocks, slots = _held_child(monkeypatch)
    params, design, cfg = _streamed_run(platform, controller, 6 * _B + 1)
    path = tmp_path / "trace.csv"
    trace = simulate(params, design, cfg, path)
    # rows 3B to 6B + 1: three whole blocks and the last row
    assert parent_blocks == [3 * _B, 4 * _B, 5 * _B, 6 * _B]
    assert list(slots[-1]) == [3 * _B, 3 * _B]  # the child stopped at the limit
    _assert_written_alone(tmp_path, trace, path)


def test_a_diverged_run_splits_its_truncated_tail(tmp_path, monkeypatch):
    # the run of test_a_diverged_run_streams_its_truncated_trace: the parent
    # formats the partial second block
    parent_blocks, _ = _held_child(monkeypatch)
    cfg = SimConfig(duration=20.0, controller_Ts=0.002, x0=(0.0, 0.0, 0.01, 0.0),
                    saturation_V=1e6)
    path = tmp_path / "trace.csv"
    trace = simulate(default_params("rotpen"), _gain_only_design([0.0, 0.0, -1.0, 0.0]),
                     cfg, path)
    assert trace.diverged and _B < trace.t.size < 2 * _B
    assert parent_blocks == [_B]
    _assert_written_alone(tmp_path, trace, path)


def test_the_split_with_a_live_second_thread_leaves_no_child_process(tmp_path, monkeypatch):
    parent_blocks, _ = _held_child(monkeypatch)
    params, design, cfg = _streamed_run("rotpen", "smc", 3 * _B + 1)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10.0,))
    waiter.start()
    try:
        trace = simulate(params, design, cfg, tmp_path / "trace.csv")
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    assert parent_blocks == [2 * _B, 3 * _B]
    _assert_written_alone(tmp_path, trace, tmp_path / "trace.csv")


@pytest.mark.parametrize("past, stop", [(1, 4 * _B), (2, 5 * _B), (None, 6 * _B + 1)])
def test_a_child_that_ran_past_the_limit_wrote_its_blocks_once(tmp_path, monkeypatch,
                                                               past, stop):
    # the child checks the limit as if the parent had set it late: it runs
    # past blocks (None: to the end, the last row's block included) beyond
    # the limit 3B, and the parent drops the blocks it wrote
    limit = []

    def ignores_the_limit(slot, start):
        if not limit:
            limit.append(int(slot[1]))
            slot[1] = _NO_LIMIT
        elif past is not None and start >= limit[0] + (past - 1) * _B:
            slot[1] = limit[0]

    parent_blocks, slots = _held_child(monkeypatch, ignores_the_limit)
    params, design, cfg = _streamed_run("nxtway", "smc", 6 * _B + 1)
    path = tmp_path / "trace.csv"
    trace = simulate(params, design, cfg, path)
    assert parent_blocks == [3 * _B, 4 * _B, 5 * _B, 6 * _B]
    assert slots[-1][0] == stop
    _assert_written_alone(tmp_path, trace, path)


def test_a_child_that_stops_before_the_last_count_does_not_fail_the_run(tmp_path,
                                                                        monkeypatch):
    # the loop sent the count 6B, past the limit 3B, so the child stops
    # without reading the last count; sending it meets a closed pipe
    _, slots = _held_child(monkeypatch)
    send_count, sent = simulate_module._send_count, []

    def after_the_child_exits(wfd, count):
        if count < 0:
            poller = select.poll()
            poller.register(wfd, select.POLLOUT)
            deadline = time.monotonic() + 10.0
            while (not poller.poll(10)[0][1] & select.POLLERR
                   and time.monotonic() < deadline):
                pass
        sent.append(send_count(wfd, count))
        return sent[-1]

    monkeypatch.setattr(simulate_module, "_send_count", after_the_child_exits)
    params, design, cfg = _streamed_run("rotpen", "lqr", 6 * _B + 1)
    path = tmp_path / "trace.csv"
    trace = simulate(params, design, cfg, path)
    assert sent[-1] == math.inf and slots[-1][0] == 3 * _B
    _assert_written_alone(tmp_path, trace, path)


def _assert_reaped_and_removed(path):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not path.exists()


def test_an_exception_in_the_parents_share_reaps_the_writer(tmp_path, monkeypatch):
    parent_blocks, _ = _held_child(monkeypatch)
    write_blocks = simulate_module._write_blocks

    def parent_fails(*args):
        write_blocks(*args)
        if parent_blocks:
            raise RuntimeError("formatting failed")

    monkeypatch.setattr(simulate_module, "_write_blocks", parent_fails)
    params, design, cfg = _streamed_run("nxtway", "lqr", 3 * _B + 1)
    path = tmp_path / "trace.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        simulate(params, design, cfg, path)
    assert parent_blocks == [2 * _B]
    _assert_reaped_and_removed(path)


def test_a_failed_append_reaps_the_writer_and_removes_the_file(tmp_path, monkeypatch):
    parent_blocks, _ = _held_child(monkeypatch)

    def disk_full(file, mode="r", *args, **kwargs):
        if mode == "ab":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(simulate_module, "open", disk_full, raising=False)
    params, design, cfg = _streamed_run("rotpen", "smc", 3 * _B + 1)
    path = tmp_path / "trace.csv"
    with pytest.raises(OSError, match="No space left on device"):
        simulate(params, design, cfg, path)
    assert parent_blocks == [2 * _B, 3 * _B]
    _assert_reaped_and_removed(path)


def test_a_child_that_fails_after_the_split_raises_the_writer_error(tmp_path, monkeypatch):
    # the child fails on its first block once the limit is set; its copy of
    # this test must never run the lines below
    pid = os.getpid()

    def child_fails(slot, start):
        raise OSError("refused in the child")

    parent_blocks, _ = _held_child(monkeypatch, child_fails)
    params, design, cfg = _streamed_run("nxtway", "smc", 3 * _B + 1)
    path = tmp_path / "trace.csv"
    with pytest.raises(OSError, match=r"the trace writer's child failed \(wait status 256\)"):
        simulate(params, design, cfg, path)
    with open(tmp_path / "after.txt", "a") as fh:
        fh.write(f"{os.getpid()}\n")
    assert parent_blocks == [2 * _B, 3 * _B]
    assert (tmp_path / "after.txt").read_text() == f"{pid}\n"
    _assert_reaped_and_removed(path)


def _table_floats(trace):
    """The number of floats in the buffer that a trace's columns view."""
    base = trace.t
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base.size


@pytest.mark.parametrize("platform, controller, rows", [
    ("rotpen", "lqr", 8), ("rotpen", "smc", 9), ("nxtway", "lqr", 9), ("nxtway", "smc", 9)])
def test_the_table_holds_one_row_per_csv_column(tmp_path, platform, controller, rows):
    # an LQR design without Ki records neither s nor the integral
    for length, path in ((_B, None), (3 * _B + 1, tmp_path / "trace.csv")):
        params, design, cfg = _streamed_run(platform, controller, length)
        trace = simulate(params, design, cfg, path)
        assert _table_floats(trace) == rows * length


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
# the native period stepper
# ---------------------------------------------------------------------------

_NO_CC = "no C compiler (cc) on PATH: period_stepper runs the Python kernel"


def _native_or_skip(platform, tmp_path):
    """Skip without cc; where cc exists, fail unless the stepper is native, naming why."""
    if plants_module._native_library(platform) is not None:
        return
    if shutil.which("cc") is None:
        pytest.skip(_NO_CC)
    pytest.fail(f"cc is on PATH, yet the {platform} stepper is not native: "
                f"{_why_not_native(platform, tmp_path)}")


def _why_not_native(platform, tmp_path):
    """The compiler's stderr, the load error or the first probe state that differs."""
    so_file = str(tmp_path / f"{platform}.so")
    try:
        plants_module._build(plants_module._c_source(platform), so_file)
        call = ctypes.PyDLL(so_file).advance
    except subprocess.CalledProcessError as error:
        return f"the compile failed:\n{error.stderr.decode()}"
    except OSError as error:
        return f"the load failed: {error}"
    call.restype = ctypes.c_int
    params = default_params(platform)
    python, native = (plants_module._stepper(params, 0.0005, 4, n)
                      for n in (None, (call, ctypes.c_double)))
    for x in plants_module._PROBES:
        want, got = python(*x), native(*x)
        if struct.pack("4d", *got) != struct.pack("4d", *want):
            return f"probe state {x} gives {got} in C and {want} in Python"
    return "it builds, loads and matches every probe here, so the stepper cache failed"


def _fresh_native(monkeypatch, cache_home):
    """Make _native_library start over, with its cache under cache_home."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    fresh = functools.cache(plants_module._native_library.__wrapped__)
    monkeypatch.setattr(plants_module, "_native_library", fresh)
    return fresh


def _python_only(monkeypatch):
    monkeypatch.setattr(plants_module, "_native_library", lambda platform: None)


def _short_run_bytes(tmp_path, name):
    """Trace CSV bytes of a rotpen SMC and a nxtway LQR run of 3 blocks and a row (streamed)."""
    out = []
    for platform, controller in (("rotpen", "smc"), ("nxtway", "lqr")):
        params, design, cfg = _streamed_run(platform, controller, 3 * _B + 1)
        path = tmp_path / f"{name}-{platform}.csv"
        simulate(params, design, cfg, path)
        out.append(path.read_bytes())
    return out


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_period_stepper_is_native_where_cc_exists(platform):
    if shutil.which("cc") is None:
        pytest.skip(_NO_CC)
    assert period_stepper(default_params(platform), 0.0005, 4).__name__ == "native_advance"
    python = plants_module._stepper(default_params(platform), 0.0005, 4, None)
    assert python.__name__ == "advance"


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_non_finite_native_results_are_answered_by_the_python_kernel(tmp_path, platform):
    # where Python raises (sin of an infinity) C runs on in infinities and
    # NaNs; such a result is recomputed by the Python kernel
    _native_or_skip(platform, tmp_path)
    params = default_params(platform)
    native = period_stepper(params, 0.0005, 4)
    python = plants_module._stepper(params, 0.0005, 4, None)
    inf, nan = math.inf, math.nan
    states = [(0.0, inf, 0.0, 0.0, 0.0), (0.0, -inf, 0.0, 0.0, 1.0), (0.0, 0.1, nan, 0.0, 1.0),
              (inf, 0.0, 0.0, 0.0, 0.0), (0.0, 0.1, 0.0, 1e200, 0.0), (0.0, 0.0, 1e308, 1e308, -0.0),
              (0.0, 0.0, 0.0, 0.0, inf)]
    outcomes = [_outcome(native, x, v) for *x, v in states]
    assert outcomes == [_outcome(python, x, v) for *x, v in states]
    assert "ValueError('math domain error')" in outcomes and len(set(outcomes)) == 3


def test_a_zero_determinant_raises_zero_division_natively_too(tmp_path):
    _native_or_skip("nxtway", tmp_path)
    # every constant 0 but al: m12 = 0 and det = 0, so the solve divides by zero
    constants = dict.fromkeys(plants_module._DYNAMICS["nxtway"][0](default_params("nxtway")), 0.0)
    constants["al"] = 1.0
    call, double = plants_module._native_library("nxtway")
    k = (double * (len(constants) + 1))(*constants.values(), 0.001)
    make = plants_module._kernel_factory("nxtway", "advance")
    for native in (None, (call, k, double * 5)):
        advance = make(**constants, dt=0.001, steps=2, native=native)
        with pytest.raises(ZeroDivisionError):
            advance(0.0, 0.1, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("measurement", ["ideal", "filtered-derivative"])
@pytest.mark.parametrize("platform, controller", sorted(_DESIGNS))
def test_paper_runs_write_the_same_trace_natively_and_in_python(tmp_path, monkeypatch, platform,
                                                                 controller, measurement):
    _native_or_skip(platform, tmp_path)
    params, design = default_params(platform), _DESIGNS[platform, controller]()
    cfg = SimConfig(duration=120.0, controller_Ts=0.002 if platform == "rotpen" else 0.004,
                    disturbance=standard_pulse_train(params.V_max), measurement=measurement)
    simulate(params, design, cfg, tmp_path / "native.csv")
    _python_only(monkeypatch)
    simulate(params, design, cfg, tmp_path / "python.csv")
    assert (tmp_path / "native.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


@pytest.mark.parametrize("platform, controller", sorted(_DESIGNS))
def test_a_run_that_leaves_the_floats_ends_alike_natively_and_in_python(tmp_path, monkeypatch,
                                                                        platform, controller):
    # a 1e6 V pulse at tick 1250 leaves the floats within one period: the
    # robot's stepping raises ValueError (the sine of an infinity), the
    # pendulum's lands beyond the divergence limit; either way the streamed
    # trace ends, complete, at the last finite row
    params, design, cfg = _streamed_run(platform, controller, 3 * _B + 1, pulse_tick=1250)
    cfg = dataclasses.replace(cfg, disturbance=dataclasses.replace(cfg.disturbance,
                                                                  amplitude=1e6))
    traces = [simulate(params, design, cfg, tmp_path / "native.csv")]
    _python_only(monkeypatch)
    traces.append(simulate(params, design, cfg, tmp_path / "python.csv"))
    for trace in traces:
        assert trace.diverged and trace.t.size == 1251 and np.isfinite(trace.x).all()
    assert (tmp_path / "native.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
    save_trace_csv(traces[1], tmp_path / "written.csv")
    assert (tmp_path / "python.csv").read_bytes() == (tmp_path / "written.csv").read_bytes()


def test_without_cc_the_python_kernel_runs_with_the_same_bytes(tmp_path, monkeypatch):
    want = _short_run_bytes(tmp_path, "before")
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is None and native("nxtway") is None
    assert period_stepper(default_params("rotpen"), 0.0005, 4).__name__ == "advance"
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
    assert period_stepper(default_params("nxtway"), 0.001, 4).__name__ == "advance"
    assert _short_run_bytes(tmp_path, "after") == want


@pytest.mark.parametrize("weight, left", [
    ("2.0000000001 * b3", 2),  # an ulp-scale change: it compiles, but differs
    ("2.0 ** b3", 0),  # not C: the compile fails
    ("1 / 2 * 4.0 * b3", 2),  # C divides the integers: it compiles, but differs
], ids=["weight-off", "not-c", "integer-division"])
def test_a_stepper_that_fails_the_probe_is_not_used(tmp_path, monkeypatch, weight, left):
    _native_or_skip("rotpen", tmp_path)
    want = _short_run_bytes(tmp_path, "before")
    c_source = plants_module._c_source

    def off(platform):
        source = c_source(platform)
        changed = source.replace("w * (a3 + 2.0 * b3", f"w * (a3 + {weight}")
        assert changed != source
        return changed

    monkeypatch.setattr(plants_module, "_c_source", off)
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("rotpen") is None and native("nxtway") is None
    assert len(os.listdir(tmp_path / "cache" / "pendulum_ctl")) == left  # one per object built
    assert _short_run_bytes(tmp_path, "after") == want


@pytest.mark.parametrize("mode", [0o775, 0o757])
def test_a_cache_directory_others_may_write_is_not_used(tmp_path, monkeypatch, mode):
    _native_or_skip("rotpen", tmp_path)
    want = _short_run_bytes(tmp_path, "before")
    shared = tmp_path / "cache" / "pendulum_ctl"
    shared.mkdir(parents=True)
    shared.chmod(mode)
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    key = plants_module._cache_key(plants_module._c_source("rotpen"))
    name = f"advance-rotpen-{key}.so"
    (shared / name).write_bytes(b"not a shared object")  # would fail to load
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    assert native("rotpen") is not None  # built and loaded in a private directory
    assert os.listdir(shared) == [name] and os.listdir(private) == []
    assert period_stepper(default_params("rotpen"), 0.0005, 4).__name__ == "native_advance"
    assert _short_run_bytes(tmp_path, "after") == want


def test_a_second_process_loads_the_cached_stepper_without_cc(tmp_path, monkeypatch):
    _native_or_skip("nxtway", tmp_path)
    native = _fresh_native(monkeypatch, tmp_path / "cache")
    assert native("nxtway") is not None
    (built,) = (tmp_path / "cache" / "pendulum_ctl").iterdir()
    key = plants_module._cache_key(plants_module._c_source("nxtway"))
    assert built.name == f"advance-nxtway-{key}.so"
    before = built.stat()
    (tmp_path / "bin").mkdir()
    code = ("from pendulum_ctl import plants; "
            "print(plants.period_stepper(plants.default_params('nxtway'), 0.001, 4).__name__)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PATH": str(tmp_path / "bin"),
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "native_advance", out.stderr
    after = built.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
