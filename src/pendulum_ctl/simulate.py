"""Closed-loop time-domain simulation.

The nonlinear plant is integrated with classic fourth-order Runge-Kutta at
a fine step plant_dt while the controller runs at controller_Ts under a
zero-order hold. The command is saturated to the supply voltage; the
disturbance is a square pulse train added to the applied voltage after
saturation and deliberately not re-clamped, since it models an external
torque-equivalent injection rather than part of the commanded signal.

Measurements are ideal by default. The filtered-derivative mode feeds the
controller velocity estimates built from backward differences smoothed by
a bilinear-mapped first-order low-pass, emulating encoder-only sensing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .plants import PlantParams, scalar_rhs
from .synthesis import LqrDesign, SmcDesign

__all__ = [
    "DisturbanceSpec",
    "SimConfig",
    "SimTrace",
    "standard_pulse_train",
    "disturbance_value",
    "saturate",
    "lqr_control_law",
    "smc_control_law",
    "filtered_derivative",
    "simulate",
    "save_trace_csv",
]

_STATE_DIM = 4
_DIVERGENCE_LIMIT = 1e3
_CSV_BLOCK = 1024  # trace rows formatted per write in save_trace_csv


@dataclass(frozen=True)
class DisturbanceSpec:
    """Input disturbance: none, or a square pulse train in volts."""

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 0.0
    start_time: float = 0.0
    duty: float = 0.5

    def __post_init__(self):
        if self.kind not in ("none", "pulse_train"):
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        for name in ("amplitude", "frequency", "start_time", "duty"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.amplitude < 0.0:
            raise ConfigError("disturbance amplitude must be non-negative")
        if self.kind == "pulse_train" and self.frequency <= 0.0:
            raise ConfigError("pulse train frequency must be positive")
        if not 0.0 <= self.duty <= 1.0:
            raise ConfigError("duty cycle must lie in [0, 1]")
        if self.start_time < 0.0:
            raise ConfigError("start_time must be non-negative")


def standard_pulse_train(V_max: float) -> DisturbanceSpec:
    """Pulse train at half the supply voltage, 0.0167 Hz, 50% duty, from 60 s."""
    if V_max <= 0.0:
        raise ValueError("V_max must be positive")
    return DisturbanceSpec(kind="pulse_train", amplitude=0.5 * V_max,
                           frequency=0.0167, start_time=60.0, duty=0.5)


def disturbance_value(spec: DisturbanceSpec, t: float) -> float:
    """Disturbance voltage at time t (zero before start_time)."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    if spec.kind != "pulse_train" or t < spec.start_time or spec.amplitude == 0.0:
        return 0.0
    period = 1.0 / spec.frequency
    phase = (t - spec.start_time) % period
    return spec.amplitude if phase < spec.duty * period else 0.0


def saturate(u: float, V_max: float) -> float:
    """Clamp a voltage command to [-V_max, V_max]."""
    if V_max <= 0.0:
        raise ValueError("V_max must be positive")
    u = float(u)
    return -V_max if u < -V_max else (V_max if u > V_max else u)


@dataclass(frozen=True)
class SimConfig:
    """Run settings for one closed-loop experiment.

    duration must be a whole number of controller periods. plant_dt
    defaults to controller_Ts / 4 and must divide controller_Ts evenly.
    saturation_V defaults to the plant's supply voltage.
    """

    duration: float
    controller_Ts: float
    plant_dt: float | None = None
    disturbance: DisturbanceSpec = DisturbanceSpec()
    x0: tuple = (0.0, 0.0, 0.0, 0.0)
    reference: tuple = (0.0, 0.0, 0.0, 0.0)
    saturation_V: float | None = None
    measurement: str = "ideal"
    filter_cutoff: float = 30.0
    boundary_layer: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(self, "controller_Ts", float(self.controller_Ts))
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ConfigError("duration must be a positive number of seconds")
        if not (math.isfinite(self.controller_Ts) and self.controller_Ts > 0.0):
            raise ConfigError("controller_Ts must be positive")
        periods = self.duration / self.controller_Ts
        if round(periods) < 1:
            raise ConfigError("duration is shorter than one controller period")
        if abs(periods - round(periods)) > 1e-6 * max(1.0, periods):
            raise ConfigError("duration must be an integer multiple of controller_Ts")

        dt = self.controller_Ts / 4.0 if self.plant_dt is None else float(self.plant_dt)
        object.__setattr__(self, "plant_dt", dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ConfigError("plant_dt must be positive")
        if dt > self.controller_Ts * (1.0 + 1e-12):
            raise ConfigError("plant_dt must not exceed controller_Ts")
        ratio = self.controller_Ts / dt
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
            raise ConfigError("controller_Ts must be an integer multiple of plant_dt")

        for name in ("x0", "reference"):
            vec = tuple(float(v) for v in np.asarray(getattr(self, name)).ravel())
            if len(vec) != _STATE_DIM:
                raise ConfigError(f"{name} must have {_STATE_DIM} entries")
            if not all(math.isfinite(v) for v in vec):
                raise ConfigError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, vec)

        if self.saturation_V is not None:
            object.__setattr__(self, "saturation_V", float(self.saturation_V))
            if self.saturation_V <= 0.0:
                raise ConfigError("saturation_V must be positive")
        if self.measurement not in ("ideal", "filtered-derivative"):
            raise ConfigError(f"unknown measurement mode {self.measurement!r}")
        object.__setattr__(self, "filter_cutoff", float(self.filter_cutoff))
        if self.filter_cutoff <= 0.0:
            raise ConfigError("filter_cutoff must be positive")
        object.__setattr__(self, "boundary_layer", float(self.boundary_layer))
        if self.boundary_layer < 0.0:
            raise ConfigError("boundary_layer must be non-negative")


@dataclass(frozen=True)
class SimTrace:
    """Uniformly sampled closed-loop records, one row per controller tick."""

    t: np.ndarray
    x: np.ndarray
    u_command: np.ndarray
    u_applied: np.ndarray
    d: np.ndarray
    s: np.ndarray | None = None
    integ: np.ndarray | None = None
    diverged: bool = False

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).ravel()
        object.__setattr__(self, "t", t)
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2 or x.shape[0] != t.size:
            raise ValueError("state history must have one row per time sample")
        object.__setattr__(self, "x", x)
        for name in ("u_command", "u_applied", "d"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            if arr.size != t.size:
                raise ValueError(f"{name} length does not match the time vector")
            object.__setattr__(self, name, arr)
        for name in ("s", "integ"):
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val, dtype=float).ravel()
                if arr.size != t.size:
                    raise ValueError(f"{name} length does not match the time vector")
                object.__setattr__(self, name, arr)
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("time samples must be strictly increasing")
        object.__setattr__(self, "diverged", bool(self.diverged))


# ---------------------------------------------------------------------------
# control laws
# ---------------------------------------------------------------------------

def _control_law(design, eps: float = 0.0):
    """Closure law(e1, e2, e3, e4, integ) -> (u, s) of the LQR or SMC law (layer eps)."""
    if isinstance(design, SmcDesign):
        if design.L.size != _STATE_DIM or design.Keq.size != _STATE_DIM:
            raise ValueError("L and Keq must span the four plant states")
        l1, l2, l3, l4 = (float(v) for v in design.L)
        k1, k2, k3, k4 = (float(v) for v in design.Keq)
        kk = design.k

        def law(e1, e2, e3, e4, integ):
            s = l1 * e1 + l2 * e2 + l3 * e3 + l4 * e4
            if eps > 0.0 and -eps < s < eps:
                sg = s / eps
            elif s > 0.0:
                sg = 1.0
            elif s < 0.0:
                sg = -1.0
            else:
                sg = 0.0
            return -(k1 * e1 + k2 * e2 + k3 * e3 + k4 * e4) - kk * sg, s

        return law
    if isinstance(design, LqrDesign):
        if design.K.shape != (1, _STATE_DIM):
            raise ValueError("expected a single gain row over the four plant states")
        k1, k2, k3, k4 = (float(g) for g in design.K[0])
        ki = design.Ki
        if ki is None:
            return lambda e1, e2, e3, e4, integ: (
                -(k1 * e1 + k2 * e2 + k3 * e3 + k4 * e4), None)
        return lambda e1, e2, e3, e4, integ: (
            -(k1 * e1 + k2 * e2 + k3 * e3 + k4 * e4) - ki * integ, None)
    raise TypeError(f"unsupported design type {type(design).__name__}")


def _plant_state(x) -> np.ndarray:
    xv = np.asarray(x, dtype=float).ravel()
    if xv.size != _STATE_DIM:
        raise ValueError(f"state has {xv.size} entries, expected {_STATE_DIM}")
    return xv


def lqr_control_law(design: LqrDesign, x, integ: float = 0.0, reference=None) -> float:
    """u = -K (x - reference) - Ki * integ, a single voltage command."""
    law = _control_law(design)
    e = _plant_state(x) if reference is None else _plant_state(x) - _plant_state(reference)
    return law(*e.tolist(), float(integ))[0]


def smc_control_law(design: SmcDesign, x, boundary_layer: float = 0.0):
    """Return (u, s) with u = -Keq x - k * sign(s), s = L x and sign(0) = 0.

    A positive boundary_layer replaces sign(s) by s / boundary_layer
    inside |s| < boundary_layer, trading finite-time reaching for a
    chatter-free band.
    """
    law = _control_law(design, boundary_layer)
    return law(*_plant_state(x).tolist(), 0.0)


# ---------------------------------------------------------------------------
# velocity reconstruction
# ---------------------------------------------------------------------------

def _derivative_filter(Ts: float, cutoff_hz: float):
    """Streaming filtered_derivative: step(sample) -> derivative estimate."""
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


def filtered_derivative(samples, Ts: float, cutoff_hz: float) -> np.ndarray:
    """Differentiate a uniformly sampled stream with first-order smoothing.

    Backward differences are passed through a discrete low-pass whose pole
    comes from the bilinear transform of cutoff_hz; the cascade has unity
    gain on constant slopes. The first output sample is zero since no
    difference exists yet.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least two samples to differentiate")
    if Ts <= 0.0:
        raise ValueError("Ts must be positive")
    if cutoff_hz <= 0.0:
        raise ValueError("cutoff_hz must be positive")
    step = _derivative_filter(Ts, cutoff_hz)
    return np.array([step(v) for v in x.tolist()])


# ---------------------------------------------------------------------------
# plant integration
# ---------------------------------------------------------------------------

def _rk4_step(f, x, v, dt):
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


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def simulate(params: PlantParams, design, cfg: SimConfig) -> SimTrace:
    """Run one closed-loop experiment and return its trace.

    The controller type follows the design object: an LqrDesign applies the
    state-feedback law (with integral action when Ki is present), an
    SmcDesign applies the sliding-mode law. The same per-motor voltage goes
    to both motors of the two-wheeled robot. Divergence (any state beyond
    1e3) stops the run early and flags the truncated trace.
    """
    f = scalar_rhs(params)
    law = _control_law(design, cfg.boundary_layer)
    sat = params.V_max if cfg.saturation_V is None else cfg.saturation_V
    is_smc = isinstance(design, SmcDesign)
    if is_smc and not math.isclose(design.Ts, cfg.controller_Ts, rel_tol=1e-9):
        raise ConfigError(f"SMC design sampled at Ts = {design.Ts!r} cannot run "
                          f"at controller_Ts = {cfg.controller_Ts!r}")
    ki = None if is_smc else design.Ki

    Ts = cfg.controller_Ts
    dt = cfg.plant_dt
    sub = round(Ts / dt)
    n = round(cfg.duration / Ts)
    spec = cfg.disturbance
    r1, r2, r3, r4 = cfg.reference

    use_filter = cfg.measurement == "filtered-derivative"
    if use_filter:
        rate1 = _derivative_filter(Ts, cfg.filter_cutoff)
        rate2 = _derivative_filter(Ts, cfg.filter_cutoff)

    t_arr = np.empty(n + 1)
    x_arr = np.empty((n + 1, _STATE_DIM))
    ucmd_arr = np.empty(n + 1)
    uapp_arr = np.empty(n + 1)
    d_arr = np.empty(n + 1)
    s_arr = np.empty(n + 1) if is_smc else None
    i_arr = np.empty(n + 1) if ki is not None else None

    x1, x2, x3, x4 = cfg.x0
    integ = 0.0
    diverged = False
    count = 0

    for k in range(n + 1):
        lim = _DIVERGENCE_LIMIT
        if not (abs(x1) <= lim and abs(x2) <= lim
                and abs(x3) <= lim and abs(x4) <= lim):
            diverged = True
            break
        t = k * Ts

        if use_filter:
            e1, e2, e3, e4 = x1 - r1, x2 - r2, rate1(x1) - r3, rate2(x2) - r4
        else:
            e1, e2, e3, e4 = x1 - r1, x2 - r2, x3 - r3, x4 - r4

        u, s = law(e1, e2, e3, e4, integ)
        if is_smc:
            s_arr[k] = s
        elif ki is not None:
            i_arr[k] = integ

        ua = saturate(u, sat)
        d = disturbance_value(spec, t)

        t_arr[k] = t
        x_arr[k, 0] = x1
        x_arr[k, 1] = x2
        x_arr[k, 2] = x3
        x_arr[k, 3] = x4
        ucmd_arr[k] = u
        uapp_arr[k] = ua
        d_arr[k] = d
        count = k + 1

        if ki is not None:
            integ += e1 * Ts
        if k < n:
            v = ua + d
            xs = (x1, x2, x3, x4)
            for _ in range(sub):
                xs = _rk4_step(f, xs, v, dt)
            x1, x2, x3, x4 = xs

    return SimTrace(t=t_arr[:count], x=x_arr[:count],
                    u_command=ucmd_arr[:count], u_applied=uapp_arr[:count],
                    d=d_arr[:count],
                    s=s_arr[:count] if is_smc else None,
                    integ=i_arr[:count] if ki is not None else None,
                    diverged=diverged)


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def save_trace_csv(trace: SimTrace, path) -> None:
    """Write a trace as CSV with IEEE round-trip decimal formatting."""
    cols = ["t", "q1", "q2", "q1dot", "q2dot", "u_cmd", "u_applied", "dist"]
    arrays = [trace.t, trace.x[:, 0], trace.x[:, 1], trace.x[:, 2],
              trace.x[:, 3], trace.u_command, trace.u_applied, trace.d]
    if trace.s is not None:
        cols.append("s")
        arrays.append(trace.s)
    if trace.integ is not None:
        cols.append("integ")
        arrays.append(trace.integ)
    # "%r" of a Python float is its repr, so formatting each row's tuple
    # writes the same bytes as a repr per cell; converting _CSV_BLOCK rows
    # at a time bounds the Python floats alive at once.
    row = ",".join(["%r"] * len(arrays)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(0, trace.t.size, _CSV_BLOCK):
            columns = [a[i:i + _CSV_BLOCK].tolist() for a in arrays]
            fh.write("".join([row % values for values in zip(*columns)]))
