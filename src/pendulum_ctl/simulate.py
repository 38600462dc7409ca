"""Closed-loop time-domain simulation.

The nonlinear plant is integrated with classic fourth-order Runge-Kutta at
a fine step plant_dt while the controller runs at controller_Ts under a
zero-order hold. One call of plants.period_stepper advances the plant by a
whole controller period. The command is saturated to the supply voltage; the
disturbance is a square pulse train added to the applied voltage after
saturation and deliberately not re-clamped, since it models an external
torque-equivalent injection rather than part of the commanded signal.

The controller applies u = -K e - Ki integ (LQR, integral term optional)
or u = -Keq e - k sign(s) with s = L e (SMC; sign(0) = 0, and inside an
optional boundary layer |s| < eps, s / eps), where e is the measured state
minus the reference. Measurements are ideal by default. The
filtered-derivative mode feeds the controller velocity estimates built from
backward differences smoothed by a bilinear-mapped first-order low-pass,
emulating encoder-only sensing.

A run at exact rest is not recomputed tick by tick. When one tick leaves
the carried state (plant state, integral, derivative-filter states)
unchanged bit for bit, each later tick would repeat the same arithmetic on
the same inputs until the disturbance changes value, so its row is copied
instead; the trace bytes are those of computing every tick. The paper's
pulse experiment balances at the upright equilibrium for 60 s before the
first pulse, so half of its ticks are copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plants import PlantParams, period_stepper
from .synthesis import LqrDesign, SmcDesign

__all__ = [
    "DisturbanceSpec",
    "SimConfig",
    "SimTrace",
    "standard_pulse_train",
    "disturbance_value",
    "saturate",
    "simulate",
    "save_trace_csv",
]

_STATE_DIM = 4
_DIVERGENCE_LIMIT = 1e3
# RK4 steps one run may take (ticks x sub-steps), about 40 paper pulse runs;
# simulate allocates every trace row up front
_MAX_RK4_STEPS = 10 ** 7
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
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        for name in ("amplitude", "frequency", "start_time", "duty"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"disturbance {name} must be finite")
            object.__setattr__(self, name, value)
        if self.amplitude < 0.0:
            raise ValueError("disturbance amplitude must be non-negative")
        if self.kind == "pulse_train" and self.frequency <= 0.0:
            raise ValueError("pulse train frequency must be positive")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty cycle must lie in [0, 1]")
        if self.start_time < 0.0:
            raise ValueError("start_time must be non-negative")


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
    One run takes at most 10^7 RK4 steps (periods x steps per period).
    saturation_V defaults to the plant's supply voltage. Under the
    filtered-derivative measurement, filter_cutoff must lie below the
    Nyquist rate 1 / (2 controller_Ts).
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
            raise ValueError("duration must be a positive number of seconds")
        if not (math.isfinite(self.controller_Ts) and self.controller_Ts > 0.0):
            raise ValueError("controller_Ts must be positive")
        periods = self.duration / self.controller_Ts
        if not math.isfinite(periods):
            raise ValueError("duration / controller_Ts overflows: too many periods")
        if round(periods) < 1:
            raise ValueError("duration is shorter than one controller period")
        if abs(periods - round(periods)) > 1e-6 * max(1.0, periods):
            raise ValueError("duration must be an integer multiple of controller_Ts")

        dt = self.controller_Ts / 4.0 if self.plant_dt is None else float(self.plant_dt)
        object.__setattr__(self, "plant_dt", dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("plant_dt must be positive")
        if dt > self.controller_Ts * (1.0 + 1e-12):
            raise ValueError("plant_dt must not exceed controller_Ts")
        ratio = self.controller_Ts / dt
        if not math.isfinite(ratio):
            raise ValueError("plant_dt is too small a fraction of controller_Ts")
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
            raise ValueError("controller_Ts must be an integer multiple of plant_dt")
        ticks, sub = round(periods), round(ratio)
        if ticks * sub > _MAX_RK4_STEPS:
            # blame plant_dt when the run would fit at the default ts/4
            name = "plant_dt" if sub > 4 and ticks * 4 <= _MAX_RK4_STEPS else "duration"
            raise ValueError(f"{name}: {ticks} controller periods of {sub} RK4 "
                             f"steps exceed the limit of {_MAX_RK4_STEPS} steps per run")

        for name in ("x0", "reference"):
            vec = tuple(float(v) for v in np.asarray(getattr(self, name)).ravel())
            if len(vec) != _STATE_DIM:
                raise ValueError(f"{name} must have {_STATE_DIM} entries")
            if not all(math.isfinite(v) for v in vec):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, vec)

        if self.saturation_V is not None:
            object.__setattr__(self, "saturation_V", float(self.saturation_V))
            if not (math.isfinite(self.saturation_V) and self.saturation_V > 0.0):
                raise ValueError("saturation_V must be positive and finite")
        if self.measurement not in ("ideal", "filtered-derivative"):
            raise ValueError(f"unknown measurement mode {self.measurement!r}")
        object.__setattr__(self, "filter_cutoff", float(self.filter_cutoff))
        if not (math.isfinite(self.filter_cutoff) and self.filter_cutoff > 0.0):
            raise ValueError("filter_cutoff must be positive and finite")
        if (self.measurement == "filtered-derivative"
                and self.filter_cutoff >= 0.5 / self.controller_Ts):
            raise ValueError("filter_cutoff must be below the Nyquist rate "
                             "1 / (2 controller_Ts)")
        object.__setattr__(self, "boundary_layer", float(self.boundary_layer))
        if not (math.isfinite(self.boundary_layer) and self.boundary_layer >= 0.0):
            raise ValueError("boundary_layer must be non-negative and finite")


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


# ---------------------------------------------------------------------------
# velocity reconstruction
# ---------------------------------------------------------------------------

# (previous sample, previous backward difference, estimate) before any sample
_FILTER_START = (None, 0.0, 0.0)


def _derivative_filter(Ts: float, cutoff_hz: float):
    """Velocity estimator as a pure step(state, sample) -> state.

    Backward differences pass through a discrete low-pass whose pole comes
    from the bilinear transform of cutoff_hz; the cascade has unity gain on
    constant slopes. Start from _FILTER_START; the estimate after a sample
    is state[2], zero after the first sample since no difference exists yet.
    """
    om = 2.0 * math.pi * cutoff_hz
    c = 2.0 / Ts
    fa, fg = (c - om) / (c + om), om / (c + om)

    def step(state, x):
        prev, praw, y = state
        if prev is None:
            return x, praw, y
        raw = (x - prev) / Ts
        return x, raw, fa * y + fg * (raw + praw)

    return step


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def _same_bits(a: float, b: float) -> bool:
    """Whether a and b are one float bit for bit: zero signs count, NaN never matches."""
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


def simulate(params: PlantParams, design, cfg: SimConfig) -> SimTrace:
    """Run one closed-loop experiment and return its trace.

    The controller type follows the design object: an LqrDesign applies the
    state-feedback law (with integral action when Ki is present), an
    SmcDesign applies the sliding-mode law. The same per-motor voltage goes
    to both motors of the two-wheeled robot. Divergence (any state beyond
    1e3) stops the run early and flags the truncated trace. Ticks at exact
    rest are copied rather than recomputed, as the module docstring says.
    """
    law = _control_law(design, cfg.boundary_layer)
    sat = params.V_max if cfg.saturation_V is None else cfg.saturation_V
    is_smc = isinstance(design, SmcDesign)
    if is_smc and not math.isclose(design.Ts, cfg.controller_Ts, rel_tol=1e-9):
        raise ValueError(f"SMC design sampled at Ts = {design.Ts!r} cannot run "
                         f"at controller_Ts = {cfg.controller_Ts!r}")
    ki = None if is_smc else design.Ki

    Ts = cfg.controller_Ts
    advance = period_stepper(params, cfg.plant_dt, round(Ts / cfg.plant_dt))
    n = round(cfg.duration / Ts)
    spec = cfg.disturbance
    r1, r2, r3, r4 = cfg.reference

    use_filter = cfg.measurement == "filtered-derivative"
    rate = _derivative_filter(Ts, cfg.filter_cutoff)

    t_arr = np.arange(n + 1, dtype=float)
    t_arr *= Ts  # k * Ts, bit for bit, without a temporary array
    x_arr = np.empty((n + 1, _STATE_DIM))
    ucmd_arr = np.empty(n + 1)
    uapp_arr = np.empty(n + 1)
    d_arr = np.empty(n + 1)
    s_arr = np.empty(n + 1) if is_smc else None
    i_arr = np.empty(n + 1) if ki is not None else None

    x1, x2, x3, x4 = cfg.x0
    integ = 0.0
    # derivative-filter states of q1 and q2; empty when measurements are ideal
    f1 = f2 = g1 = g2 = _FILTER_START if use_filter else ()
    diverged = False
    lim = _DIVERGENCE_LIMIT

    k = 0  # next tick; also the number of rows written
    while k <= n:
        if not (abs(x1) <= lim and abs(x2) <= lim
                and abs(x3) <= lim and abs(x4) <= lim):
            diverged = True
            break
        if use_filter:
            g1, g2 = rate(f1, x1), rate(f2, x2)
            e1, e2, e3, e4 = x1 - r1, x2 - r2, g1[2] - r3, g2[2] - r4
        else:
            e1, e2, e3, e4 = x1 - r1, x2 - r2, x3 - r3, x4 - r4

        u, s = law(e1, e2, e3, e4, integ)
        if is_smc:
            s_arr[k] = s
        elif ki is not None:
            i_arr[k] = integ

        ua = saturate(u, sat)
        d = disturbance_value(spec, k * Ts)

        x_arr[k, 0] = x1
        x_arr[k, 1] = x2
        x_arr[k, 2] = x3
        x_arr[k, 3] = x4
        ucmd_arr[k] = u
        uapp_arr[k] = ua
        d_arr[k] = d
        k += 1
        if k > n:
            break

        y1, y2, y3, y4 = advance(x1, x2, x3, x4, ua + d)
        jnteg = integ if ki is None else integ + e1 * Ts
        if y1 == x1 and all(map(_same_bits, (y1, y2, y3, y4, jnteg, *g1, *g2),
                                (x1, x2, x3, x4, integ, *f1, *f2))):
            # at rest: rows repeat row k - 1 until the disturbance changes
            j = k
            while j <= n and _same_bits(disturbance_value(spec, j * Ts), d):
                j += 1
            for arr in (x_arr, ucmd_arr, uapp_arr, d_arr, s_arr, i_arr):
                if arr is not None:
                    arr[k:j] = arr[k - 1]
            k = j
        x1, x2, x3, x4, integ, f1, f2 = y1, y2, y3, y4, jnteg, g1, g2

    return SimTrace(t=t_arr[:k], x=x_arr[:k],
                    u_command=ucmd_arr[:k], u_applied=uapp_arr[:k],
                    d=d_arr[:k],
                    s=s_arr[:k] if is_smc else None,
                    integ=i_arr[:k] if ki is not None else None,
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
