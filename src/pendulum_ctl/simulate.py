"""Closed-loop time-domain simulation.

The nonlinear plant is integrated with classic fourth-order Runge-Kutta at
a fine step plant_dt (check_plant_step refuses one at which RK4 amplifies a
decaying plant mode) while the controller runs at controller_Ts under a
zero-order hold. The command is saturated to the supply voltage; the
disturbance is a square pulse train added to the applied voltage after
saturation and deliberately not re-clamped, since it models an external
torque-equivalent injection rather than part of the commanded signal.

The controller applies u = -K e - Ki integ (LQR, integral term optional)
or u = -Keq e - k sign(s) with s = L e (SMC; sign(0) = 0, and inside an
optional boundary layer |s| < eps, s / eps), where e is the measured state
minus the reference. Measurements are ideal by default. The
filtered-derivative mode feeds the controller velocity estimates built from
backward differences (none before the first sample, so the first estimate
is zero) smoothed by a bilinear-mapped first-order low-pass, emulating
encoder-only sensing. The laws, the filter and the tick loop that stores
each tick in one table are plants.tick_loop, written once for a Python and a
C loop; simulate checks the run, precomputes the open-loop disturbance,
and calls the loop once.

A run at exact rest is not recomputed tick by tick. When one tick leaves
the carried state (plant state, integral, derivative-filter states)
unchanged bit for bit, each later tick would repeat the same arithmetic on
the same inputs while the disturbance keeps its value bit for bit (the loop
tests each next row's), so its row is copied instead; the trace bytes are
those of computing every tick. The paper's pulse experiment
balances at the upright equilibrium for 60 s before the first pulse, so
half of its ticks are copied.

save_trace_csv writes a returned trace as CSV. The run's table holds the
CSV's columns after t in order (the four states, both command columns, the
disturbance, then s or the integral when the design has one); the writer
formats the trace's times and views of it, _CSV_BLOCK rows at a time. Each
cell is its float's repr: written by a C formatter (the shortest
round-trip digits by Schubfach, from a power-of-ten table made from exact
integers when the source is generated) where cc is at hand and its probe
matches repr, else by a Python "%r" template, with the same bytes.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .linearize import closed_form
from .matrixfile import write_whole
from .plants import DIVERGENCE_LIMIT, PlantParams, native_function, tick_loop
from .synthesis import LqrDesign, SmcDesign

__all__ = [
    "DisturbanceSpec",
    "SimConfig",
    "SimTrace",
    "standard_pulse_train",
    "disturbance_value",
    "check_plant_step",
    "simulate",
    "save_trace_csv",
]

_STATE_DIM = 4
# RK4 steps one run may take (ticks x sub-steps), about 40 paper pulse runs;
# simulate allocates every trace row up front
_MAX_RK4_STEPS = 10 ** 7
_CSV_BLOCK = 1024  # trace rows formatted per write
_CSV_COLUMNS = ("t", "q1", "q2", "q1dot", "q2dot", "u_cmd", "u_applied", "dist")


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


def disturbance_value(spec: DisturbanceSpec, t: float | np.ndarray) -> float | np.ndarray:
    """Disturbance voltage at time t (zero before start_time).

    t may be a float, which gives a float, or an array of times, which gives
    an array; each value equals the float computation bit for bit.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("time must be finite and non-negative")
    d = np.zeros_like(t)
    if spec.kind == "pulse_train" and spec.amplitude != 0.0:
        period = 1.0 / spec.frequency
        d[(t >= spec.start_time)
          & ((t - spec.start_time) % period < spec.duty * period)] = spec.amplitude
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class SimConfig:
    """Run settings for one closed-loop experiment.

    duration must be a whole number of controller periods. plant_dt
    defaults to controller_Ts / 4 and must divide controller_Ts evenly.
    One run takes at most 10^7 RK4 steps (periods x steps per period).
    saturation_V defaults to the plant's supply voltage. Under the
    filtered-derivative measurement, filter_cutoff must lie below the
    Nyquist rate 1 / (2 controller_Ts). x0 entries lie within +-1e3.
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
        for name in ("duration", "controller_Ts", "filter_cutoff", "boundary_layer"):
            object.__setattr__(self, name, float(getattr(self, name)))
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
            if name == "x0" and max(map(abs, vec)) > DIVERGENCE_LIMIT:
                raise ValueError(f"x0 entries must lie within +-{DIVERGENCE_LIMIT:g}")
            object.__setattr__(self, name, vec)

        if self.saturation_V is not None:
            object.__setattr__(self, "saturation_V", float(self.saturation_V))
            if not (math.isfinite(self.saturation_V) and self.saturation_V > 0.0):
                raise ValueError("saturation_V must be positive and finite")
        if self.measurement not in ("ideal", "filtered-derivative"):
            raise ValueError(f"unknown measurement mode {self.measurement!r}")
        if not (math.isfinite(self.filter_cutoff) and self.filter_cutoff > 0.0):
            raise ValueError("filter_cutoff must be positive and finite")
        if (self.measurement == "filtered-derivative"
                and self.filter_cutoff >= 0.5 / self.controller_Ts):
            raise ValueError("filter_cutoff must be below the Nyquist rate "
                             "1 / (2 controller_Ts)")
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
        if x.shape != (t.size, _STATE_DIM):
            raise ValueError(f"state history must be {t.size} x {_STATE_DIM}, got shape {x.shape}")
        object.__setattr__(self, "x", x)
        for name in ("u_command", "u_applied", "d", "s", "integ"):
            val = getattr(self, name)
            if val is not None or name not in ("s", "integ"):  # s and integ are optional
                arr = np.asarray(val, dtype=float).ravel()
                if arr.size != t.size:
                    raise ValueError(f"{name} length does not match the time vector")
                object.__setattr__(self, name, arr)
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("time samples must be strictly increasing")
        object.__setattr__(self, "diverged", bool(self.diverged))


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def check_plant_step(params: PlantParams, plant_dt: float) -> None:
    """Refuse a plant_dt at which RK4 amplifies a decaying mode of the plant.

    RK4 multiplies a mode of rate lam by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
    per step, z = lam plant_dt. For a mode of the upright linearization with
    Re lam < 0, |R| > 1 would make it grow; the ValueError names the mode and
    the largest stable step, found by bisection (2.7853 / |lam| for real lam).
    """
    def grows(z):
        return abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))) > 1.0

    step, mode = plant_dt, None
    for lam in np.linalg.eigvals(closed_form(params).A).tolist():
        # |R| > 1 wherever Re z < 0 and |z| >= 3: no stable step exceeds 3 / |lam|
        lo, hi = 0.0, (min(step, 3.0 / abs(lam)) if lam.real < 0.0 else 0.0)
        if hi > 0.0 and grows(lam * hi):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if grows(lam * mid) else (mid, hi)
            step, mode = lo, lam
    if mode is not None:
        name = f"{mode.real:.6g}" if mode.imag == 0.0 else f"{mode:.6g}"
        raise ValueError(f"plant_dt = {plant_dt!r} s makes RK4 unstable on the plant "
                         f"mode at {name} rad/s; the largest stable step is {step:.4e} s")


def simulate(params: PlantParams, design, cfg: SimConfig) -> SimTrace:
    """Run one closed-loop experiment and return its trace.

    The controller type follows the design object: an LqrDesign applies the
    state-feedback law (with integral action when Ki is present), an
    SmcDesign applies the sliding-mode law. The same per-motor voltage goes
    to both motors of the two-wheeled robot. Divergence (a period that ends
    beyond 1e3 or leaves the floats: the sine of an infinity, a zero
    determinant) stops the run early and flags the trace, truncated after
    its last finite row. Ticks at exact rest are copied rather than
    recomputed, as the module docstring says. save_trace_csv writes the
    returned trace, a diverged one included.
    """
    check_plant_step(params, cfg.plant_dt)
    Ts = cfg.controller_Ts
    is_smc = isinstance(design, SmcDesign)
    if is_smc:
        if design.L.size != _STATE_DIM or design.Keq.size != _STATE_DIM:
            raise ValueError("L and Keq must span the four plant states")
        if not math.isclose(design.Ts, Ts, rel_tol=1e-9):
            raise ValueError(f"SMC design sampled at Ts = {design.Ts!r} cannot run "
                             f"at controller_Ts = {Ts!r}")
        gains, surface, ki = design.Keq, design.L, None
    elif isinstance(design, LqrDesign):
        if design.K.shape != (1, _STATE_DIM):
            raise ValueError("expected a single gain row over the four plant states")
        gains, surface, ki = design.K[0], np.zeros(_STATE_DIM), design.Ki
    else:
        raise TypeError(f"unsupported design type {type(design).__name__}")

    om = 2.0 * math.pi * cfg.filter_cutoff
    c = 2.0 / Ts
    # without Ki the integral stays 0.0, and u - 0.0 * 0.0 is u bit for bit
    settings = dict(
        zip(("k1", "k2", "k3", "k4", "l1", "l2", "l3", "l4", "r1", "r2", "r3", "r4"),
            [*map(float, gains), *map(float, surface), *cfg.reference]),
        Ts=Ts, kk=design.k if is_smc else 0.0, eps=cfg.boundary_layer,
        kint=0.0 if ki is None else ki,
        sat=params.V_max if cfg.saturation_V is None else cfg.saturation_V,
        fa=(c - om) / (c + om), fg=om / (c + om), smc=is_smc,
        filtered=cfg.measurement == "filtered-derivative", integral=ki is not None)
    n = round(cfg.duration / Ts)

    t = np.arange(n + 1, dtype=float)
    t *= Ts  # k * Ts, bit for bit, without a temporary array
    table, diverged = tick_loop(params, cfg.plant_dt, round(Ts / cfg.plant_dt),
                                disturbance_value(cfg.disturbance, t), settings, cfg.x0)
    # s or the integral, when the design records one, is the last row
    return SimTrace(t=t[:table.shape[1]], x=table[:4].T, u_command=table[4], u_applied=table[5],
                    d=table[6], s=table[-1] if is_smc else None,
                    integ=table[-1] if ki is not None else None, diverged=diverged)


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def _write_blocks(fh, columns, start: int, stop: int) -> None:
    """Write rows start to stop of columns (equal-length float rows) as CSV lines.

    "%r" of a Python float is its repr, so formatting each row's tuple
    writes the same bytes as a repr per cell; converting _CSV_BLOCK rows at
    a time bounds the Python floats alive at once. This is the formatter
    without cc, and the reference the C one is probed against.
    """
    line = ",".join(["%r"] * len(columns)) + "\n"
    for i in range(start, stop, _CSV_BLOCK):
        values = [column[i:min(i + _CSV_BLOCK, stop)].tolist() for column in columns]
        fh.write("".join([line % row for row in zip(*values)]).encode())


# The C row formatter. Each cell is what CPython's repr writes: the shortest
# decimal that reads back as the same double (the nearest such, an even last
# digit on a tie), found by Schubfach (R. Giulietti, "The Schubfach way to
# render doubles", 2020); then fixed notation for a decimal exponent in
# [-4, 16), a ".0" on a whole number, else d.ddde+XX with two exponent digits
# at least; "-0.0", "inf", "-inf", and "nan" whatever the sign bit. No printf,
# no locale. shortest follows the paper's algorithm, with 63-bit halves of g
# as in its Java implementation, except that it tries one digit fewer from
# two digits on, not three, since repr, unlike Java, may write one digit
# (5e-324, not 4.9e-324). {g} is the table of g(k), {kmin} its first k, {pairs} "00".."99".
# format_rows writes rows start to stop of ncols columns, column j at address
# cols[2 j] with a stride of cols[2 j + 1] bytes, and returns the bytes written.
_CSV_C_SOURCE = r"""
#include <stdint.h>

typedef unsigned __int128 u128;

static const uint64_t G[][2] = {
{g}
};

static const char PAIRS[] = "{pairs}";

/* floor(e log10 2), floor(e log10 2 + log10 3/4) and floor(e log2 10), exact
   over the exponents of doubles */
#define FLOG10POW2(e) ((int)(((int64_t)(e) * 661971961083LL) >> 41))
#define FLOG10THREEQUARTERSPOW2(e) ((int)(((int64_t)(e) * 661971961083LL - 274743187321LL) >> 41))
#define FLOG2POW10(e) ((int)(((int64_t)(e) * 913124641741LL) >> 38))

/* g cp / 2^127 rounded to odd, g = g[0] 2^63 + g[1] */
static uint64_t rop(const uint64_t *g, uint64_t cp)
{
    uint64_t x1 = (uint64_t)(((u128)g[1] * cp) >> 64);
    u128 y = (u128)g[0] * cp;
    uint64_t z = ((uint64_t)y >> 1) + x1;
    uint64_t vbp = (uint64_t)(y >> 64) + (z >> 63);
    return vbp | (((z & 0x7fffffffffffffffULL) + 0x7fffffffffffffffULL) >> 63);
}

/* the shortest f 10^k nearest to c 2^q that reads back as it; returns k */
static int shortest(uint64_t c, int q, uint64_t *f)
{
    int out = (int)(c & 1), k;
    uint64_t cb = c << 2, cbr = cb + 2, cbl;
    if (c != 1ULL << 52 || q == -1074) {
        cbl = cb - 2;
        k = FLOG10POW2(q);
    } else {
        cbl = cb - 1;
        k = FLOG10THREEQUARTERSPOW2(q);
    }
    int h = q + FLOG2POW10(-k) + 2;
    const uint64_t *g = G[k - ({kmin})];
    uint64_t vb = rop(g, cb << h), vbl = rop(g, cbl << h), vbr = rop(g, cbr << h);
    uint64_t s = vb >> 2;
    if (s >= 10) {
        uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
        int upin = vbl + out <= sp10 << 2, wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin) {
            *f = upin ? sp10 : tp10;
            return k;
        }
    }
    uint64_t t = s + 1;
    int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win) {
        *f = uin ? s : t;
        return k;
    }
    int64_t cmp = (int64_t)(vb - ((s + t) << 1));
    *f = cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t;
    return k;
}

/* x as repr writes it, at p; returns the end */
static char *cell(char *p, double x)
{
    uint64_t bits, f;
    __builtin_memcpy(&bits, &x, 8);
    uint64_t c = bits & ((1ULL << 52) - 1);
    int bq = (int)(bits >> 52) & 0x7ff, e, i;
    if (bq == 0x7ff && c) {
        *p++ = 'n'; *p++ = 'a'; *p++ = 'n';
        return p;
    }
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0x7ff) {
        *p++ = 'i'; *p++ = 'n'; *p++ = 'f';
        return p;
    }
    if (bq == 0 && c == 0) {
        *p++ = '0'; *p++ = '.'; *p++ = '0';
        return p;
    }
    int q = bq ? bq - 1075 : -1074;
    if (bq)
        c |= 1ULL << 52;
    if (q < 0 && q > -53 && (c >> -q) << -q == c) {
        f = c >> -q;  /* a whole number below 2^53: its digits */
        e = 0;
    } else {
        e = shortest(c, q, &f);
    }
    while (f % 10 == 0) {
        f /= 10;
        e++;
    }
    char d[20];
    int n = 20;
    for (; f >= 10; f /= 100) {
        d[--n] = PAIRS[2 * (f % 100) + 1];
        d[--n] = PAIRS[2 * (f % 100)];
    }
    if (f)
        d[--n] = (char)('0' + f);
    int len = 20 - n, decpt = len + e;
    const char *ds = d + n;
    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            *p++ = '0'; *p++ = '.';
            for (i = decpt; i < 0; i++) *p++ = '0';
            for (i = 0; i < len; i++) *p++ = ds[i];
        } else if (decpt < len) {
            for (i = 0; i < decpt; i++) *p++ = ds[i];
            *p++ = '.';
            for (; i < len; i++) *p++ = ds[i];
        } else {
            for (i = 0; i < len; i++) *p++ = ds[i];
            for (; i < decpt; i++) *p++ = '0';
            *p++ = '.'; *p++ = '0';
        }
        return p;
    }
    *p++ = ds[0];
    if (len > 1) {
        *p++ = '.';
        for (i = 1; i < len; i++) *p++ = ds[i];
    }
    int x10 = decpt - 1;
    *p++ = 'e';
    *p++ = x10 < 0 ? '-' : '+';
    if (x10 < 0)
        x10 = -x10;
    if (x10 >= 100) {
        *p++ = (char)('0' + x10 / 100);
        x10 %= 100;
    }
    *p++ = PAIRS[2 * x10];
    *p++ = PAIRS[2 * x10 + 1];
    return p;
}

int64_t format_rows(int64_t ncols, const int64_t *cols, int64_t start, int64_t stop, char *out)
{
    char *p = out;
    for (int64_t i = start; i < stop; i++) {
        for (int64_t j = 0; j < ncols; j++) {
            double x;
            __builtin_memcpy(&x, (const char *)(intptr_t)cols[2 * j] + i * cols[2 * j + 1], 8);
            p = cell(p, x);
            *p++ = j + 1 < ncols ? ',' : '\n';
        }
    }
    return p - out;
}
"""

# The decimal exponents k = floor(log10 2^q), or floor(log10 (3/4) 2^q), of
# the doubles' binary exponents q in [-1074, 971]
_POW10_RANGE = range(-324, 293)
# format_rows(ncols, cols, start, stop, out) -> bytes written
_FORMAT_SIGNATURE = ("c_int64", "c_int64", "c_void_p", "c_int64", "c_int64", "c_void_p")
_CSV_CELL = 25  # bytes of the longest cell, "-2.2250738585072014e-308", and its separator


def _csv_c_source() -> str:
    """_CSV_C_SOURCE with its table, from exact integers: g(k) for each k in _POW10_RANGE.

    g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, in [2^125, 2^126],
    written as its high bits g >> 63 and its low 63 bits.
    """
    rows = []
    for k in _POW10_RANGE:
        p = 10 ** abs(k)
        if k <= 0:  # 10^-k = p, of floor(log2) p.bit_length() - 1
            shift = 126 - p.bit_length()
            g = p << shift if shift >= 0 else p >> -shift
        else:  # 10^-k = 1 / p, of floor(log2) -p.bit_length(), p no power of 2
            g = (1 << 125 + p.bit_length()) // p
        g += 1
        rows.append(f"    {{{g >> 63:#x}ULL, {g & (1 << 63) - 1:#x}ULL}},")
    return (_CSV_C_SOURCE.replace("{g}", "\n".join(rows))
            .replace("{kmin}", str(_POW10_RANGE[0]))
            .replace("{pairs}", "".join(f"{i:02d}" for i in range(100))))


def _write_native(fh, native, columns, start: int, stop: int) -> None:
    """_write_blocks' bytes, each block formatted by the C formatter native into one buffer."""
    if not all(isinstance(column, np.ndarray) and column.dtype == np.float64
               and column.ndim == 1 and column.size >= stop for column in columns):
        raise ValueError(f"columns must be float64 rows of {stop} values at least")
    spans = np.array([(column.ctypes.data, column.strides[0]) for column in columns],
                     dtype=np.int64)
    buffer = np.empty(_CSV_BLOCK * len(columns) * _CSV_CELL, dtype=np.uint8)
    for i in range(start, stop, _CSV_BLOCK):
        size = native(len(columns), spans.ctypes.data, i, min(i + _CSV_BLOCK, stop),
                      buffer.ctypes.data)
        fh.write(buffer[:size])


# Cells the C formatter must write as repr does before it is used: zeros,
# infinities and NaNs of both signs, the least subnormal and normal, the
# greatest finite double, both ends of fixed notation, whole numbers at 2^53,
# ties between two shortest decimals (to an even last digit, down and up),
# and trace-like values
_PROBE_CELLS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -1e-323,
    2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308, -1e-310,
    1e-4, 9.999999999999999e-05, 1e-5, 0.00012345, 9999999999999998.0, 1e16,
    1.0000000000000002e16, -123456789012345.67, 9007199254740992.0, 9007199254740993.0,
    4503599627370497.0, 562949953421312.25, 1e22, 1e23, 2.0 ** 63, 100.0, 3.0, -1.5, 0.1,
    0.30000000000000004, 1 / 3, -2 / 3, 0.002, 59.998000000000005, 562949953421312.75, 1e-7,
    -6.02214076e23, 2.5e-300,
)


def _formatter_mismatch(native):
    """The first probe line on which the C formatter native differs from _write_blocks, or None.

    The probe cells stand in 5 rows of 8 strided columns, formatted in two
    calls (rows 0 to 2 and 2 to 5).
    """
    columns = list(np.array(_PROBE_CELLS).reshape(5, 8).T)
    want, got = io.BytesIO(), io.BytesIO()
    _write_blocks(want, columns, 0, 5)
    _write_native(got, native, columns, 0, 2)
    _write_native(got, native, columns, 2, 5)
    if got.getvalue() == want.getvalue():
        return None
    lines = enumerate(zip(want.getvalue().split(b"\n"), got.getvalue().split(b"\n")))
    return next((f"probe line {i}: {g!r} for {w!r}" for i, (w, g) in lines if w != g),
                "the probe's line count")


@functools.cache
def _formatter():
    """The C row formatter, or None to format with _write_blocks.

    Once per process, on the first trace written: the object csv, built,
    cached and loaded by plants.native_function. None without it, or when
    it formats a probe cell otherwise than repr.
    """
    native = native_function("csv", _csv_c_source(), "format_rows", _FORMAT_SIGNATURE)
    return None if native is None or _formatter_mismatch(native) is not None else native


def save_trace_csv(trace: SimTrace, path) -> None:
    """Write a trace as CSV with IEEE round-trip decimal formatting.

    Each cell is its float's repr. The calling process writes the header
    and then one block of _CSV_BLOCK rows at a time: formatted by the C
    formatter where cc is at hand and its probe passed, else by the Python
    template of _write_blocks, with the same bytes. The file is published
    whole by matrixfile.write_whole: any exception, an interrupt included,
    removes the new file and leaves a trace already at path as it was.
    """
    columns = list(_CSV_COLUMNS)
    arrays = [trace.t, *trace.x.T, trace.u_command, trace.u_applied, trace.d]
    for name in ("s", "integ"):
        if getattr(trace, name) is not None:
            columns.append(name)
            arrays.append(getattr(trace, name))
    native = _formatter()

    def write(fh):
        fh.write((",".join(columns) + "\n").encode())
        if native is None:
            _write_blocks(fh, arrays, 0, trace.t.size)
        else:
            _write_native(fh, native, arrays, 0, trace.t.size)

    write_whole(path, write, "wb")
