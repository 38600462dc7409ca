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
and calls the loop once, or once per block of a streamed trace.

A run at exact rest is not recomputed tick by tick. When one tick leaves
the carried state (plant state, integral, derivative-filter states)
unchanged bit for bit, each later tick would repeat the same arithmetic on
the same inputs until the disturbance changes value (the column's change
points are found once, before the loop), so its row is copied instead; the
trace bytes are those of computing every tick. The paper's pulse experiment
balances at the upright equilibrium for 60 s before the first pulse, so
half of its ticks are copied.

Given a trace path, simulate writes the trace CSV while the tick loop runs.
The run's table holds the CSV's columns in order (t, the four states, both
command columns, the disturbance, then s or the integral when the design has
one), in an anonymous shared mapping when the trace spans more than one
block of _CSV_BLOCK rows. Before the loop the caller writes the header and
forks one writer child; the loop runs one block at a time and sends the row
count through a pipe after each, and the child formats every complete block
in order and writes it to the file it inherited. When the loop ends, the
parent splits the rows the child has not reached: through a 16-byte shared
slot it reads the block the child is on and sets a block-aligned limit that
halves the estimated cost of formatting the rest (non-zero cells of every
64th row), then sends the last count, marked as the end, and formats the
back part into a temporary file beside the trace while the child writes the
front part. Having reaped the child, it reads where the child stopped and
appends its own blocks from there on; a child that checked the limit before
the parent set it runs past it, and the parent drops the blocks that child
wrote. The bytes are those of save_trace_csv on the returned trace, byte for
byte, which formats the same blocks in one process, as simulate itself does
for a single-block trace or where os.fork does not exist.
"""

from __future__ import annotations

import math
import mmap
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from .linearize import closed_form
from .plants import PlantParams, tick_loop
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
_DIVERGENCE_LIMIT = 1e3
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
            if name == "x0" and max(map(abs, vec)) > _DIVERGENCE_LIMIT:
                raise ValueError(f"x0 entries must lie within +-{_DIVERGENCE_LIMIT:g}")
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
        if x.ndim != 2 or x.shape[0] != t.size:
            raise ValueError("state history must have one row per time sample")
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


def simulate(params: PlantParams, design, cfg: SimConfig, trace_path=None) -> SimTrace:
    """Run one closed-loop experiment and return its trace.

    The controller type follows the design object: an LqrDesign applies the
    state-feedback law (with integral action when Ki is present), an
    SmcDesign applies the sliding-mode law. The same per-motor voltage goes
    to both motors of the two-wheeled robot. Divergence (any state beyond
    1e3, or a period whose stepping raises ValueError, the sine of an
    infinity) stops the run early and flags the trace, truncated after its
    last finite row. Ticks at exact rest are copied rather than recomputed,
    as the module docstring says.

    With trace_path, the trace CSV is complete when the call returns, also
    for a diverged run. A trace of more than one block is written by a child
    forked before the loop and, for the back part of what the child has not
    reached when the loop ends, by the call itself, appended once the child
    is reaped, as the module docstring says. The fork may come from a
    process that holds OpenBLAS worker threads (the command line's does):
    the child touches no BLAS, only slicing, tolist, formatting and file
    writes, and it leaves only through os._exit. A failed child makes the
    call raise OSError; it, an exception in the loop or in formatting the
    call's share, and a failed append each reap the child and remove the
    partial file first.
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
    columns = _CSV_COLUMNS + (("s",) if is_smc else ("integ",) if ki is not None else ())

    om = 2.0 * math.pi * cfg.filter_cutoff
    c = 2.0 / Ts
    # without Ki the integral stays 0.0, and u - 0.0 * 0.0 is u bit for bit
    settings = dict(
        zip(("k1", "k2", "k3", "k4", "l1", "l2", "l3", "l4", "r1", "r2", "r3", "r4"),
            [*map(float, gains), *map(float, surface), *cfg.reference]),
        Ts=Ts, lim=_DIVERGENCE_LIMIT, kk=design.k if is_smc else 0.0, eps=cfg.boundary_layer,
        kint=0.0 if ki is None else ki,
        sat=params.V_max if cfg.saturation_V is None else cfg.saturation_V,
        fa=(c - om) / (c + om), fg=om / (c + om), smc=is_smc,
        filtered=cfg.measurement == "filtered-derivative", integral=ki is not None)
    n = round(cfg.duration / Ts)

    t = np.arange(n + 1, dtype=float)
    t *= Ts  # k * Ts, bit for bit, without a temporary array
    # open loop: one column, viewed as its bits
    d_arr = disturbance_value(cfg.disturbance, t).view(np.int64)
    # the ticks whose disturbance differs bit for bit from the tick before
    changes = np.append(np.flatnonzero(d_arr[1:] != d_arr[:-1]) + 1, n + 1)
    # one contiguous row per CSV column, shared with the writer child if any
    stream = trace_path is not None and n + 1 > _CSV_BLOCK and hasattr(os, "fork")
    width = len(columns)
    table = (np.frombuffer(mmap.mmap(-1, 8 * width * (n + 1))) if stream
             else np.empty(width * (n + 1))).reshape(width, n + 1)
    table[0], table[7] = t, d_arr.view(float)
    t, d_arr = table[0], table[7]  # rebinding frees the first copies
    run, carry = tick_loop(params, cfg.plant_dt, round(Ts / cfg.plant_dt), table, changes,
                           settings, cfg.x0)

    pid, wfd, shared = _fork_writer(trace_path, columns, table) if stream else (None,) * 3
    mark = _CSV_BLOCK if stream else n + 1  # the row count next sent to the writer
    k = 0  # next tick; also the number of rows written
    try:
        while True:  # one call, or one per block sent to the writer
            k, carry, diverged = run(k, min(mark, n + 1), carry)
            if diverged or k > n:
                break
            mark = _send_count(wfd, k)
        if stream:
            share, starts = _format_share(wfd, shared, table, k, trace_path)
    except BaseException:
        if stream:
            _reap_writer(pid, wfd, trace_path, run_failed=True)
        raise
    if stream:
        with share:
            _reap_writer(pid, wfd, trace_path, run_failed=False)
            _append_share(trace_path, share, starts, int(shared[0]))

    trace = SimTrace(t=t[:k], x=table[1:5, :k].T, u_command=table[5, :k],
                     u_applied=table[6, :k], d=d_arr[:k], s=table[8, :k] if is_smc else None,
                     integ=table[8, :k] if ki is not None else None, diverged=diverged)
    if trace_path is not None and not stream:
        save_trace_csv(trace, trace_path)
    return trace


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def _write_blocks(fh, columns, start: int, stop: int) -> None:
    """Write rows start to stop of columns (equal-length float rows) as CSV lines.

    "%r" of a Python float is its repr, so formatting each row's tuple
    writes the same bytes as a repr per cell; converting _CSV_BLOCK rows at
    a time bounds the Python floats alive at once.
    """
    line = ",".join(["%r"] * len(columns)) + "\n"
    for i in range(start, stop, _CSV_BLOCK):
        values = [column[i:min(i + _CSV_BLOCK, stop)].tolist() for column in columns]
        fh.write("".join([line % row for row in zip(*values)]).encode())


def _fork_writer(path, columns, table):
    """Write the CSV header to path and fork the child that writes table's rows.

    Returns (child pid, write end of the count pipe, shared slot). The child
    reads 8-byte row counts and writes every complete block below each; a
    negative count is the last, -rows, after which it writes the tail. The
    slot is two int64 in a shared mapping: before each block the child
    stores the block's start in slot[0], and it stops at the first block
    start at or past slot[1], the parent's limit (none until _format_share
    sets one). Having stopped or written the tail it stores its stop, the
    first row it did not write, in slot[0] and exits 0. It exits 1 when the
    pipe closes before either or a write fails.
    """
    shared = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)
    shared[1] = np.iinfo(np.int64).max
    rfd, wfd = os.pipe()
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(columns) + "\n").encode())
            fh.flush()
            pid = os.fork()
            if pid == 0:  # never return into the caller or flush its buffers
                try:
                    os.close(wfd)
                    done = 0
                    with open(rfd, "rb") as pipe:
                        while len(message := pipe.read(8)) == 8:
                            count = int.from_bytes(message, "little", signed=True)
                            stop = -count if count < 0 else count - count % _CSV_BLOCK
                            while done < stop and done < shared[1]:
                                shared[0] = done
                                _write_blocks(fh, table, done, min(done + _CSV_BLOCK, stop))
                                done = min(done + _CSV_BLOCK, stop)
                            if count < 0 or done >= shared[1]:
                                shared[0] = done
                                fh.flush()
                                os._exit(0)
                finally:  # reached only on an exception or a closed pipe
                    os._exit(1)
    except BaseException:
        os.close(wfd)
        raise
    finally:
        os.close(rfd)
    return pid, wfd, shared


# Estimated cost of formatting one row: the non-zero cells, plus about what
# a row of zeros costs ("0.0" is cheap; a 17-digit cell is not). Measured on
# one 2-vCPU machine: 2.2 ms per 1024 rows of zeros, 0.6 ms more per non-zero
# cell in each row. Every _COST_STRIDE-th row is counted.
_ZERO_ROW_COST = 4
_COST_STRIDE = 64


def _split_row(table, low: int, k: int) -> int:
    """The block start m >= low that gives rows low to m at most half the cost of rows low to k.

    The estimate counts the non-zero cells of every _COST_STRIDE-th row,
    which takes well under a millisecond on a 60,000-row table; m is the
    last block start at which the rows before it, from low, cost at most
    half. Without rows past low it is low.
    """
    cost = np.count_nonzero(table[:, low:k:_COST_STRIDE], axis=0) + _ZERO_ROW_COST
    if not cost.size:
        return low
    blocks = np.cumsum(np.add.reduceat(cost, np.arange(0, cost.size, _CSV_BLOCK // _COST_STRIDE)))
    return low + int(np.searchsorted(blocks, blocks[-1] / 2, side="right")) * _CSV_BLOCK


def _format_share(wfd: int, shared, table, k: int, path):
    """Split the rows the writer child has not reached; format the back part.

    Past the block the child is on, at slot[0], the split m is the block
    start that halves the estimated cost of the rest (_split_row). The
    parent sets it as the child's limit, sends the last count and formats
    rows m to k itself, one block at a time, into a temporary file beside
    path. It returns that file and the (start row, offset) of each block in
    it. When no row lies past the child's block it sets no limit and formats
    nothing, and the child writes every row. A child that checked the limit
    before it was set may run past m; _append_share drops the blocks it
    wrote. On an exception the temporary file is closed, which deletes it.
    """
    low = int(shared[0]) + _CSV_BLOCK
    m = _split_row(table, low, k)
    if m < k:
        shared[1] = m
    _send_count(wfd, -k)  # the last count, marked by its sign
    share = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
    try:
        starts = []
        for start in range(m, k, _CSV_BLOCK):
            starts.append((start, share.tell()))
            _write_blocks(share, table, start, min(start + _CSV_BLOCK, k))
    except BaseException:
        share.close()
        raise
    return share, starts


def _send_count(wfd: int, count: int):
    """Send a row count to the writer child; return the next count to send.

    A child that failed has closed its end: the run goes on without
    sending, and reaping the child reports the failure. So has a child that
    stopped at the parent's limit before the last count arrived, which is
    no failure.
    """
    try:
        os.write(wfd, count.to_bytes(8, "little", signed=True))
    except BrokenPipeError:
        return math.inf
    return count - count % _CSV_BLOCK + _CSV_BLOCK


def _reap_writer(pid: int, wfd: int, path, run_failed: bool) -> None:
    """Close the count pipe and reap the writer child.

    A failed run or child leaves no partial trace file; a failed child, in a
    run that succeeded, raises OSError.
    """
    os.close(wfd)
    status = os.waitpid(pid, 0)[1]
    if (run_failed or status) and os.path.isfile(path):
        os.remove(path)
    if status and not run_failed:
        raise OSError(f"the trace writer's child failed (wait status {status})")


def _append_share(path, share, starts, stop: int) -> None:
    """Append the parent's blocks from the reaped child's stop on.

    share is the temporary file of _format_share, starts its (start row,
    offset) pairs; it is copied from the first block at or past stop, a
    buffer at a time. A failed append removes the partial trace file before
    it raises.
    """
    offsets = [offset for start, offset in starts if start >= stop]
    try:
        with open(path, "ab") as fh:
            if offsets:
                share.seek(offsets[0])
                shutil.copyfileobj(share, fh)
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def save_trace_csv(trace: SimTrace, path) -> None:
    """Write a trace as CSV with IEEE round-trip decimal formatting.

    It formats the blocks that simulate's writer child formats, in the
    calling process, so the bytes equal a trace simulate wrote itself.
    """
    columns = list(_CSV_COLUMNS)
    arrays = [trace.t, *trace.x.T, trace.u_command, trace.u_applied, trace.d]
    for name in ("s", "integ"):
        if getattr(trace, name) is not None:
            columns.append(name)
            arrays.append(getattr(trace, name))
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        _write_blocks(fh, arrays, 0, trace.t.size)
