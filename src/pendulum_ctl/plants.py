"""Physical parameters and nonlinear dynamics of the two platforms.

Both plants are planar two-degree-of-freedom systems written in the
actuator-referred form

    M(q) qddot + C(q, qdot) qdot + G(q) = V

with V in volts. For the rotary pendulum (RotPen) the generalized
coordinates are the arm angle q1 and the pole angle q2 (zero upright), and
V = [v, 0] for a single motor voltage v. For the two-wheeled robot (NxtWay)
q1 is the wheel angle, q2 the body pitch (zero upright), and both rows of V
carry the sum of the left and right motor voltages; yaw is frozen and the
two wheels are driven symmetrically.

The RotPen mass matrix carries the voltage referral factor gamma on its
first row only, so it is deliberately not symmetric; mechanical_energy uses
the underlying symmetric mechanical form instead.

Each platform's M, C and G entries and the solve for its accelerations are
written once, as text (_DYNAMICS). simulate's tick loop is written once as
well (_TICK): the measurement, the control laws, the clamp, the row store,
one period of RK4 steps over that text, the divergence test and the rest
test with its copy of a row at rest. Each platform has two generated Python
kernels, compiled once per process on first use and registered with
linecache, so tracebacks show their lines: scalar_rhs, the accelerations
that linearize.jacobian_linearize differentiates, and the run kernel that
tick_loop calls. Where cc and ctypes are at hand, tick_loop runs instead a
C run function, written from the same text's syntax tree (_c_statements
refuses the constructs it lists); it is used only once it has reproduced
the Python loop bit for bit on fixed probe runs, run whole and resumed in
slices. Either kernel runs a run from a given row until a stop row, and
resumes it from the state it carries, so tick_loop runs a run 1024 rows at
a time, on whichever thread iterates it. A run ends in the loop that
started it: one divergence test after each period ends it where the
period's state lies beyond DIVERGENCE_LIMIT or leaves the floats, which
the Python loop meets as a raise and the C loop as infinities and NaNs.

native_function is the one path by which C reaches the package: it builds
an object from its generated source once, keeps it in a per-user cache
under its name and a hash of what generates it (the generating module's
source bytes, read at that module's import), and loads one function from
it. The tick loop's objects (tick-rotpen, tick-nxtway) and simulate's trace
formatter (csv) go through it; each caller probes what it loads against
its Python counterpart before using it. The tick loop's probe compares the
C runs with a digest of outcomes stored beside the object, the Python
runs' or those of C runs refused, and runs the Python ones again only when
that digest is missing or differs.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import functools
import hashlib
import linecache
import math
import os
import re
import stat
import struct
import subprocess
import sys
import sysconfig
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

from .matrixfile import write_whole

__all__ = [
    "RotPenParams",
    "NxtwayParams",
    "PlantParams",
    "default_params",
    "params_from_mapping",
    "scalar_rhs",
    "tick_loop",
    "DIVERGENCE_LIMIT",
    "native_function",
    "module_source",
    "mechanical_energy",
]


def _check_fields(params, positive: tuple, non_negative: tuple) -> None:
    """Raise ValueError unless each named field is finite and has its sign."""
    for name in positive + non_negative:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if name in positive and not value > 0.0:
            raise ValueError(f"{name} must be positive")
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class RotPenParams:
    """Physical constants of the rotary inverted pendulum.

    Lengths are meters, masses kilograms, inertias kg m^2, frictions
    N m s/rad. Motor inductance is neglected: its electrical time constant,
    about 69 us, is small against the 2 ms controller period. The gear and
    motor efficiencies eta_g and eta_m lie in (0, 1]. The voltage referral
    gamma and the mass-matrix constants are derived read-only properties.
    """

    g: float = 9.81
    m_p: float = 0.127
    L_p: float = 0.337
    J_p: float = 0.0012
    m_r: float = 0.257
    L_r: float = 0.216
    J_r: float = 9.98e-3
    f_p: float = 0.0024
    f_r: float = 0.0024
    R_m: float = 2.6
    K_m: float = 0.00767
    K_t: float = 0.00767
    eta_g: float = 0.9
    eta_m: float = 0.69
    K_g: float = 70.0
    V_max: float = 6.0

    def __post_init__(self) -> None:
        _check_fields(self, ("g", "m_p", "L_p", "J_p", "m_r", "L_r", "J_r", "R_m",
                             "K_t", "eta_g", "eta_m", "K_g", "V_max"),
                      ("f_p", "f_r", "K_m"))
        for name in ("eta_g", "eta_m"):
            if getattr(self, name) > 1.0:
                raise ValueError(f"{name} is an efficiency and must be at most 1")

    @property
    def platform(self) -> str:
        return "rotpen"

    @property
    def gamma(self) -> float:
        """Voltage referral constant R_m / (K_t K_g eta_g eta_m)."""
        return self.R_m / (self.K_t * self.K_g * self.eta_g * self.eta_m)

    @property
    def mass_constants(self) -> tuple[float, float, float, float]:
        """(a, b, c, l2) in the mass matrix [[a + l2 sin^2 q2, -b cos q2], [-b cos q2, c]]."""
        l2 = self.m_p * (self.L_p / 2) ** 2
        a = self.m_r * (self.L_r / 2) ** 2 + self.m_p * self.L_r ** 2 + self.J_r
        return a, 0.5 * self.m_p * self.L_p * self.L_r, l2 + self.J_p, l2


@dataclass(frozen=True)
class NxtwayParams:
    """Physical constants of the two-wheeled balancing robot.

    eta is the gear ratio between motor and wheel. Yaw is frozen, so the
    body width and depth are not model constants. The wheel and body
    inertias J_w, J_q2, the motor constants alpha, beta and the
    mass-matrix constants are derived quantities exposed as read-only
    properties.
    """

    g: float = 9.81
    m: float = 0.03
    R: float = 0.02
    M: float = 0.6
    L: float = 0.12
    J_m: float = 1e-5
    f_m: float = 0.0022
    f_w: float = 0.0
    R_m: float = 6.69
    K_b: float = 0.468
    K_t: float = 0.317
    eta: float = 1.0
    V_max: float = 10.0

    def __post_init__(self) -> None:
        _check_fields(self, ("g", "m", "R", "M", "L", "J_m", "R_m", "K_t", "eta", "V_max"),
                      ("f_m", "f_w", "K_b"))

    @property
    def platform(self) -> str:
        return "nxtway"

    @property
    def J_w(self) -> float:
        """Wheel inertia m R^2 / 2."""
        return self.m * self.R ** 2 / 2

    @property
    def J_q2(self) -> float:
        """Body pitch inertia M L^2 / 3."""
        return self.M * self.L ** 2 / 3

    @property
    def alpha(self) -> float:
        """Motor torque constant eta K_t / R_m (per motor, N m / V)."""
        return self.eta * self.K_t / self.R_m

    @property
    def beta(self) -> float:
        """Combined back-EMF and friction constant eta K_t K_b / R_m + f_m."""
        return self.eta * self.K_t * self.K_b / self.R_m + self.f_m

    @property
    def mass_constants(self) -> tuple[float, float, float]:
        """(eta^2 J_m, wheel inertia pw, body inertia rb) of the mechanical mass matrix."""
        n2Jm = self.eta ** 2 * self.J_m
        pw = 2 * self.m * self.R ** 2 + self.M * self.R ** 2 + 2 * self.J_w + 2 * n2Jm
        return n2Jm, pw, self.M * self.L ** 2 + self.J_q2 + 2 * n2Jm


PlantParams = Union[RotPenParams, NxtwayParams]


def default_params(platform: str) -> PlantParams:
    """Return the factory parameter set for "rotpen" or "nxtway"."""
    key = platform.strip().lower()
    if key == "rotpen":
        return RotPenParams()
    if key == "nxtway":
        return NxtwayParams()
    raise ValueError(f"unknown platform {platform!r} (expected rotpen or nxtway)")


def params_from_mapping(platform: str, overrides: Mapping[str, object]) -> PlantParams:
    """Build a parameter set from defaults plus key = value overrides.

    Keys must name fields of the platform's parameter set. Derived
    quantities (gamma; J_w, J_q2, alpha, beta) are properties, not fields,
    so they are refused as unknown keys like any other name.

    Raises
    ------
    ValueError
        For an unknown key, a non-numeric or non-finite value, or a
        violated base-field invariant.
    """
    base = default_params(platform)
    fields = {f.name for f in dataclasses.fields(base)}
    values: dict[str, float] = {}
    for key, raw in overrides.items():
        try:
            value = float(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(f"parameter {key}: {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise ValueError(f"parameter {key}: {raw!r} is not finite")
        if key not in fields:
            raise ValueError(f"unknown parameter {key!r} for platform {base.platform}")
        values[key] = value
    return dataclasses.replace(base, **values)


# ---------------------------------------------------------------------------
# generated dynamics kernels
# ---------------------------------------------------------------------------

def _rotpen_constants(p: RotPenParams) -> dict:
    a, b, c, lp2 = p.mass_constants
    gam = p.gamma
    return dict(a=a, c=c, lp2=lp2, gam=gam, kmkg=p.K_m * p.K_g, fr=p.f_r, fp=p.f_p,
                halfmpg=0.5 * p.m_p * p.L_p * p.g,
                ngb=-gam * b, nb=-b, lp2x2=2 * lp2, gb=gam * b)


def _nxtway_constants(p: NxtwayParams) -> dict:
    n2Jm, pw, rb = p.mass_constants
    al, be = p.alpha, p.beta
    m11, m22 = pw / al, -rb / al
    return dict(al=al, MLR=p.M * p.L * p.R, MgL=p.M * p.g * p.L,
                m11=m11, m22=m22, m11m22=m11 * m22,
                c11=2 * (be + p.f_w) / al, c21=2 * be / al,
                nbe2=-2 * be, n2Jm2=2 * n2Jm)


# The dynamics of each platform, written once, as (parameter-only
# constants, one stage: the M, C and G entries, then the Cramer solve of M
# qddot = V - C qdot - G). In the stage {q2}, {q1d}, {q2d} and the voltage v
# are the inputs and {q1dd}, {q2dd} its outputs; every other name is a
# constant or a temporary that no tick name repeats. An entry the solve uses
# negated is stored negated (nc21 is -c21), which is exact, so the solve
# keeps the operations of the formulas.
_DYNAMICS = {
    "rotpen": (_rotpen_constants, """\
s = sin({q2})
co = cos({q2})
lp2s = lp2 * s
m11 = gam * (a + lp2s * s)
m12 = ngb * co
m21 = nb * co
c11 = gam * (lp2x2 * s * co * {q2d} + fr) + kmkg
c12 = gb * s * {q2d}
nc21 = lp2s * co * {q1d}
ng2 = halfmpg * s
f1 = v - c11 * {q1d} - c12 * {q2d}
f2 = nc21 * {q1d} - fp * {q2d} + ng2
det = m11 * c - m12 * m21
{q1dd} = (c * f1 - m12 * f2) / det
{q2dd} = (m11 * f2 - m21 * f1) / det"""),
    "nxtway": (_nxtway_constants, """\
v2 = 2.0 * v
s = sin({q2})
co = cos({q2})
m12 = (MLR * co - n2Jm2) / al  # and m21 = -m12
c12 = (nbe2 - MLR * {q2d} * s) / al
g2 = MgL * s / al
f1 = v2 - c11 * {q1d} - c12 * {q2d}
f2 = v2 - c21 * {q1d} + c21 * {q2d} - g2
det = m11m22 + m12 * m12
{q1dd} = (m22 * f1 - m12 * f2) / det
{q2dd} = (m11 * f2 + m12 * f1) / det"""),
}

# |state| bound of a run: SimConfig refuses an x0 beyond it, and the tick
# loop ends a run after a period that ends beyond it or leaves the floats.
DIVERGENCE_LIMIT = 1e3

# The names one run of the tick loop reads: the run's settings, fixed for the
# run (flags are 1.0 or 0.0); the state it carries from tick to tick (the
# plant state, the integral, for q1 and q2 the derivative filter's previous
# sample, previous backward difference and estimate, and the periods
# computed); and the run table's rows, in the trace CSV's column order after
# t (extra is s or the integral, present when the design records one).
_SETTINGS = ("Ts", "r1", "r2", "r3", "r4", "k1", "k2", "k3", "k4", "l1", "l2", "l3", "l4",
             "kk", "eps", "kint", "sat", "fa", "fg", "smc", "filtered", "integral")
_CARRY = ("x1", "x2", "x3", "x4", "integ", "p1", "w1", "z1", "p2", "w2", "z2", "periods")
_COLUMNS = ("q1", "q2", "q1dot", "q2dot", "u_cmd", "u_applied", "dist", "extra")

# One controller tick of simulate's loop, written once for the Python and
# the C run kernel: the measurement (ideal, or the filtered derivative of q1
# and q2), the LQR law with its optional integral or the SMC law with its
# boundary layer, the clamp, the row store, one period of the plant, the
# divergence test (abs(y) <= {lim} is false for an infinity and a NaN), and
# the rest test. The period is steps classic RK4 steps of dt from x1..x4
# under v = ua + d into y1..y4; {stage q2 q1d q2d q1dd q2dd} is one copy of
# the platform's stage. A stage's position rates are its velocities, so the
# q1 stage states, never read, are not formed; every other operation is the
# classic step's, in its order (2.0 doubles as 2 does). y1 and y2 are
# updated before the y3 and y4 they read. A tick that leaves the carried
# state unchanged bit for bit would repeat itself while the next row's dist
# is d bit for bit, so that row is stored again instead (d is finite there:
# a period under a non-finite d diverges).
_TICK = """\
e1 = x1 - r1
e2 = x2 - r2
if filtered:
    dn1 = (x1 - p1) / Ts
    dn2 = (x2 - p2) / Ts
    zn1 = fa * z1 + fg * (dn1 + w1)
    zn2 = fa * z2 + fg * (dn2 + w2)
    e3 = zn1 - r3
    e4 = zn2 - r4
else:
    e3 = x3 - r3
    e4 = x4 - r4
if smc:
    sv = l1 * e1 + l2 * e2 + l3 * e3 + l4 * e4
    if -eps < sv and sv < eps:
        sg = sv / eps
    elif sv > 0.0:
        sg = 1.0
    elif sv < 0.0:
        sg = -1.0
    else:
        sg = 0.0
    u = -(k1 * e1 + k2 * e2 + k3 * e3 + k4 * e4) - kk * sg
else:
    u = -(k1 * e1 + k2 * e2 + k3 * e3 + k4 * e4) - kint * integ
if u < -sat:
    ua = -sat
elif u > sat:
    ua = sat
else:
    ua = u
d = dist[k]
{store}
if k == rows:
    break
y1 = x1
y2 = x2
y3 = x3
y4 = x4
v = ua + d
for i in range(steps):
    {stage y2 y3 y4 a3 a4}
    b1 = y3 + h * a3
    b2 = y4 + h * a4
    yp = y2 + h * y4
    {stage yp b1 b2 b3 b4}
    c1 = y3 + h * b3
    c2 = y4 + h * b4
    yp = y2 + h * b2
    {stage yp c1 c2 c3 c4}
    d1 = y3 + dt * c3
    d2 = y4 + dt * c4
    yp = y2 + dt * c2
    {stage yp d1 d2 d3 d4}
    y1 = y1 + w * (y3 + 2.0 * b1 + 2.0 * c1 + d1)
    y2 = y2 + w * (y4 + 2.0 * b2 + 2.0 * c2 + d2)
    y3 = y3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
    y4 = y4 + w * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
if not (abs(y1) <= {lim} and abs(y2) <= {lim} and abs(y3) <= {lim} and abs(y4) <= {lim}):
    diverged = 1.0
    break
periods = periods + 1.0
jn = integ
if integral:
    jn = integ + e1 * Ts
rest = {same y1 x1} and {same y2 x2} and {same y3 x3} and {same y4 x4} and {same jn integ}
if rest and filtered:
    rest = {same x1 p1} and {same dn1 w1} and {same zn1 z1}
    rest = rest and {same x2 p2} and {same dn2 w2} and {same zn2 z2}
if rest:
    while k < rows and {same dist[k] d}:
        {store}
if filtered:
    p1 = x1
    w1 = dn1
    z1 = zn1
    p2 = x2
    w2 = dn2
    z2 = zn2
x1 = y1
x2 = y2
x3 = y3
x4 = y4
integ = jn"""

# The row store: row k of every column but dist (the run's input), then the
# next row.
_STORE = """\
q1[k] = x1
q2[k] = x2
q1dot[k] = x3
q2dot[k] = x4
u_cmd[k] = u
u_applied[k] = ua
if smc:
    extra[k] = sv
elif integral:
    extra[k] = integ
k = k + 1"""

# Whether {a} and {b} are one float bit for bit: zero signs count, NaN never
# matches (a byte compare would match equal NaNs).
_SAME = "({a} == {b} and ({a} != 0.0 or copysign(1.0, {a}) == copysign(1.0, {b})))"

# Kernel templates: {constants} is the constant names, {stage q2 q1d q2d
# q1dd q2dd} one copy of the stage, {settings}, {carry} and {columns} the
# names above and {tick} the expanded _TICK.
_KERNELS = {
    "rhs": """\
def make({constants}):
    def rhs(q2, q1d, q2d, v):
        {stage q2 q1d q2d q1dd q2dd}
        return q1dd, q2dd
    return rhs
""",
    # the tick loop from row start until row stop, a row of the table's rows
    # at most, or the run's end; columns are writable views of the table's
    # rows. A slice ends after a whole tick, so the state carried is the next
    # row's and a call from that row resumes the run; a copy at rest may run
    # past stop. Only a period raises, before the tick changes a carried
    # name, so the run ends with its last row's state.
    "run": """\
def make({constants}, dt, steps):
    h = 0.5 * dt
    w = dt / 6.0

    def run(settings, columns, rows, start, stop, carry):
        {settings} = settings
        {columns} = columns
        {carry} = carry
        diverged = 0.0
        k = start
        try:
            while k < stop:
                {tick}
        except (ValueError, ZeroDivisionError):
            diverged = 1.0
        return k, ({carry}), diverged != 0.0
    return run
""",
}

# The C run kernel, a frame around the translated _TICK. As the Python run
# kernel, over the table tab, rows values per _COLUMNS name, from row start
# until row stop: kc holds the constants in _DYNAMICS order, then dt and
# steps; carry holds _CARRY on entry and _CARRY and diverged on return; the
# result is the row reached. Where Python raises, C runs on in infinities and
# NaNs, which the divergence test refuses.
_C_SOURCE = """\
#include <math.h>
#include <stdint.h>

int64_t run(const double *kc, const double *cfg, double *tab, int64_t rows, int64_t start,
            int64_t stop, double *carry)
{
    {constants}
    const double h = 0.5 * dt;
    const double w = dt / 6.0;
    {settings}
    {columns}
    {carry}
    double diverged = 0.0;
    int64_t k = start;
    while (k < stop) {
        {tick}
    }
    {results}
    return k;
}
"""


# the names a slot's args take, by slot
_SLOT_ARGS = {"stage": ("q2", "q1d", "q2d", "q1dd", "q2dd"), "same": ("a", "b")}


def _expand(template: str, slots: dict) -> str:
    """template with each {slot args} replaced by its slot text, indented in place.

    A slot's args, names or subscripts, format its text by the names in _SLOT_ARGS.
    """
    def expand(m):
        indent, text, args = m[1], slots[m[2]], m[3].split()
        if args:
            text = text.format(**dict(zip(_SLOT_ARGS[m[2]], args)))
        return "\n".join(indent + line for line in text.splitlines())

    return re.sub(r"( *)\{(\w+)([\w\[\] ]*)\}", expand, template)


def _tick(platform: str) -> str:
    """_TICK with its row stores, bit comparisons and limit, and one platform's stages."""
    return _expand(_TICK, {"store": _STORE, "same": _SAME, "lim": repr(DIVERGENCE_LIMIT),
                           "stage": _DYNAMICS[platform][1]})


@functools.cache
def _kernel_factory(platform: str, kind: str):
    """Compile one kernel template for one platform, once per process.

    The source is registered with linecache under a readable name, so
    tracebacks and inspect.getsource show the generated lines.
    """
    constants, stage = _DYNAMICS[platform]
    source = _expand(_KERNELS[kind], {
        "constants": ", ".join(constants(default_params(platform))), "stage": stage,
        "settings": ", ".join(_SETTINGS), "carry": ", ".join(_CARRY),
        "columns": ", ".join(_COLUMNS), "tick": _tick(platform)})
    filename = f"<pendulum_ctl.plants: {platform} {kind}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__, "sin": math.sin, "cos": math.cos,
                 "copysign": math.copysign}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]


# The C subset, whole: each operator and call on which C computes from doubles
# what Python computes, and its C.
_C = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.USub: "-", ast.Not: "!",
      ast.And: "&&", ast.Or: "||", ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
      ast.Gt: ">", ast.GtE: ">=", "sin": "sin", "cos": "cos", "abs": "fabs",
      "copysign": "copysign"}


def _c_statements(text: str, declared: tuple) -> str:
    """An expanded kernel text as C statements, each operation in parentheses,
    after one double declaration of the names it assigns that declared lacks.

    Beyond _C: names, numbers up to 2**53, name[name], assignments, if/else,
    while, break and `for name in range(count)` over a double it names
    nowhere else. All else raises ValueError, as do a / of two C integers,
    any other arithmetic of two C integers unless one is the frame's 64-bit
    k or rows (C's int overflows), a for whose body assigns a name its count
    reads (C reads the count on every pass, Python once), an and/or read as
    a number from other than truth values (C gives 1, Python an operand),
    and a name given truth values and others.
    """
    truths = {}  # each name assigned, not declared: holds truth values? (None: a for counter)

    def truth(node):  # 0 or 1 in C, False or True in Python
        return (isinstance(node, (ast.Compare, ast.BoolOp)) or isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.Not) or truths.get(getattr(node, "id", None), False))

    def integer(node):  # the bits of the C integer node is computed in, or 0 for a double
        match node:
            case ast.Name("k" | "rows"):
                return 64
            case ast.Constant(int()) | ast.Compare() | ast.BoolOp() | ast.UnaryOp(ast.Not()):
                return 32
            case ast.UnaryOp(_, operand):
                return integer(operand)
            case ast.BinOp(a, _, b) if integer(a) and integer(b):
                return max(integer(a), integer(b))
        return 0

    def names(node, store=False):  # the names node reads, or those it assigns
        return {x.id for x in ast.walk(node)
                if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Store) == store}

    def c(node, test=False):  # an expression's C, a statement's lines; test: only truth is read
        match node:
            # a name's first value records whether it holds truth values; another kind is refused
            case ast.Assign([ast.Name(n)], value) if n not in declared and (
                    truths.setdefault(n, truth(value)) != truth(value)):
                raise ValueError(f"{n} is given values of two kinds")
            case ast.Constant(v) if type(v) in (int, float) and abs(v) <= 2 ** 53:
                return repr(v)
            case ast.Name(n) if n not in _C and truths.get(n, False) is not None:
                return n
            case ast.Subscript(ast.Name(n), ast.Name(i)) if n not in _C:
                return f"{n}[{i}]"
            case ast.Call(ast.Name(f), args, []) if f in _C:
                return f"{_C[f]}({', '.join(map(c, args))})"
            case ast.UnaryOp(op, operand) if type(op) in _C:
                return f"({_C[type(op)]}{c(operand, type(op) is ast.Not)})"
            case ast.BinOp(a, op, b) if type(op) in _C and integer(a) and integer(b) and (
                    type(op) is ast.Div or max(integer(a), integer(b)) < 64):
                raise ValueError(f"C computes {ast.unparse(node)!r} in integers")
            case ast.BinOp(a, op, b) | ast.Compare(a, [op], [b]) if type(op) in _C:
                return f"({c(a)} {_C[type(op)]} {c(b)})"
            case ast.BoolOp(op, values) if test or all(map(truth, values)):
                return "(" + f" {_C[type(op)]} ".join(c(value, test) for value in values) + ")"
            case ast.Assign([target], value):
                return [f"{c(target)} = {c(value)};"]
            case ast.If(cond, body, orelse):
                return block(f"if ({c(cond, True)})", body) + (orelse and block("else", orelse))
            case ast.While(cond, body, []):
                return block(f"while ({c(cond, True)})", body)
            # a counter named before or after its for is refused, as is a count the for assigns
            case ast.For(ast.Name(n), ast.Call(ast.Name("range"), [count], []), body, []) if (
                    n not in truths and not names(count) & names(node, store=True)):
                truths[n] = None
                return block(f"for ({n} = 0.0; {n} < {c(count)}; {n} = {n} + 1.0)", body)
            case ast.Break():
                return ["break;"]
        raise ValueError(f"no C for {ast.unparse(node)!r}")

    def block(head, body):
        return [f"{head} {{", *("    " + line for node in body for line in c(node)), "}"]
    lines = [line for node in ast.parse(text).body for line in c(node)]
    return "\n".join(([f"double {', '.join(truths)};"] if truths else []) + lines)


def _c_source(platform: str) -> str:
    """_C_SOURCE expanded with one platform's constants and tick."""
    names = [*_DYNAMICS[platform][0](default_params(platform)), "dt", "steps"]
    frame = ("k", "rows", "diverged")
    return _expand(_C_SOURCE, {
        "constants": "\n".join(f"const double {name} = kc[{i}];" for i, name in enumerate(names)),
        "settings": "\n".join(f"const double {name} = cfg[{i}];"
                              for i, name in enumerate(_SETTINGS)),
        "columns": "\n".join(f"double *{name} = tab + {i} * rows;"
                             for i, name in enumerate(_COLUMNS)),
        "carry": "\n".join(f"double {name} = carry[{i}];" for i, name in enumerate(_CARRY)),
        "results": "\n".join(f"carry[{i}] = {name};"
                             for i, name in enumerate(_CARRY + ("diverged",))),
        "tick": _c_statements(_tick(platform), frame + _SETTINGS + _CARRY + _COLUMNS)})


# The compile command. -O2 alone does not reorder floating-point
# arithmetic; -ffp-contract=off keeps a*b + c from fusing into one rounding
# (GCC fuses by default where the target has FMA); -fno-builtin-sin and
# -fno-builtin-cos keep sin and cos the libm calls that math.sin and math.cos
# make, rather than folded, inlined or merged into sincos, while fabs and
# copysign, exact bit operations, stay inline builtins rather than libm calls
# through the PLT. -fno-tree-slp-vectorize keeps
# GCC's -O2 from packing pairs of the tick loop's scalar operations into
# vector registers (exact, but the shuffles made the nxtway loop about 12%
# slower). -ffast-math and -Ofast are never used: besides reassociating,
# they link code that sets flush-to-zero for the whole process when the
# object is loaded.
_CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-builtin-sin",
       "-fno-builtin-cos", "-fno-tree-slp-vectorize")

# (q1, q2, q1dot, q2dot) from which the probe runs start: exact rest, signed
# zeros, subnormals, |q2| = 1e3 (the slow path of sin and cos, and the
# divergence limit) and a state that saturates the probe's laws
_PROBES = (
    (0.0, 0.0, 0.0, 0.0),
    (-0.0, -0.0, -0.0, -0.0),
    (0.0, -0.0, 5e-324, -1e-310),
    (0.25, 1e3, -1.5, 2.0),
    (-0.25, -1e3, 1.5, -2.0),
    (0.5, 0.2, -0.7, 1.3),
)

# The probe runs' settings, and their laws: (smc, integral, filtered,
# boundary layer) for LQR with and without Ki and SMC with and without a
# boundary layer, each under both measurements.
_PROBE_SETTINGS = dict(Ts=0.002, r1=0.0, r2=0.0, r3=0.0, r4=0.0, k1=-2.0, k2=40.0,
                       k3=-3.0, k4=5.0, l1=1.0, l2=10.0, l3=0.5, l4=1.0, kk=2.0, kint=1.5,
                       sat=3.0, fa=0.6, fg=0.2)
_PROBE_LAWS = ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 0.0),
               (0.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0),
               (1.0, 0.0, 0.0, 0.5), (1.0, 0.0, 1.0, 0.5))
# Each probe run's disturbance: 16 rows, a 2 V pulse from row 8, so the runs
# from rest copy rows up to its edge. Each C run is run whole and again in
# slices that stop at these rows: inside the copy at rest, on the pulse edge,
# past it and at the end.
_PROBE_DIST = (0.0,) * 8 + (2.0,) * 8
_PROBE_STOPS = (3, 8, 11, 16)


def _cache_dir():
    """$XDG_CACHE_HOME/pendulum_ctl (else ~/.cache/pendulum_ctl), made if missing.

    None unless it is a directory the current user owns that neither the
    group nor others may write, since a library loaded from it runs as
    this process.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "pendulum_ctl")
    if not (os.path.isabs(path) and hasattr(os, "getuid")):
        return None
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return None
    if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022:
        return path
    return None


def module_source(spec):
    """The bytes of the file that a module's spec loads, read through its loader, or None.

    A module that generates C reads its own at import and passes them to
    native_function, so an edit of the file after the import cannot key
    the running generator's object by another text.
    """
    try:
        return spec.loader.get_data(spec.origin)
    except (AttributeError, OSError, TypeError):
        return None


# plants' own source bytes: what generates the tick-<platform> objects
_GENERATOR = module_source(__spec__)


def _cache_key(name: str, generator: bytes) -> str:
    """sha256 of the sha256 of generator, the object name, the compile command, the
    platform tag and the interpreter's cache tag (its ast and its Python loop)."""
    text = "\0".join([hashlib.sha256(generator).hexdigest(), name, *_CC, "-lm",
                      sysconfig.get_platform(), str(sys.implementation.cache_tag)])
    return hashlib.sha256(text.encode()).hexdigest()


def _build(source: str, path: str) -> None:
    """Compile source into the shared object path, published whole by os.replace."""
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        c_file, so_file = os.path.join(tmp, "source.c"), os.path.join(tmp, "object.so")
        with open(c_file, "w", encoding="utf-8") as f:
            f.write(source)
        subprocess.run([*_CC, "-o", so_file, c_file, "-lm"], check=True, capture_output=True,
                       timeout=60)
        os.replace(so_file, path)


# An object of another key is deleted once no process has loaded it for this
# long. Two checkouts with different sources that share a cache (a paired
# benchmark's parent and change, say) each keep their object, and neither
# rebuilds on every alternating run.
_UNUSED_SECONDS = 30 * 24 * 3600


def _prune(folder: str, keep: str) -> None:
    """Delete each object in folder but keep, whatever its name, untouched for
    _UNUSED_SECONDS, with its .probe file, and each .probe file as old whose object is gone."""
    cutoff = time.time() - _UNUSED_SECONDS
    with contextlib.suppress(OSError):
        with os.scandir(folder) as entries:
            ages = {entry.name: entry.stat(follow_symlinks=False).st_mtime for entry in entries
                    if entry.name.endswith((".so", ".probe"))}
        for name, mtime in ages.items():
            stem, suffix = os.path.splitext(name)
            if mtime < cutoff and name != keep and (suffix == ".so" or f"{stem}.so" not in ages):
                for gone in (f"{stem}.so", f"{stem}.probe"):
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(os.path.join(folder, gone))


def native_function(name: str, generator: bytes | None, source: Callable[[], str], symbol: str,
                    signature: tuple):
    """(The function symbol of the C object source() writes, the object's path), or (None, None).

    The object is <name>-<key>.so in the cache directory. key is a sha256 of
    generator, the generating module's source bytes (module_source, read at
    its import), the name, the compile command, the platform tag and the
    interpreter's cache tag; without generator, of the C text source()
    returns in its place. The object is loaded from there, or compiled
    there first, or, without a safe cache directory, compiled and loaded in
    a private temporary directory, and then its path is None. source is
    called only to compile, or for a key without generator. A load touches
    the object's mtime; a build deletes every other object, whatever its
    name, that no process has loaded for 30 days. signature names the
    function's ctypes result type, then its argument types. (None, None)
    without cc, ctypes or a loadable object; the caller probes the
    function before using it.
    """
    try:
        key = _cache_key(name, source().encode() if generator is None else generator)
        file = f"{name}-{key}.so"
        cache = _cache_dir()
        with (contextlib.nullcontext(cache) if cache else tempfile.TemporaryDirectory()) as folder:
            path = os.path.join(folder, file)
            if os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.utime(path)
            else:
                _build(source(), path)
                _prune(folder, file)
            return _load(path, symbol, signature), cache and path
    except (ImportError, OSError, AttributeError, subprocess.SubprocessError):
        return None, None


def _load(path: str, symbol: str, signature: tuple):
    """The function symbol of the shared object at path, its ctypes signature declared.

    CDLL releases the GIL for each call, so a tick loop on one thread and
    the trace formatter on another run at once. That is safe because the C
    functions touch no Python object, only the numpy buffers behind their
    pointers, which the caller made or checked and keeps alive through the
    call, and which no other thread writes while it runs: the tick loop
    writes rows that the writer has not been handed yet, and the formatter
    reads rows that the loop has passed.
    """
    import ctypes

    function = getattr(ctypes.CDLL(path), symbol)
    restype, *argtypes = (getattr(ctypes, name) for name in signature)
    function.restype, function.argtypes = restype, tuple(argtypes)
    return function


# run(constants, settings, table, rows, start, stop, carry) -> the row reached
_RUN_SIGNATURE = ("c_int64", "c_void_p", "c_void_p", "c_void_p", "c_int64", "c_int64", "c_int64",
                  "c_void_p")


# the first word of a .probe file that records a refusal, before the C outcomes' digest
_REFUSED = "refused "


@functools.cache
def _native_library(platform: str):
    """The platform's C run kernel, or None to use the Python one.

    Once per process and platform, on first use, through native_function:
    the object tick-<platform>, used only where its probe runs give the
    Python loop's outcomes. Its <object>.probe file records the last full
    probe: the sha256 of the outcomes on a pass, "refused " and that of the
    C outcomes on a refusal. C outcomes that match the record are used, or
    refused, at once; else, where the file is missing, unreadable or holds
    other outcomes, they are compared with the Python runs', and the file
    is written whole. None without the object, or when a probe run of the
    C kernel differs from the Python kernel's.
    """
    run, path = native_function(f"tick-{platform}", _GENERATOR,
                                functools.partial(_c_source, platform), "run", _RUN_SIGNATURE)
    if run is None:
        return None
    digest = _outcomes_digest(_probe_outcomes(platform, run))
    stored = path and os.path.splitext(path)[0] + ".probe"
    record = None
    if stored:
        with contextlib.suppress(OSError, ValueError), open(stored, encoding="ascii") as f:
            record = f.read(len(_REFUSED + digest) + 1)
    if record == digest:
        return run
    if record == _REFUSED + digest:
        return None
    passed = _probe_mismatch(platform, run) is None
    if stored:  # the C outcomes are now the Python loop's, or known to differ
        with contextlib.suppress(OSError):
            write_whole(stored, lambda f: f.write(digest if passed else _REFUSED + digest))
    return run if passed else None


def _probe_outcomes(platform: str, native) -> list:
    """Each probe run's (table bytes, row reached, carried state bits, divergence flag), run
    whole and then again in slices that stop at _PROBE_STOPS.

    The runs are the Python loop's with native None, else the C run kernel
    native's.
    """
    params, outcomes = default_params(platform), []
    for i, (smc, integral, filtered, eps) in enumerate(_PROBE_LAWS):
        settings = dict(_PROBE_SETTINGS, smc=smc, integral=integral, filtered=filtered, eps=eps)
        args = (params, 0.0005, 4, _PROBE_DIST, settings, _PROBES[i % len(_PROBES)], native)
        sliced, advance = _start(*args)
        for stop in _PROBE_STOPS:
            end = advance(stop)
        for table, k, carry, diverged in (_runner(*args), (sliced, *end)):
            outcomes.append((table.tobytes(), k, struct.pack(f"{len(carry)}d", *carry), diverged))
    return outcomes


def _outcomes_digest(outcomes: list) -> str:
    """sha256 of _probe_outcomes: per run, the table's size and bytes, the row
    reached, the carried state bits and the flag."""
    digest = hashlib.sha256()
    for table, k, carry, diverged in outcomes:
        digest.update(struct.pack("<qq?", len(table), k, diverged) + table + carry)
    return digest.hexdigest()


def _probe_mismatch(platform: str, native):
    """The first probe run that the C run kernel native, run whole or in slices, ends
    otherwise than the Python loop run whole, or None."""
    want = _probe_outcomes(platform, None)
    for i, got in enumerate(_probe_outcomes(platform, native)):
        run = i // 2
        if got != want[2 * run]:
            return (f"probe run {run}{' in slices' if i % 2 else ''} (smc, integral, filtered, "
                    f"eps = {_PROBE_LAWS[run]}, from {_PROBES[run % len(_PROBES)]})")
    return None


# Rows per run kernel call: one trace writer block, 1024 rows, at a time
_SLICE = 1024


def _start(params: PlantParams, dt: float, steps: int, dist, settings: Mapping, x0, native):
    """Set up tick_loop's run over dist from x0, in C when native is the loaded run kernel.

    Returns (the table, zero but for its dist row, and advance). advance(stop)
    runs the loop on from the row reached, on the thread that calls it, until
    row stop or the run's end, and returns (the row reached, the carried
    state, whether the run diverged): what the probe compares. A copy at rest
    may run past stop. Once the run has ended, advance runs nothing and
    returns its end again. Every buffer the kernel uses is made here, so a
    thread that only calls advance allocates no table.
    """
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"steps must be an integer of at least 1, got {steps!r}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    dist = np.asarray(dist)
    if not (dist.ndim == 1 and dist.size > 0 and dist.dtype.kind in "iuf"):
        raise ValueError("dist must be a non-empty 1-D column of numbers")
    rows, extra = dist.size, bool(settings["smc"] or settings["integral"])
    table = np.zeros((len(_COLUMNS) - (not extra), rows))
    table[_COLUMNS.index("dist")] = dist
    values = [float(settings[name]) for name in _SETTINGS]
    x1, x2, x3, x4 = map(float, x0)
    start = {"x1": x1, "x2": x2, "x3": x3, "x4": x4, "p1": x1, "p2": x2}
    # an x0 beyond the limit has diverged before the first tick
    end = (0, tuple(start.get(name, 0.0) for name in _CARRY),
           not all(abs(x) <= DIVERGENCE_LIMIT for x in (x1, x2, x3, x4)))
    constants = _DYNAMICS[params.platform][0](params)
    if native is not None:
        # the constants in _DYNAMICS order, dt and steps, the settings, then
        # the carried state and the divergence flag, which state views
        inputs = np.array([*constants.values(), dt, steps, *values, *end[1], 0.0])
        state = inputs[len(inputs) - len(_CARRY) - 1:]
        kc, cfg, tab, carried = (array.ctypes.data for array in
                                 (inputs, inputs[len(constants) + 2:], table, state))

        def kernel(k, stop, carry):  # the carried state is state's
            k = native(kc, cfg, tab, rows, k, stop, carried)
            *carry, diverged = state.tolist()
            return k, tuple(carry), diverged != 0.0
    else:
        columns = [memoryview(row) for row in table] + [None] * (len(_COLUMNS) - len(table))
        python = _kernel_factory(params.platform, "run")(**constants, dt=dt, steps=steps)
        kernel = functools.partial(python, values, columns, rows)

    def advance(stop):  # holds table and, through kernel, state: the memory C writes
        nonlocal end
        k, carry, diverged = end
        if not diverged:
            end = kernel(k, min(stop, table.shape[1]), carry)
        return end
    return table, advance


def _slices(advance, rows: int):
    """Run a run that _start set up, of rows rows, to its end, _SLICE rows past the row
    reached at a time, on the thread that iterates this; yield what each advance returns."""
    k, diverged = 0, False
    while not diverged and k < rows:
        k, _, diverged = end = advance(k + _SLICE)
        yield end


def _runner(params: PlantParams, dt: float, steps: int, dist, settings: Mapping, x0, native):
    """tick_loop's run over dist from x0, whole, in C when native is the loaded run kernel.

    Returns (the table, zero past the row reached, the row reached, the
    carried state, whether the run diverged): what the probe compares.
    """
    table, advance = _start(params, dt, steps, dist, settings, x0, native)
    for end in _slices(advance, table.shape[1]):
        pass
    return (table, *end)


def tick_loop(params: PlantParams, dt: float, steps: int, dist, settings: Mapping, x0):
    """Set up simulate's tick loop over the disturbance column dist from x0: (table, run).

    The table has a float64 row per _COLUMNS name, in order: q1, q2, q1dot,
    q2dot, u_cmd, u_applied, dist and, when settings' smc or integral is
    set, extra (s or the integral), and a column per value of dist. run is a
    generator: iterated, on any one thread, it runs the loop _SLICE rows at
    a time into the table and yields after each slice (the rows filled,
    whether the run diverged); its last pair is the run's end. settings maps
    each name in _SETTINGS to a number. The run starts at x0, with a zero
    integral and the filter seeded with the first sample, and runs a tick
    per value of dist, each one period of steps RK4 steps of dt, until the
    run diverges: an x0 beyond DIVERGENCE_LIMIT runs none, and a period that
    ends beyond it or leaves the floats (the sine of an infinity, a zero
    determinant) ends the run after the tick it started from. It raises
    ValueError, before it returns, for a steps that is not an integer of at
    least 1, a dt that is not positive and finite, or a dist that is not a
    non-empty 1-D column of numbers. Everything the run allocates is made
    before it returns, on the calling thread; iterating run allocates no
    array.

    The loop, the periods included, is generated from _TICK. Where cc and
    ctypes are at hand it runs as C, built once, kept in a per-user cache,
    and used only once it has reproduced the Python loop bit for bit on
    fixed probe runs, whole and resumed in slices. Without cc, or when
    building, loading or probing fails, the Python loop runs: the same
    results, several times slower.
    """
    table, advance = _start(params, dt, steps, dist, settings, x0,
                            _native_library(params.platform))
    return table, ((k, diverged) for k, _, diverged in _slices(advance, table.shape[1]))


def scalar_rhs(params: PlantParams):
    """Closure f(q2, q1dot, q2dot, v) -> (q1ddot, q2ddot).

    The accelerations M^-1 (V - C qdot - G), with v the voltage on each
    motor, so an integration loop allocates no arrays. The arm or wheel angle q1
    never enters the dynamics and the position rates are the velocities,
    so the closure takes and returns neither. It is generated from the
    platform's entry in _DYNAMICS, as the periods of the tick loop are, and
    it is the function that linearize.jacobian_linearize differentiates.

    Subexpressions that depend on the parameters alone are evaluated once,
    per closure, rather than on every call. Only a whole constant
    subexpression or a left-associative constant prefix is folded, so every
    remaining expression keeps its IEEE operation order and the results are
    bit for bit those of the unfolded formulas: ``-gam * b * co`` may become
    ``ngb * co`` with ``ngb = -gam * b``, but ``MgL * s / al`` must not
    become ``(MgL / al) * s``. Other rewrites are exact ones only: a shared
    left prefix such as ``lp2 * s``, ``2.0 * v`` for ``2 * v``, and, since
    rounding is symmetric under negation, the nxtway ``m21 = -q0 / al``
    taken as ``-m12``, so that ``- m12 * m21`` becomes ``+ m12 * m12``.
    """
    constants = _DYNAMICS[params.platform][0]
    return _kernel_factory(params.platform, "rhs")(**constants(params))


def mechanical_energy(params: PlantParams, state) -> float:
    """Kinetic plus potential energy of the mechanical subsystem, in joules.

    Uses the physical symmetric mass matrix (no voltage referral). The
    potential reference is the hanging pose, so the upright pole holds the
    maximum potential energy. A state that is not four finite numbers
    [q1, q2, q1dot, q2dot] raises ValueError.
    """
    x = np.asarray(state, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"state must have 4 entries [q1, q2, q1dot, q2dot], got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("state contains non-finite entries")
    q2, q1d, q2d = x[1], x[2], x[3]
    p = params
    if isinstance(p, RotPenParams):
        a, b, c, l2 = p.mass_constants
        s, co = math.sin(q2), math.cos(q2)
        kinetic = 0.5 * ((a + l2 * s * s) * q1d ** 2 - 2 * b * co * q1d * q2d + c * q2d ** 2)
        potential = p.m_p * p.g * (p.L_p / 2) * (1.0 + co)
    else:
        n2Jm, pw, rb = p.mass_constants
        co = math.cos(q2)
        q0 = p.M * p.L * p.R * co - 2 * n2Jm
        kinetic = 0.5 * (pw * q1d ** 2 + 2 * q0 * q1d * q2d + rb * q2d ** 2)
        potential = p.M * p.g * p.L * (1.0 + co)
    return kinetic + potential
