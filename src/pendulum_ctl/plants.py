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
written once, as text (_DYNAMICS), and so is one RK4 step over that text
(_RK4_STEP). Two kernels are generated from them: scalar_rhs, the
accelerations that linearize.jacobian_linearize differentiates, and the RK4
period_stepper that simulate integrates. Each is compiled once per process
and platform, on first use; its source is registered with linecache, so
tracebacks show the generated lines.

The same expanded step is also translated to C, line by line and
unchecked, inside a C frame that holds no stage or step arithmetic. Where
cc and ctypes are at hand, period_stepper runs that machine code, built
once and kept in a per-user cache. The compiler and the probe are its gate:
it is used only once it has reproduced the Python kernel bit for bit on
fixed probe states. Any non-finite result is recomputed by the Python
kernel, so the results, and the exceptions, are the Python kernel's.
"""

from __future__ import annotations

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
import sysconfig
import tempfile
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "RotPenParams",
    "NxtwayParams",
    "PlantParams",
    "default_params",
    "params_from_mapping",
    "scalar_rhs",
    "period_stepper",
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
    a, b, c, l2 = p.mass_constants
    gam = p.gamma
    return dict(a=a, c=c, l2=l2, gam=gam, kmkg=p.K_m * p.K_g, fr=p.f_r, fp=p.f_p,
                halfmpg=0.5 * p.m_p * p.L_p * p.g,
                ngb=-gam * b, nb=-b, l2x2=2 * l2, gb=gam * b)


def _nxtway_constants(p: NxtwayParams) -> dict:
    n2Jm, pw, rb = p.mass_constants
    al, be = p.alpha, p.beta
    m11, m22 = pw / al, -rb / al
    return dict(al=al, MLR=p.M * p.L * p.R, MgL=p.M * p.g * p.L,
                m11=m11, m22=m22, m11m22=m11 * m22,
                c11=2 * (be + p.f_w) / al, c21=2 * be / al,
                nbe2=-2 * be, n2Jm2=2 * n2Jm)


# The dynamics of each platform, written once, as (parameter-only
# constants, a statement run once per call on the voltage v, one stage: the
# M, C and G entries, then the Cramer solve of M qddot = V - C qdot - G).
# In the stage {q2}, {q1d} and {q2d} are the inputs and {q1dd}, {q2dd} its
# outputs; every other name is a constant or a temporary. An entry the
# solve uses negated is stored negated (nc21 is -c21), which is exact, so
# the solve keeps the operations of the formulas.
_DYNAMICS = {
    "rotpen": (_rotpen_constants, "", """\
s = sin({q2})
co = cos({q2})
l2s = l2 * s
m11 = gam * (a + l2s * s)
m12 = ngb * co
m21 = nb * co
c11 = gam * (l2x2 * s * co * {q2d} + fr) + kmkg
c12 = gb * s * {q2d}
nc21 = l2s * co * {q1d}
ng2 = halfmpg * s
r1 = v - c11 * {q1d} - c12 * {q2d}
r2 = nc21 * {q1d} - fp * {q2d} + ng2
det = m11 * c - m12 * m21
{q1dd} = (c * r1 - m12 * r2) / det
{q2dd} = (m11 * r2 - m21 * r1) / det"""),
    "nxtway": (_nxtway_constants, "v2 = 2.0 * v", """\
s = sin({q2})
co = cos({q2})
m12 = (MLR * co - n2Jm2) / al  # and m21 = -m12
c12 = (nbe2 - MLR * {q2d} * s) / al
g2 = MgL * s / al
r1 = v2 - c11 * {q1d} - c12 * {q2d}
r2 = v2 - c21 * {q1d} + c21 * {q2d} - g2
det = m11m22 + m12 * m12
{q1dd} = (m22 * r1 - m12 * r2) / det
{q2dd} = (m11 * r2 + m12 * r1) / det"""),
}

# One classic RK4 step of dt, written once for the Python and the C advance
# kernel; {stage q2 q1d q2d q1dd q2dd} is one copy of the stage. A stage's
# position rates are its velocities, so the q1 stage states, never read, are
# not formed; every other operation is the classic step's, in its order (2.0
# doubles as 2 does). x1 and x2 are updated before the x3 and x4 they read.
_RK4_STEP = """\
{stage x2 x3 x4 a3 a4}
b1 = x3 + h * a3
b2 = x4 + h * a4
p2 = x2 + h * x4
{stage p2 b1 b2 b3 b4}
c1 = x3 + h * b3
c2 = x4 + h * b4
p2 = x2 + h * b2
{stage p2 c1 c2 c3 c4}
d1 = x3 + dt * c3
d2 = x4 + dt * c4
p2 = x2 + dt * c2
{stage p2 d1 d2 d3 d4}
x1 = x1 + w * (x3 + 2.0 * b1 + 2.0 * c1 + d1)
x2 = x2 + w * (x4 + 2.0 * b2 + 2.0 * c2 + d2)
x3 = x3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
x4 = x4 + w * (a4 + 2.0 * b4 + 2.0 * c4 + d4)"""

# Kernel templates: {constants} is the constant names, {per_call} the
# per-call statement, {stage q2 q1d q2d q1dd q2dd} one copy of the stage and
# {step} the expanded _RK4_STEP.
_KERNELS = {
    "rhs": """\
def make({constants}):
    def rhs(q2, q1d, q2d, v):
        {per_call}
        {stage q2 q1d q2d q1dd q2dd}
        return q1dd, q2dd
    return rhs
""",
    # steps RK4 steps of dt. With native, (the compiled _C_ADVANCE, its
    # constants array, a 5-double array type), make returns native_advance,
    # which runs the same steps in C and answers a non-finite result, or an
    # exception, with the Python advance.
    "advance": """\
def make({constants}, dt, steps, native):
    h = 0.5 * dt
    w = dt / 6.0

    def advance(x1, x2, x3, x4, v):
        {per_call}
        for _ in range(steps):
            {step}
        return x1, x2, x3, x4
    if native is None:
        return advance
    call, k, state = native

    def native_advance(x1, x2, x3, x4, v):
        x = state()  # filled by slice: faster than state(x1, ...)
        x[:] = x1, x2, x3, x4, v
        if call(k, x, steps):
            return x[0], x[1], x[2], x[3]
        return advance(x1, x2, x3, x4, v)
    return native_advance
""",
}

# The advance kernel in C, a frame around the translated _RK4_STEP. On the
# texts' names, float literals, + - * / and sin and cos calls, C evaluates
# as Python does, left to right, in doubles; a line where the two differ
# fails the build or the probe. Step temporaries, declared in the loop body,
# are assigned before they are read. k holds the constants in _DYNAMICS
# order, then dt; x holds the state and v on entry, the state on return.
# The result says whether that state is finite: where Python raises (sin of
# an infinity, a division by zero) C goes on in infinities and NaNs.
_C_ADVANCE = """\
#include <math.h>

int advance(const double *k, double *x, int steps)
{
    {constants}
    const double h = 0.5 * dt;
    const double w = dt / 6.0;
    const double v = x[4];
    {per_call}
    double x1 = x[0], x2 = x[1], x3 = x[2], x4 = x[3];
    for (int i = 0; i < steps; i++) {
        {step}
    }
    x[0] = x1;
    x[1] = x2;
    x[2] = x3;
    x[3] = x4;
    return isfinite(x1) && isfinite(x2) && isfinite(x3) && isfinite(x4);
}
"""


def _expand(template: str, slots: dict) -> str:
    """template with each {slot args} replaced by its slot text, indented in place."""
    def expand(m):
        indent, text = m[1], slots[m[2]].format(
            **dict(zip(("q2", "q1d", "q2d", "q1dd", "q2dd"), m[3].split())))
        return "\n".join(indent + line for line in text.splitlines())

    return re.sub(r"( *)\{(\w+)([\w ]*)\}", expand, template)


def _rk4_step(stage: str) -> str:
    """_RK4_STEP with its four copies of a platform's stage text."""
    return _expand(_RK4_STEP, {"stage": stage})


@functools.cache
def _kernel_factory(platform: str, kind: str):
    """Compile one kernel template for one platform, once per process.

    The source is registered with linecache under a readable name, so
    tracebacks and inspect.getsource show the generated lines.
    """
    constants, per_call, stage = _DYNAMICS[platform]
    names = ", ".join(constants(default_params(platform)))
    source = _expand(_KERNELS[kind], {"constants": names, "per_call": per_call, "stage": stage,
                                      "step": _rk4_step(stage)})
    filename = f"<pendulum_ctl.plants: {platform} {kind}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__, "sin": math.sin, "cos": math.cos}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]


def _c_statements(text: str, declared: tuple) -> str:
    """The `name = expr` lines of an expanded kernel text as C statements.

    A line becomes `double name = expr;` at the first assignment of a name
    not in declared, else `name = expr;`, its # comment stripped; blank
    lines are skipped. Nothing else is checked here: a line C cannot
    compile fails the build, and one C runs otherwise than Python (an
    integer division, say) fails the probe, so either way the Python
    kernel runs.
    """
    out, declared = [], set(declared)
    for line in text.splitlines():
        code = line.split("#", 1)[0].strip()
        if not code:
            continue
        target, _, expr = (part.strip() for part in code.partition("="))
        out.append(f"{target} = {expr};" if target in declared else f"double {target} = {expr};")
        declared.add(target)
    return "\n".join(out)


def _c_source(platform: str) -> str:
    """_C_ADVANCE expanded with one platform's constants, per-call line and RK4 step, unchecked."""
    constants, per_call, stage = _DYNAMICS[platform]
    names = [*constants(default_params(platform)), "dt"]
    return _expand(_C_ADVANCE, {
        "constants": "\n".join(f"const double {name} = k[{i}];" for i, name in enumerate(names)),
        "per_call": _c_statements(per_call, ()),
        "step": _c_statements(_rk4_step(stage), ("x1", "x2", "x3", "x4"))})


# The compile command. -O2 alone does not reorder floating-point
# arithmetic; -ffp-contract=off keeps a*b + c from fusing into one rounding
# (GCC fuses by default where the target has FMA); -fno-builtin keeps sin
# and cos the libm calls that math.sin and math.cos make, rather than
# folded, inlined or merged into sincos. -ffast-math and -Ofast are never
# used: besides reassociating, they link code that sets flush-to-zero for
# the whole process when the object is loaded.
_CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-builtin")

# (q1, q2, q1dot, q2dot, v) on which a native stepper must match the Python
# kernel: signed zeros, subnormals, |q2| = 1e3 (the slow path of sin and
# cos) and v = +-0.0
_PROBES = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (-0.0, -0.0, -0.0, -0.0, -0.0),
    (0.0, -0.0, 5e-324, -1e-310, 0.0),
    (0.25, 1e3, -1.5, 2.0, -0.0),
    (-0.25, -1e3, 1.5, -2.0, 0.0),
    (0.5, 0.2, -0.7, 1.3, 4.5),
)


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


def _cache_key(source: str) -> str:
    """sha256 of the C source, the compile command and the platform tag."""
    text = "\0".join([source, *_CC, "-lm", sysconfig.get_platform()])
    return hashlib.sha256(text.encode()).hexdigest()


def _build(source: str, path: str) -> None:
    """Compile source into the shared object path, published whole by os.replace."""
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        c_file, so_file = os.path.join(tmp, "advance.c"), os.path.join(tmp, "advance.so")
        with open(c_file, "w", encoding="utf-8") as f:
            f.write(source)
        subprocess.run([*_CC, "-o", so_file, c_file, "-lm"], check=True, capture_output=True,
                       timeout=60)
        os.replace(so_file, path)


@functools.cache
def _native_library(platform: str):
    """(advance, c_double) of the platform's C stepper, or None to use the Python one.

    Once per process and platform, on first use: loaded from the cache
    directory, where it is keyed by a sha256 of the C source, the compile
    command and the platform tag, or compiled there first, or, without a
    safe cache directory, compiled and loaded in a private temporary
    directory. None without cc, ctypes or a loadable object, or when the
    stepper differs from the Python kernel on any _PROBES state.
    """
    try:
        import ctypes

        source = _c_source(platform)
        name = f"advance-{platform}-{_cache_key(source)}.so"
        cache = _cache_dir()
        with (contextlib.nullcontext(cache) if cache else tempfile.TemporaryDirectory()) as folder:
            path = os.path.join(folder, name)
            if not os.path.isfile(path):
                _build(source, path)
            advance = ctypes.PyDLL(path).advance
    except (ImportError, OSError, subprocess.SubprocessError):
        return None
    # PyDLL keeps the GIL through a call, which is shorter than releasing
    # it. No argtypes: the calls pass two ctypes double arrays and a Python
    # int, all made in this module, which ctypes converts natively; declared
    # argtypes convert each through from_param, +0.6 us on a 1.3 us call.
    advance.restype = ctypes.c_int
    native = advance, ctypes.c_double
    params = default_params(platform)
    python, compiled = (_stepper(params, 0.0005, 4, n) for n in (None, native))
    if any(struct.pack("4d", *compiled(*x)) != struct.pack("4d", *python(*x)) for x in _PROBES):
        return None
    return native


def _stepper(params: PlantParams, dt: float, steps: int, native):
    """The advance kernel for params, in C when native is (advance, c_double)."""
    constants = _DYNAMICS[params.platform][0](params)
    if native is not None:
        call, double = native
        native = (call, (double * (len(constants) + 1))(*constants.values(), dt), double * 5)
    return _kernel_factory(params.platform, "advance")(**constants, dt=dt, steps=steps,
                                                       native=native)


def scalar_rhs(params: PlantParams):
    """Closure f(q2, q1dot, q2dot, v) -> (q1ddot, q2ddot).

    The accelerations M^-1 (V - C qdot - G), with v the voltage on each
    motor, so an integration loop allocates no arrays. The arm or wheel angle q1
    never enters the dynamics and the position rates are the velocities,
    so the closure takes and returns neither. It is generated from the
    platform's entry in _DYNAMICS, as period_stepper is, and it is the
    function that linearize.jacobian_linearize differentiates.

    Subexpressions that depend on the parameters alone are evaluated once,
    per closure, rather than on every call. Only a whole constant
    subexpression or a left-associative constant prefix is folded, so every
    remaining expression keeps its IEEE operation order and the results are
    bit for bit those of the unfolded formulas: ``-gam * b * co`` may become
    ``ngb * co`` with ``ngb = -gam * b``, but ``MgL * s / al`` must not
    become ``(MgL / al) * s``. Other rewrites are exact ones only: a shared
    left prefix such as ``l2 * s``, ``2.0 * v`` for ``2 * v``, and, since
    rounding is symmetric under negation, the nxtway ``m21 = -q0 / al``
    taken as ``-m12``, so that ``- m12 * m21`` becomes ``+ m12 * m12``.
    """
    constants = _DYNAMICS[params.platform][0]
    return _kernel_factory(params.platform, "rhs")(**constants(params))


def period_stepper(params: PlantParams, dt: float, steps: int):
    """Closure advance(q1, q2, q1dot, q2dot, v) -> the state after steps RK4 steps of dt.

    The classic four-stage step over scalar_rhs with the accelerations body
    inlined into every stage, so one controller period costs one call. The
    results are bit for bit those of stepping scalar_rhs.

    The closure runs in C where it can: the same stage text translated, the
    same operations in the same order, compiled once with the system cc
    and kept under $XDG_CACHE_HOME/pendulum_ctl (else ~/.cache/pendulum_ctl).
    That stepper is returned only after it has matched the Python kernel
    bit for bit on fixed probe states; it converts its arguments as
    c_double does (a None raises TypeError), and a result with an infinity
    or a NaN is recomputed by the Python kernel, which returns it or raises
    (ValueError for sin of an infinity, ZeroDivisionError). Without cc, or
    when building, loading or probing fails, the Python kernel is returned:
    the same results, about eight times slower per call.
    """
    return _stepper(params, dt, steps, _native_library(params.platform))


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
