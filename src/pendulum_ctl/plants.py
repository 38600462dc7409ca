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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "RotPenParams",
    "NxtwayParams",
    "PlantParams",
    "DynamicsMatrices",
    "default_params",
    "params_from_mapping",
    "eval_mcg",
    "forward_dynamics",
    "scalar_rhs",
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
    N m s/rad. K_enc (encoder counts per revolution) and L_m (motor
    inductance, henry) are carried for completeness but unused by the
    dynamics. The voltage referral gamma and the mass-matrix constants are
    derived read-only properties.
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
    L_m: float = 0.18e-3
    K_m: float = 0.00767
    K_t: float = 0.00767
    eta_g: float = 0.9
    eta_m: float = 0.69
    K_enc: float = 4096.0
    K_g: float = 70.0
    V_max: float = 6.0

    def __post_init__(self) -> None:
        _check_fields(self, ("g", "m_p", "L_p", "J_p", "m_r", "L_r", "J_r", "R_m",
                             "L_m", "K_t", "eta_g", "eta_m", "K_enc", "K_g", "V_max"),
                      ("f_p", "f_r", "K_m"))

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

    eta is the gear ratio between motor and wheel. The wheel and body
    inertias J_w, J_q2, J_q3, the motor constants alpha, beta and the
    mass-matrix constants are derived quantities exposed as read-only
    properties.
    """

    g: float = 9.81
    m: float = 0.03
    R: float = 0.02
    M: float = 0.6
    W: float = 0.14
    D: float = 0.04
    H: float = 0.27
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
        _check_fields(self, ("g", "m", "R", "M", "W", "D", "H", "L", "J_m", "R_m",
                             "K_t", "eta", "V_max"),
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
    def J_q3(self) -> float:
        """Body yaw inertia M (W^2 + D^2) / 12 (unused while yaw is frozen)."""
        return self.M * (self.W ** 2 + self.D ** 2) / 12

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

_DERIVED = {
    "rotpen": ("gamma",),
    "nxtway": ("J_w", "J_q2", "J_q3", "alpha", "beta"),
}


@dataclass(frozen=True)
class DynamicsMatrices:
    """Evaluated dynamics terms: 2x2 M and C, length-2 G."""

    M: np.ndarray
    C: np.ndarray
    G: np.ndarray


def default_params(platform: str) -> PlantParams:
    """Return the factory parameter set for "rotpen" or "nxtway"."""
    key = platform.strip().lower()
    if key == "rotpen":
        return RotPenParams()
    if key == "nxtway":
        return NxtwayParams()
    raise ConfigError(f"unknown platform {platform!r} (expected rotpen or nxtway)")


def params_from_mapping(platform: str, overrides: Mapping[str, object]) -> PlantParams:
    """Build a parameter set from defaults plus key = value overrides.

    Keys must name fields of the platform's parameter set. Derived
    quantities (gamma; J_w, J_q2, J_q3, alpha, beta) may appear only to be
    cross-checked: a value inconsistent with the base fields is refused.

    Raises
    ------
    ConfigError
        For an unknown key, a non-numeric or non-finite value, or an
        inconsistent derived value. Base-field invariant violations raise
        ValueError.
    """
    base = default_params(platform)
    derived = _DERIVED[base.platform]
    fields = {f.name for f in dataclasses.fields(base)}

    plain: dict[str, float] = {}
    check: dict[str, float] = {}
    for key, raw in overrides.items():
        try:
            value = float(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {key}: {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"parameter {key}: {raw!r} is not finite")
        if key in fields:
            plain[key] = value
        elif key in derived:
            check[key] = value
        else:
            raise ConfigError(f"unknown parameter {key!r} for platform {base.platform}")

    params = dataclasses.replace(base, **plain)
    for key, value in check.items():
        actual = getattr(params, key)
        if not math.isclose(actual, value, rel_tol=1e-9, abs_tol=1e-15):
            raise ConfigError(
                f"derived parameter {key} = {value!r} conflicts with its "
                f"defining formula (expected {actual!r})"
            )
    return params


def _check_state(state) -> np.ndarray:
    x = np.asarray(state, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"state must have 4 entries [q1, q2, q1dot, q2dot], got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("state contains non-finite entries")
    return x


def _rotpen_terms(p: RotPenParams, q2: float, q1d: float, q2d: float):
    """Scalar entries (m11, m12, m21, m22, c11, c12, c21, c22, g1, g2)."""
    a, b, c, l2 = p.mass_constants
    gam = p.gamma
    s, co = math.sin(q2), math.cos(q2)

    m11 = gam * (a + l2 * s * s)
    m12 = -gam * b * co
    m21 = -b * co
    m22 = c
    c11 = gam * (2 * l2 * s * co * q2d + p.f_r) + p.K_m * p.K_g
    c12 = gam * b * s * q2d
    c21 = -l2 * s * co * q1d
    c22 = p.f_p
    g2 = -0.5 * p.m_p * p.L_p * p.g * s
    return m11, m12, m21, m22, c11, c12, c21, c22, 0.0, g2


def _nxtway_terms(p: NxtwayParams, q2: float, q1d: float, q2d: float):
    """Scalar entries in the published 1/alpha scale with the negated body row."""
    n2Jm, pw, rb = p.mass_constants
    al = p.alpha
    be = p.beta
    s, co = math.sin(q2), math.cos(q2)
    q0 = p.M * p.L * p.R * co - 2 * n2Jm

    m11 = pw / al
    m12 = q0 / al
    m21 = -q0 / al
    m22 = -rb / al
    c11 = 2 * (be + p.f_w) / al
    c12 = (-2 * be - p.M * p.L * p.R * q2d * s) / al
    c21 = 2 * be / al
    c22 = -2 * be / al
    g2 = p.M * p.g * p.L * s / al
    return m11, m12, m21, m22, c11, c12, c21, c22, 0.0, g2


def scalar_rhs(params: PlantParams):
    """Closure f(q2, q1dot, q2dot, v) -> (q1ddot, q2ddot).

    The scalar form of forward_dynamics, with v the voltage on each motor,
    so an integration loop allocates no arrays. The arm or wheel angle q1
    never enters the dynamics and the position rates are the velocities,
    so the closure takes and returns neither.

    Subexpressions that depend on the parameters alone are evaluated once,
    here, rather than on every call. Only a whole constant subexpression or
    a left-associative constant prefix is folded, so every remaining
    expression keeps its IEEE operation order and the results are bit for
    bit those of the unfolded formulas: ``-gam * b * co`` may become
    ``ngb * co`` with ``ngb = -gam * b``, but ``MgL * s / al`` must not
    become ``(MgL / al) * s``. Other rewrites are exact ones only: a shared
    left prefix such as ``l2 * s``, ``2.0 * v`` for ``2 * v``, and, since
    rounding is symmetric under negation, the nxtway ``m21 = -q0 / al``
    taken as ``-m12``, so that ``- m12 * m21`` becomes ``+ m12 * m12``.
    """
    p = params
    if isinstance(p, RotPenParams):
        a, b, c, l2 = p.mass_constants
        gam = p.gamma
        kmkg = p.K_m * p.K_g
        fr, fp = p.f_r, p.f_p
        halfmpg = 0.5 * p.m_p * p.L_p * p.g
        ngb, nb, l2x2, gb = -gam * b, -b, 2 * l2, gam * b

        def f(x2, x3, x4, v):
            s = math.sin(x2)
            co = math.cos(x2)
            l2s = l2 * s
            m11 = gam * (a + l2s * s)
            m12 = ngb * co
            m21 = nb * co
            r1 = v - (gam * (l2x2 * s * co * x4 + fr) + kmkg) * x3 \
                - (gb * s * x4) * x4
            r2 = l2s * co * x3 * x3 - fp * x4 + halfmpg * s
            det = m11 * c - m12 * m21
            return (c * r1 - m12 * r2) / det, (m11 * r2 - m21 * r1) / det

        return f

    n2Jm, pw, rb = p.mass_constants
    al, be = p.alpha, p.beta
    MLR = p.M * p.L * p.R
    MgL = p.M * p.g * p.L
    m11, m22 = pw / al, -rb / al
    m11m22 = m11 * m22
    c11, c21 = 2 * (be + p.f_w) / al, 2 * be / al
    nbe2, n2Jm2 = -2 * be, 2 * n2Jm

    def f(x2, x3, x4, v):
        s = math.sin(x2)
        co = math.cos(x2)
        m12 = (MLR * co - n2Jm2) / al  # and m21 = -m12
        w = 2.0 * v
        r1 = w - c11 * x3 - ((nbe2 - MLR * x4 * s) / al) * x4
        r2 = w - c21 * x3 + c21 * x4 - MgL * s / al
        det = m11m22 + m12 * m12
        return (m22 * r1 - m12 * r2) / det, (m11 * r2 + m12 * r1) / det

    return f


def eval_mcg(params: PlantParams, state) -> DynamicsMatrices:
    """Evaluate M, C, G at a state [q1, q2, q1dot, q2dot].

    Parameters
    ----------
    params : RotPenParams or NxtwayParams
    state : array_like, shape (4,)
        Generalized positions and velocities; entries must be finite.

    Returns
    -------
    DynamicsMatrices
        Terms of M qddot + C qdot + G = V in the platform's published,
        voltage-referred convention.
    """
    x = _check_state(state)
    terms = (_rotpen_terms if isinstance(params, RotPenParams) else _nxtway_terms)(
        params, x[1], x[2], x[3]
    )
    m11, m12, m21, m22, c11, c12, c21, c22, g1, g2 = terms
    return DynamicsMatrices(
        M=np.array([[m11, m12], [m21, m22]]),
        C=np.array([[c11, c12], [c21, c22]]),
        G=np.array([g1, g2]),
    )


def _input_vector(params: PlantParams, v) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("input voltage is not finite")
    if isinstance(params, RotPenParams):
        if arr.size != 1:
            raise ValueError("rotpen takes a single motor voltage")
        return np.array([arr[0], 0.0])
    if arr.size == 1:
        total = 2.0 * arr[0]  # one scalar drives both motors
    elif arr.size == 2:
        total = arr[0] + arr[1]
    else:
        raise ValueError("nxtway takes one shared or two per-motor voltages")
    return np.array([total, total])


def forward_dynamics(params: PlantParams, state, v) -> np.ndarray:
    """Accelerations qddot = M^-1 (V - C qdot - G).

    Parameters
    ----------
    params : RotPenParams or NxtwayParams
    state : array_like, shape (4,)
    v : float or sequence
        RotPen: the motor voltage. NxtWay: either a scalar applied to both
        motors or the pair (v_left, v_right); only the sum enters.

    Returns
    -------
    ndarray, shape (2,)
        Generalized accelerations in rad/s^2.
    """
    x = _check_state(state)
    V = _input_vector(params, v)
    mats = eval_mcg(params, x)
    det = mats.M[0, 0] * mats.M[1, 1] - mats.M[0, 1] * mats.M[1, 0]
    if abs(det) <= 1e-12:
        raise ValueError(f"singular mass matrix at q2 = {x[1]!r}")
    rhs = V - mats.C @ x[2:] - mats.G
    return np.linalg.solve(mats.M, rhs)


def mechanical_energy(params: PlantParams, state) -> float:
    """Kinetic plus potential energy of the mechanical subsystem, in joules.

    Uses the physical symmetric mass matrix (no voltage referral). The
    potential reference is the hanging pose, so the upright pole holds the
    maximum potential energy.
    """
    x = _check_state(state)
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
