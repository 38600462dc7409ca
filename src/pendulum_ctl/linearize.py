"""State-space models: numeric Jacobians, closed forms, ZOH discretization.

Controllers are synthesized from the closed-form builders, which reproduce
each platform's published linearization. The numeric Jacobian is the
independent cross-check: it differentiates plants.scalar_rhs, the
accelerations whose RK4 steps the simulator takes, and the two agree
entry-wise to within the differencing error at the upright origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .matrixfile import read_matrix_file, write_matrix_file
from .plants import NxtwayParams, PlantParams, RotPenParams, scalar_rhs

__all__ = [
    "StateSpace",
    "jacobian_linearize",
    "rotpen_statespace_closed_form",
    "nxtway_statespace_closed_form",
    "closed_form",
    "discretize_zoh",
    "save_statespace",
    "load_statespace",
]

@dataclass(frozen=True)
class StateSpace:
    """A linear model x' = A x + B u, or x[k+1] = A x[k] + B u[k] every Ts seconds.

    Ts is None for a continuous model and positive and finite for a
    discrete one; kind reads which.
    """

    A: np.ndarray
    B: np.ndarray
    Ts: Optional[float] = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        if self.Ts is not None:
            if not (math.isfinite(self.Ts) and self.Ts > 0):
                raise ValueError(f"Ts must be positive and finite, got {self.Ts!r}")
            object.__setattr__(self, "Ts", float(self.Ts))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def kind(self) -> str:
        return "continuous" if self.Ts is None else "discrete"

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]


def _expansion_point(value, size: int, name: str, platform: str) -> list:
    """value (default zeros) as a list of size finite floats, else ValueError."""
    values = [0.0] * size if value is None else np.ravel(np.asarray(value, dtype=float)).tolist()
    if len(values) != size:
        raise ValueError(f"{name} must have {size} entries for {platform}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} contains non-finite entries")
    return values


def jacobian_linearize(params: PlantParams, x0=None, u0=None, eps: float = 1e-6) -> StateSpace:
    """Linearize a plant about (x0, u0), default the upright origin.

    The Jacobian differentiates plants.scalar_rhs by central differences of
    the absolute step eps (positive and finite) in each coordinate of
    z = (x, u), in plain floats. The position rates are the velocities, so
    the kinematic rows are exactly [0, 0, 1, 0] and [0, 0, 0, 1]; the arm or
    wheel angle q1 never enters the dynamics, so its column is zero.

    For the two-wheeled robot the input is the pair of motor voltages, so B
    has two (equal) columns: the kernel's per-motor voltage is their mean.
    The rotary pendulum has a single voltage input.
    """
    m = 2 if isinstance(params, NxtwayParams) else 1
    z0 = (_expansion_point(x0, 4, "x0", params.platform)
          + _expansion_point(u0, m, "u0", params.platform))
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be positive and finite")
    rhs = scalar_rhs(params)

    def g(z):
        return rhs(z[1], z[2], z[3], z[4] if m == 1 else 0.5 * (z[4] + z[5]))

    J = np.zeros((4, 4 + m))
    J[0, 2] = J[1, 3] = 1.0
    for i in range(1, 4 + m):
        hi, lo = z0.copy(), z0.copy()
        hi[i] += eps
        lo[i] -= eps
        (a1, a2), (b1, b2) = g(hi), g(lo)
        J[2, i] = (a1 - b1) / (2 * eps)
        J[3, i] = (a2 - b2) / (2 * eps)
    return StateSpace(A=J[:, :4], B=J[:, 4:])


def rotpen_statespace_closed_form(params: RotPenParams) -> StateSpace:
    """Closed-form continuous model of the rotary pendulum at the origin.

    The kinematic entries A[0, 2] and A[1, 3] are exactly 1; the published
    table prints 1/Delta there, which would break the identity between the
    position states and the velocity states, so the corrected value is
    emitted.
    """
    p = params
    a, b, c, _ = p.mass_constants
    gam = p.gamma
    delta = gam * (a * c - b * b)
    if delta == 0.0:
        raise ValueError("degenerate parameters: zero mass-matrix determinant")
    drag = p.f_r * gam + p.K_m * p.K_g

    A = np.zeros((4, 4))
    A[0, 2] = 1.0
    A[1, 3] = 1.0
    A[2, 1] = 0.25 * p.m_p ** 2 * p.L_p ** 2 * p.L_r * p.g * gam / delta
    A[2, 2] = -drag * c / delta
    A[2, 3] = -0.5 * p.m_p * p.L_p * p.L_r * p.f_p * gam / delta
    A[3, 1] = 0.5 * p.L_p * p.m_p * p.g * gam * a / delta
    A[3, 2] = -0.5 * p.m_p * p.L_p * p.L_r * drag / delta
    A[3, 3] = -p.f_p * gam * a / delta

    B = np.zeros((4, 1))
    B[2, 0] = c / delta
    B[3, 0] = 0.5 * p.m_p * p.L_p * p.L_r / delta
    return StateSpace(A=A, B=B)


def nxtway_statespace_closed_form(params: NxtwayParams) -> StateSpace:
    """Closed-form continuous model of the two-wheeled robot at the origin.

    The two B columns are identical: each motor contributes the same
    torque path, and the wheels are driven symmetrically.
    """
    p = params
    n2Jm, pw, rb = p.mass_constants
    q0 = p.M * p.L * p.R - 2 * n2Jm
    delta = pw * rb - q0 * q0
    if delta == 0.0:
        raise ValueError("degenerate parameters: zero mass-matrix determinant")
    be, fw, al = p.beta, p.f_w, p.alpha

    A = np.zeros((4, 4))
    A[0, 2] = 1.0
    A[1, 3] = 1.0
    A[2, 1] = -p.g * p.M * p.L * q0 / delta
    A[2, 2] = -(2 * (be + fw) * rb + 2 * be * q0) / delta
    A[2, 3] = 2 * be * (p.M * p.L ** 2 + p.J_q2 + p.M * p.L * p.R) / delta
    A[3, 1] = p.M * p.g * p.L * pw / delta
    A[3, 2] = (2 * (be + fw) * q0 + 2 * be * pw) / delta
    A[3, 3] = -2 * be * (p.M * p.L * p.R + 2 * p.m * p.R ** 2 + p.M * p.R ** 2 + 2 * p.J_w) / delta

    b_top = al * (p.M * p.L ** 2 + p.J_q2 + p.M * p.L * p.R) / delta
    b_bot = -al * (p.M * p.L * p.R + 2 * p.m * p.R ** 2 + p.M * p.R ** 2 + 2 * p.J_w) / delta
    B = np.array([[0.0, 0.0], [0.0, 0.0], [b_top, b_top], [b_bot, b_bot]])
    return StateSpace(A=A, B=B)


def closed_form(params: PlantParams) -> StateSpace:
    """The published closed-form model of the platform params belong to."""
    if isinstance(params, NxtwayParams):
        return nxtway_statespace_closed_form(params)
    return rotpen_statespace_closed_form(params)


def discretize_zoh(ss: StateSpace, Ts: float) -> StateSpace:
    """Discretize a continuous model under a zero-order hold.

    Ad and Bd come from one matrix exponential of the augmented
    [[A, B], [0, 0]] block scaled by Ts.
    A Ts that is not positive and finite, or so long that the exponential
    overflows, raises ValueError.
    """
    if ss.kind != "continuous":
        raise ValueError("discretize_zoh expects a continuous system")
    if not (math.isfinite(Ts) and Ts > 0):
        raise ValueError("Ts must be positive and finite")
    n, m = ss.n_states, ss.n_inputs
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = ss.A * Ts
    aug[:n, n:] = ss.B * Ts
    with np.errstate(all="ignore"):
        E = expm(aug)
    if not np.isfinite(E).all():
        raise ValueError(f"Ts = {Ts!r} overflows the matrix exponential of the model")
    return StateSpace(A=E[:n, :n], B=E[:n, n:], Ts=Ts)


def save_statespace(ss: StateSpace, path) -> None:
    """Write Ts, A and B to a plain-text matrix file (row major)."""
    write_matrix_file(path, "pendulum-ctl state-space model",
                      {"Ts": "none" if ss.Ts is None else repr(ss.Ts)},
                      {"A": ss.A, "B": ss.B})


def _statespace_from(meta: dict, matrices: dict) -> StateSpace:
    Ts = None if meta.get("Ts", "none") == "none" else float(meta["Ts"])
    return StateSpace(A=matrices["A"], B=matrices["B"], Ts=Ts)


def load_statespace(path) -> StateSpace:
    """Read a model written by save_statespace; a bad file raises ValueError.

    The kind and labels lines and the [C] and [D] blocks of older files
    are ignored: Ts tells the kind, and no computation read the rest.
    """
    return read_matrix_file(path, _statespace_from)
