"""State-space models: numeric Jacobians, closed forms, ZOH discretization.

Controllers are synthesized from the closed-form builders, which reproduce
each platform's published linearization. The numeric Jacobian is the
independent cross-check: it differentiates plants.scalar_rhs, the
generated accelerations kernel that the simulator integrates, and the two
agree entry-wise to within the differencing error at the upright origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .matrixfile import read_matrix_file, write_matrix_file
from .plants import NxtwayParams, PlantParams, RotPenParams, scalar_rhs

__all__ = [
    "StateSpace",
    "numeric_jacobian",
    "jacobian_linearize",
    "rotpen_statespace_closed_form",
    "nxtway_statespace_closed_form",
    "closed_form",
    "discretize_zoh",
    "save_statespace",
    "load_statespace",
]

_LABELS = ("q1", "q2", "q1dot", "q2dot")


@dataclass(frozen=True)
class StateSpace:
    """A continuous or discrete linear model (A, B, C, D).

    C defaults to the identity and D to zeros. Ts must be given (positive)
    for kind "discrete" and omitted for kind "continuous".
    """

    A: np.ndarray
    B: np.ndarray
    C: Optional[np.ndarray] = None
    D: Optional[np.ndarray] = None
    kind: str = "continuous"
    Ts: Optional[float] = None
    state_labels: tuple = field(default=_LABELS)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        C = np.eye(n) if self.C is None else np.atleast_2d(np.asarray(self.C, dtype=float))
        D = (np.zeros((C.shape[0], B.shape[1])) if self.D is None
             else np.atleast_2d(np.asarray(self.D, dtype=float)))
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {C.shape}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(f"D must be {(C.shape[0], B.shape[1])}, got {D.shape}")
        if self.kind not in ("continuous", "discrete"):
            raise ValueError(f"kind must be continuous or discrete, got {self.kind!r}")
        if self.kind == "discrete":
            if self.Ts is None or not self.Ts > 0:
                raise ValueError("discrete systems need Ts > 0")
        elif self.Ts is not None:
            raise ValueError("continuous systems take no Ts")
        labels = tuple(self.state_labels)
        if len(labels) != n:
            labels = tuple(f"x{i+1}" for i in range(n))
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "state_labels", labels)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be positive and finite")


def numeric_jacobian(f: Callable, x0, u0, eps: float = 1e-6):
    """Central-difference Jacobians of xdot = f(x, u) at (x0, u0).

    Parameters
    ----------
    f : callable
        Maps (x, u) arrays to the state derivative array.
    x0, u0 : array_like
        Expansion point.
    eps : float
        Absolute differencing step, applied per coordinate; positive and
        finite.

    Returns
    -------
    (A, B) : ndarray pair
        A = df/dx, B = df/du.
    """
    _check_eps(eps)
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    n = x0.size
    z0 = np.concatenate([x0.ravel(), u0.ravel()])

    def g(z):
        return np.asarray(f(z[:n].reshape(x0.shape), z[n:].reshape(u0.shape)), dtype=float)

    J = np.zeros((g(z0).size, z0.size))
    for i, step in enumerate(eps * np.eye(z0.size)):
        J[:, i] = (g(z0 + step) - g(z0 - step)) / (2 * eps)
    return J[:, :n], J[:, n:]


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

    The Jacobian differentiates plants.scalar_rhs, the generated kernel
    that the simulator integrates, by the central difference of
    numeric_jacobian over z = (x, u), in plain floats. The position rates
    are the velocities, so the kinematic rows are exactly [0, 0, 1, 0] and
    [0, 0, 0, 1]; the arm or wheel angle q1 never enters the dynamics, so
    its column is zero.

    For the two-wheeled robot the input is the pair of motor voltages, so B
    has two (equal) columns: the kernel's per-motor voltage is their mean.
    The rotary pendulum has a single voltage input.
    """
    m = 2 if isinstance(params, NxtwayParams) else 1
    z0 = (_expansion_point(x0, 4, "x0", params.platform)
          + _expansion_point(u0, m, "u0", params.platform))
    _check_eps(eps)
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
    return StateSpace(A=J[:, :4], B=J[:, 4:], kind="continuous")


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
    return StateSpace(A=A, B=B, kind="continuous")


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
    return StateSpace(A=A, B=B, kind="continuous")


def closed_form(params: PlantParams) -> StateSpace:
    """The published closed-form model of the platform params belong to."""
    if isinstance(params, NxtwayParams):
        return nxtway_statespace_closed_form(params)
    return rotpen_statespace_closed_form(params)


def discretize_zoh(ss: StateSpace, Ts: float) -> StateSpace:
    """Discretize a continuous model under a zero-order hold.

    Ad and Bd come from one matrix exponential of the augmented
    [[A, B], [0, 0]] block scaled by Ts; C and D pass through unchanged.
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
    return StateSpace(A=E[:n, :n], B=E[:n, n:], C=ss.C, D=ss.D,
                      kind="discrete", Ts=Ts, state_labels=ss.state_labels)


def save_statespace(ss: StateSpace, path) -> None:
    """Write a state-space model to a labeled plain-text file (row major)."""
    meta = {"kind": ss.kind,
            "Ts": repr(float(ss.Ts)) if ss.Ts is not None else "none",
            "labels": ",".join(ss.state_labels)}
    write_matrix_file(path, "pendulum-ctl state-space model", meta,
                      {"A": ss.A, "B": ss.B, "C": ss.C, "D": ss.D})


def _statespace_from(meta: dict, matrices: dict) -> StateSpace:
    Ts = None if meta.get("Ts", "none") == "none" else float(meta["Ts"])
    labels = tuple(meta.get("labels", "").split(",")) if meta.get("labels") else _LABELS
    return StateSpace(A=matrices["A"], B=matrices["B"], C=matrices.get("C"),
                      D=matrices.get("D"), kind=meta.get("kind", "continuous"),
                      Ts=Ts, state_labels=labels)


def load_statespace(path) -> StateSpace:
    """Read a model written by save_statespace; a bad file raises ValueError."""
    return read_matrix_file(path, _statespace_from)
