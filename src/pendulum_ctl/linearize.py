"""State-space models: numeric Jacobians, closed forms, ZOH discretization.

Controllers are synthesized from the closed-form builders, which reproduce
each platform's published linearization. The numeric Jacobian is the
independent cross-check: it differentiates plants.scalar_rhs, the
accelerations whose RK4 steps the simulator takes, and the two agree
entry-wise to within the differencing error at the upright origin.

The package calls two of scipy's compiled modules, scipy.linalg._flapack
and scipy.linalg._matfuncs_expm. scipy_kernels loads both from their files
without importing scipy.linalg, which costs more than the rest of a
command's start-up; where that fails, it takes them from scipy.linalg.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from typing import Optional

import numpy as np

from .matrixfile import read_matrix_file, write_matrix_file
from .plants import NxtwayParams, PlantParams, RotPenParams, scalar_rhs

__all__ = [
    "StateSpace",
    "jacobian_linearize",
    "rotpen_statespace_closed_form",
    "nxtway_statespace_closed_form",
    "closed_form",
    "discretize_zoh",
    "scipy_kernels",
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


def jacobian_linearize(params: PlantParams) -> StateSpace:
    """Linearize a plant about the upright origin with zero input.

    The Jacobian differentiates plants.scalar_rhs by central differences of
    the absolute step 1e-6 in each coordinate of z = (x, u), in plain
    floats. The position rates are the velocities, so the kinematic rows
    are exactly [0, 0, 1, 0] and [0, 0, 0, 1]; the arm or wheel angle q1
    never enters the dynamics, so its column is zero.

    For the two-wheeled robot the input is the pair of motor voltages, so B
    has two (equal) columns: the kernel's per-motor voltage is their mean.
    The rotary pendulum has a single voltage input.
    """
    m = 2 if isinstance(params, NxtwayParams) else 1
    eps = 1e-6
    rhs = scalar_rhs(params)

    def g(z):
        return rhs(z[1], z[2], z[3], z[4] if m == 1 else 0.5 * (z[4] + z[5]))

    J = np.zeros((4, 4 + m))
    J[0, 2] = J[1, 3] = 1.0
    for i in range(1, 4 + m):
        hi, lo = [0.0] * (4 + m), [0.0] * (4 + m)
        hi[i], lo[i] = eps, -eps
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
        E = _expm(aug)
    if not np.isfinite(E).all():
        raise ValueError(f"Ts = {Ts!r} overflows the matrix exponential of the model")
    return StateSpace(A=E[:n, :n], B=E[:n, n:], Ts=Ts)


def _load_by_file(name: str):
    """scipy.linalg.<name>, loaded from its file without importing scipy.linalg.

    The module is left out of sys.modules, so a later import of scipy.linalg
    loads its own; one already there is left in place.
    """
    folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                          "linalg")
    paths = [path for suffix in EXTENSION_SUFFIXES
             if os.path.isfile(path := os.path.join(folder, name + suffix))]
    if not paths:
        raise ImportError(f"no compiled {name} in {folder}")
    fullname = "scipy.linalg." + name
    registered = fullname in sys.modules
    spec = importlib.util.spec_from_file_location(fullname, paths[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:  # a single-phase extension registers itself
        sys.modules.pop(fullname, None)
    return module


@functools.cache
def scipy_kernels():
    """(lapack, pade, source): the scipy kernels synthesis and discretize_zoh call.

    lapack holds the double-precision LAPACK routines (dgees, ...) as
    attributes, the functions get_lapack_funcs returns for float64. pade is
    scipy.linalg._matfuncs_expm, or None where expm goes to
    scipy.linalg.expm. source says where they came from: "direct", or
    scipy.linalg and why.

    Both modules are loaded from their files. If either is missing, fails
    to load, or has a pade_UV_calc that refuses (Am, m) (scipy <= 1.11
    takes (Am, n, m)), both come from scipy.linalg.
    """
    try:
        lapack = _load_by_file("_flapack")
        pade = _load_by_file("_matfuncs_expm")
        pade.pade_UV_calc(np.zeros((5, 2, 2)), 3)
    except Exception as exc:  # missing, moved, unloadable or another signature
        import scipy.linalg
        return scipy.linalg.lapack, None, f"scipy.linalg ({type(exc).__name__}: {exc})"
    return lapack, pade, "direct"


def _expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm(a) for a square float64 a, bit for bit.

    A full a takes scipy 1.17's generic branch: Pade structure, Pade
    approximant, then s squarings. A diagonal or triangular a, or a
    1 x 1 one, goes to scipy.linalg.expm, as does every a where
    scipy_kernels fell back to scipy.linalg.
    """
    pade = scipy_kernels()[1]
    if pade is None or not (np.tril(a, -1).any() and np.triu(a, 1).any()):
        from scipy.linalg import expm
        return expm(a)
    Am = np.empty((5, *a.shape))  # scratch the kernels overwrite; Am[0] ends as the result
    Am[0] = a
    m, s = pade.pick_pade_structure(Am)
    info = pade.pade_UV_calc(Am, m) if m >= 0 else m
    if info != 0:
        raise RuntimeError(f"the Pade approximant of expm failed (error code {info})")
    E = Am[0]
    for _ in range(s):
        E = E @ E
    return E


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
