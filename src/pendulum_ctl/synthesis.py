"""Controller synthesis for the two pendulum platforms.

Two controller families are produced here. The first is the continuous-time
linear quadratic regulator: the algebraic Riccati equation

    A'P + P A - P B R^-1 B' P + Q = 0

is solved in house by an ordered real Schur decomposition of the associated
2n x 2n Hamiltonian matrix, followed by a few Newton defect-correction steps
so the residual lands near machine precision. The gain is K = R^-1 B' P and
the control law is u = -K x.

The second family is a discrete-time sliding-mode controller. The sampled
model is rotated into regular form with a Householder reflection so the
input enters only the last coordinate, a reduced-order discrete LQR places
the sliding dynamics, and the switching term uses the reaching-law gain
bound sqrt((Ts*alpha/sqrt(2))^2 + 1).

The balance controller for the two-wheeled robot augments the model with an
integral of the wheel angle and weights both motor channels separately; by
symmetry the two motor gain rows coincide and a single row is reported.

nominal_lqr and nominal_smc hold each platform's published design: its
closed-form model, LQR structure, default weights and controller period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import SynthesisError
from .linearize import StateSpace, closed_form, discretize_zoh
from .matrixfile import read_matrix_file, write_matrix_file

__all__ = [
    "DEFAULT_ROTPEN_Q",
    "DEFAULT_ROTPEN_R",
    "DEFAULT_NXTWAY_Q",
    "DEFAULT_NXTWAY_R",
    "DEFAULT_LQR_WEIGHTS",
    "DEFAULT_SMC_ALPHA",
    "DEFAULT_TS",
    "REFERENCE_LQR_GAINS",
    "REFERENCE_SMC_SWITCHING_GAINS",
    "LqrDesign",
    "SmcDesign",
    "RegularForm",
    "StabilityReport",
    "solve_care",
    "care_residual",
    "lqr_gain",
    "integral_augmented",
    "nxtway_integral_lqr",
    "reference_lqr_design",
    "nominal_lqr",
    "regular_form",
    "smc_surface",
    "smc_gain_bound",
    "design_smc",
    "nominal_smc",
    "stability_report",
    "save_design",
    "load_design",
]

# default LQR weights for each platform
DEFAULT_ROTPEN_Q = np.diag([5.0, 1.0, 1.0, 1.0])
DEFAULT_ROTPEN_R = np.array([[1.0]])

# two-wheeled robot, integral-augmented state (q1, q2, q1dot, q2dot, int_q1)
# with one weight per motor channel
DEFAULT_NXTWAY_Q = np.diag([1.0, 6.0e5, 1.0, 1.0, 4.0e2])
DEFAULT_NXTWAY_R = np.diag([1.0e3, 1.0e3])

# (Q, R) of each platform's nominal LQR
DEFAULT_LQR_WEIGHTS = {"rotpen": (DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R),
                       "nxtway": (DEFAULT_NXTWAY_Q, DEFAULT_NXTWAY_R)}

# reaching rate of the discrete sliding-mode design
DEFAULT_SMC_ALPHA = 100.0

# controller sample period of each platform, in seconds
DEFAULT_TS = {"rotpen": 0.002, "nxtway": 0.004}

# Gain sets recorded from the two hardware implementations, kept as fixtures
# for regression runs and for the command line "reference" selector. The
# convention is u = -K x (minus Ki times the wheel-angle integral where one
# is present). The recorded switching gains exceed smc_gain_bound at their
# sample rates; design_smc flags user gains like these as non-conforming.
REFERENCE_LQR_GAINS = {
    "rotpen": {"K": (-2.2361, 25.4512, -2.4613, 3.6332), "Ki": None},
    "nxtway": {"K": (-0.8211, -69.4743, -1.0739, -9.0738), "Ki": -0.4472},
}
REFERENCE_SMC_SWITCHING_GAINS = {"rotpen": 2.5, "nxtway": 20.0}


def _as_square(M, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(M, dtype=float))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _allclose(a, b, rtol: float, atol: float) -> bool:
    """np.allclose(a, b, rtol, atol) for finite inputs, in one vectorized test."""
    return bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


# ---------------------------------------------------------------------------
# continuous-time Riccati equation
# ---------------------------------------------------------------------------

def care_residual(A, B, Q, R, P) -> float:
    """Frobenius norm of A'P + PA - PBR^-1B'P + Q."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    S = B @ np.linalg.solve(R, B.T)
    return float(np.linalg.norm(A.T @ P + P @ A - P @ S @ P + Q))


def solve_care(A, B, Q, R) -> np.ndarray:
    """Stabilizing solution of the continuous algebraic Riccati equation.

    The 2n x 2n Hamiltonian [[A, -BR^-1B'], [-Q, -A']] is reduced by an
    ordered real Schur decomposition; the basis of its stable invariant
    subspace yields P = U2 U1^-1. Newton steps on the Riccati residual,
    each one a Sylvester solve against the closed-loop matrix, then polish
    the result. Raises SynthesisError when no stabilizing solution exists
    (non-stabilizable pair, indefinite weights) or the residual stays large.
    """
    A = _as_square(A, "A")
    n = A.shape[0]
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError(f"B must have {n} rows, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("B contains non-finite entries")
    m = B.shape[1]
    Q = _as_square(Q, "Q")
    R = _as_square(R, "R")
    if Q.shape[0] != n:
        raise ValueError(f"Q must be {n} x {n}, got {Q.shape}")
    if R.shape[0] != m:
        raise ValueError(f"R must be {m} x {m}, got {R.shape}")
    if not _allclose(Q, Q.T, rtol=1e-8, atol=1e-10):
        raise ValueError("Q must be symmetric")
    if not _allclose(R, R.T, rtol=1e-8, atol=1e-10):
        raise ValueError("R must be symmetric")

    Qs = 0.5 * (Q + Q.T)
    Rs = 0.5 * (R + R.T)
    if np.linalg.eigvalsh(Qs).min() < -1e-10 * max(1.0, np.linalg.norm(Qs)):
        raise SynthesisError("state weight Q must be positive semidefinite")
    try:
        chol = scipy.linalg.cho_factor(Rs)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        raise SynthesisError("input weight R must be positive definite") from None
    S = B @ scipy.linalg.cho_solve(chol, B.T)
    S = 0.5 * (S + S.T)

    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = -S
    H[n:, :n] = -Qs
    H[n:, n:] = -A.T
    T, Z, sdim = scipy.linalg.schur(H, output="real", sort="lhp")
    if sdim != n:
        raise SynthesisError(
            f"stable invariant subspace has dimension {sdim}, expected {n}; "
            "the pair (A, B) may not be stabilizable")
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    try:
        P = np.linalg.solve(U1.T, U2.T).T
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(
            "stable subspace basis is singular; no stabilizing solution") from exc
    P = 0.5 * (P + P.T)

    # Newton defect correction: solve Acl' X + X Acl = -F(P) and step; each
    # defect F is evaluated once and carried with the P it belongs to
    def _defect(Pc):
        return A.T @ Pc + Pc @ A - Pc @ S @ Pc + Qs

    F = _defect(P)
    rnorm = np.linalg.norm(F)
    for _ in range(10):
        if rnorm <= 1e-13 * (1.0 + np.linalg.norm(P)):
            break
        Acl = A - S @ P
        try:
            X = scipy.linalg.solve_sylvester(Acl.T, Acl, -F)
        except (np.linalg.LinAlgError, ValueError):
            break
        Pn = P + 0.5 * (X + X.T)
        Pn = 0.5 * (Pn + Pn.T)
        Fn = _defect(Pn)
        fnorm = np.linalg.norm(Fn)
        if fnorm >= rnorm:
            break
        P, F, rnorm = Pn, Fn, fnorm

    scale = 1.0 + np.linalg.norm(P)
    if rnorm > 1e-8 * scale:
        raise SynthesisError(
            f"Riccati residual {rnorm:.3e} exceeds 1e-8*(1+||P||) after refinement")
    if np.linalg.eigvalsh(P).min() < -1e-8 * scale:
        raise SynthesisError("Riccati solution is not positive semidefinite")
    if np.linalg.eigvals(A - S @ P).real.max() >= 0.0:
        raise SynthesisError(
            "closed loop is not asymptotically stable; "
            "the pair (A, B) may not be stabilizable")
    return P


# ---------------------------------------------------------------------------
# LQR designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LqrDesign:
    """An LQR solution: weights, Riccati matrix, gain and defect norm.

    K always excludes any integral state; designs that carry one report the
    integral gain separately in Ki so the control law reads
    u = -K (x - x_ref) - Ki * integral.
    """

    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray | None
    K: np.ndarray
    Ki: float | None = None
    residual: float = 0.0

    def __post_init__(self):
        for name in ("Q", "R", "K"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
        if self.P is not None:
            object.__setattr__(self, "P",
                               np.atleast_2d(np.asarray(self.P, dtype=float)))
        if self.Ki is not None:
            object.__setattr__(self, "Ki", float(self.Ki))
        object.__setattr__(self, "residual", float(self.residual))


def lqr_gain(A, B, Q, R) -> LqrDesign:
    """Solve the CARE and return the optimal state-feedback design."""
    P = solve_care(A, B, Q, R)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    K = np.linalg.solve(R, B.T @ P)
    if np.linalg.eigvals(A - B @ K).real.max() >= 0.0:
        raise SynthesisError("gain does not stabilize the model")
    return LqrDesign(Q=Q, R=R, P=P, K=K,
                     residual=care_residual(A, B, Q, R, P))


def integral_augmented(ss: StateSpace) -> StateSpace:
    """The continuous four-state model with a fifth state integrating q1.

    An integral design's gain row [K, Ki] acts on this model.
    """
    if ss.kind != "continuous" or ss.n_states != 4:
        raise ValueError("integral augmentation expects the continuous four-state model")
    A5 = np.zeros((5, 5))
    A5[:4, :4] = ss.A
    A5[4, 0] = 1.0
    B5 = np.vstack([ss.B, np.zeros((1, ss.n_inputs))])
    return StateSpace(A=A5, B=B5, state_labels=ss.state_labels + ("int_q1",))


def nxtway_integral_lqr(ss: StateSpace, Q=None, R=None) -> LqrDesign:
    """Integral-augmented balance LQR for the two-wheeled robot.

    The continuous four-state model gains a fifth state, the integral of
    the wheel angle q1, and both motor channels are weighted individually.
    The drive is symmetric so the two motor rows of the optimal gain agree;
    the returned design holds that single row as K and the integral gain
    as Ki, for the per-motor law u = -K x - Ki * int(q1).
    """
    aug = integral_augmented(ss)
    if ss.n_inputs != 2:
        raise ValueError("expected a two-motor model")
    if not _allclose(ss.B[:, 0], ss.B[:, 1], rtol=1e-9, atol=1e-12):
        raise ValueError("motor input columns are not symmetric")
    design = lqr_gain(aug.A, aug.B, DEFAULT_NXTWAY_Q if Q is None else Q,
                      DEFAULT_NXTWAY_R if R is None else R)
    K = design.K
    if not _allclose(K[0], K[1], rtol=1e-8, atol=1e-10):
        raise SynthesisError("motor gain rows diverged despite a symmetric drive")
    return replace(design, K=K[:1, :4].copy(), Ki=float(K[0, 4]))


def reference_lqr_design(platform: str) -> LqrDesign:
    """LqrDesign carrying the recorded hardware gain set for a platform.

    These gains are loaded, not synthesized, so no Riccati matrix
    accompanies them: P is None and the residual is NaN. The weights are
    the defaults the recordings correspond to.
    """
    key = str(platform).strip().lower()
    if key not in REFERENCE_LQR_GAINS:
        raise ValueError(f"unknown platform {platform!r}")
    fix = REFERENCE_LQR_GAINS[key]
    Q, R = DEFAULT_LQR_WEIGHTS[key]
    return LqrDesign(Q=Q, R=R, P=None, K=np.array([fix["K"]]), Ki=fix["Ki"],
                     residual=float("nan"))


def nominal_lqr(params, Q=None, R=None) -> LqrDesign:
    """The platform's balance LQR on its closed-form model.

    The rotary pendulum gets plain state feedback (lqr_gain), the
    two-wheeled robot integral action on the wheel angle
    (nxtway_integral_lqr). Weights left as None take the platform's
    DEFAULT_LQR_WEIGHTS.
    """
    Q0, R0 = DEFAULT_LQR_WEIGHTS[params.platform]
    Q, R = (Q0 if Q is None else Q), (R0 if R is None else R)
    ss = closed_form(params)
    if params.platform == "nxtway":
        return nxtway_integral_lqr(ss, Q, R)
    return lqr_gain(ss.A, ss.B, Q, R)


# ---------------------------------------------------------------------------
# discrete sliding-mode synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularForm:
    """Discrete model rotated so the input acts on the last state only."""

    H: np.ndarray
    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray

    def __post_init__(self):
        for name in ("H", "A11", "A12", "A21", "A22"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)


def regular_form(Ad, Bd) -> RegularForm:
    """Rotate (Ad, Bd) by a Householder reflection H with H Bd = ||Bd|| e_n.

    Returns the blocks of H Ad H' partitioned against the last coordinate.
    """
    Ad = _as_square(Ad, "Ad")
    n = Ad.shape[0]
    Bd = np.asarray(Bd, dtype=float).reshape(n, -1)
    if Bd.shape[1] != 1:
        raise ValueError("regular form expects a single input column")
    v = Bd[:, 0]
    nb = np.linalg.norm(v)
    if nb == 0.0:
        raise ValueError("input column is zero")
    e = np.zeros(n)
    e[-1] = 1.0
    w = v - nb * e
    if np.linalg.norm(w) < 1e-12 * nb:
        H = np.eye(n)
    else:
        H = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    Az = H @ Ad @ H.T
    return RegularForm(H=H, A11=Az[:n - 1, :n - 1], A12=Az[:n - 1, n - 1:],
                       A21=Az[n - 1:, :n - 1], A22=Az[n - 1:, n - 1:])


def _rf_block(blocks, name: str) -> np.ndarray:
    value = getattr(blocks, name, None)
    if value is None:
        value = blocks[name]
    return np.atleast_2d(np.asarray(value, dtype=float))


def smc_surface(blocks, C):
    """Eigenvalues of the sliding dynamics A11 - A12 C and a verdict.

    blocks may be a RegularForm or any mapping with keys A11, A12, A21,
    A22. Returns (eigenvalues, stable) where stable demands every modulus
    strictly inside the unit circle.
    """
    A11 = _rf_block(blocks, "A11")
    A12 = _rf_block(blocks, "A12")
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n1 = A11.shape[0]
    if A11.shape != (n1, n1):
        raise ValueError("A11 must be square")
    if A12.shape[0] != n1 or C.shape != (A12.shape[1], n1):
        raise ValueError(
            f"incompatible surface dimensions: A12 {A12.shape}, C {C.shape}")
    eigs = np.linalg.eigvals(A11 - A12 @ C)
    return eigs, bool(np.all(np.abs(eigs) < 1.0 - 1e-9))


def smc_gain_bound(Ts: float, alpha: float) -> float:
    """Largest switching gain honoring the discrete reaching law.

    For sample time Ts and reaching rate alpha the sliding variable obeys
    delta V <= -Ts*(alpha/sqrt(2))*|s| whenever k <= sqrt((Ts*alpha/sqrt(2))^2 + 1).
    """
    Ts = float(Ts)
    alpha = float(alpha)
    if Ts <= 0.0:
        raise ValueError("sample time must be positive")
    if alpha <= 0.0:
        raise ValueError("reaching rate alpha must be positive")
    try:
        bound = math.sqrt((Ts * alpha / math.sqrt(2.0)) ** 2 + 1.0)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"reaching rate alpha = {alpha!r} at Ts = {Ts!r} "
                         "overflows the switching gain bound")
    return bound


@dataclass(frozen=True)
class SmcDesign:
    """Discrete sliding-mode controller: u = -Keq x - k sign(L x)."""

    L: np.ndarray
    Keq: np.ndarray
    k: float
    Ts: float
    alpha: float
    surface_eigs: np.ndarray
    k_exceeds_bound: bool = False

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float).ravel())
        object.__setattr__(self, "Keq", np.asarray(self.Keq, dtype=float).ravel())
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "Ts", float(self.Ts))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "surface_eigs",
                           np.asarray(self.surface_eigs, dtype=complex).ravel())
        object.__setattr__(self, "k_exceeds_bound", bool(self.k_exceeds_bound))


def design_smc(ss: StateSpace, alpha: float = DEFAULT_SMC_ALPHA,
               k: float | None = None) -> SmcDesign:
    """Design a discrete sliding-mode controller on a sampled model.

    The model is rotated into regular form, a reduced-order discrete LQR
    (unit weights) places the sliding dynamics, and the surface row L is
    scaled so L Bd = 1, which makes Keq = L Ad the equivalent control and
    sends the sliding variable to -k sign(s) in a single step. Multi-motor
    models are collapsed by summing input columns (symmetric drive). When
    k is omitted it is set to the reaching-law bound; a user-supplied k
    larger than the bound is kept but flagged via k_exceeds_bound.
    """
    if ss.kind != "discrete" or ss.Ts is None:
        raise ValueError("design_smc expects a discrete model; discretize first")
    Ad = ss.A
    Bd = ss.B.sum(axis=1, keepdims=True)
    try:
        rf = regular_form(Ad, Bd)
    except ValueError as exc:  # a Ts short enough to underflow the input column
        raise ValueError(f"{exc} at Ts = {ss.Ts!r}") from None

    n = Ad.shape[0]
    try:
        Pz = scipy.linalg.solve_discrete_are(rf.A11, rf.A12, np.eye(n - 1), np.eye(1))
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"no sliding surface at Ts = {ss.Ts!r}: {exc}") from None
    C = np.linalg.solve(np.eye(1) + rf.A12.T @ Pz @ rf.A12, rf.A12.T @ Pz @ rf.A11)
    eigs, stable = smc_surface(rf, C)
    if not stable:
        raise SynthesisError("sliding dynamics came out unstable")

    Lz = np.concatenate([C[0], [1.0]])
    L0 = Lz @ rf.H
    denom = float(L0 @ Bd[:, 0])
    if abs(denom) < 1e-14:
        raise SynthesisError("surface row is orthogonal to the input direction")
    L = L0 / denom
    Keq = L @ Ad

    bound = smc_gain_bound(ss.Ts, alpha)
    if k is None:
        k = bound
        flagged = False
    else:
        k = float(k)
        if not (math.isfinite(k) and k >= 0.0):
            raise ValueError("switching gain k must be non-negative and finite")
        flagged = k > bound + 1e-12
    return SmcDesign(L=L, Keq=Keq, k=k, Ts=ss.Ts, alpha=alpha,
                     surface_eigs=eigs, k_exceeds_bound=flagged)


def nominal_smc(params, Ts: float | None = None, alpha: float = DEFAULT_SMC_ALPHA,
                k: float | None = None) -> SmcDesign:
    """design_smc on the platform's closed-form model under a zero-order hold.

    Ts defaults to the platform's controller period, DEFAULT_TS.
    """
    Ts = DEFAULT_TS[params.platform] if Ts is None else Ts
    return design_smc(discretize_zoh(closed_form(params), Ts), alpha=alpha, k=k)


# ---------------------------------------------------------------------------
# closed-loop eigenvalue reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    kind: str
    eigenvalues: np.ndarray
    stable: bool

    def __str__(self) -> str:
        vals = ", ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in self.eigenvalues)
        criterion = "Re < 0" if self.kind == "continuous" else "|z| < 1"
        verdict = "stable" if self.stable else "unstable"
        return (f"closed-loop eigenvalues ({self.kind}): {vals}\n"
                f"verdict: {verdict} (criterion {criterion})")


def stability_report(ss: StateSpace, K) -> StabilityReport:
    """Closed-loop eigenvalues of A - B K with the verdict for ss.kind.

    A single gain row against a multi-motor model is applied to every
    motor channel, matching the symmetric-drive convention.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape[0] == 1 and ss.n_inputs > 1:
        K = np.repeat(K, ss.n_inputs, axis=0)
    if K.shape != (ss.n_inputs, ss.n_states):
        raise ValueError(
            f"gain shape {K.shape} does not match {ss.n_inputs} x {ss.n_states}")
    eigs = np.linalg.eigvals(ss.A - ss.B @ K)
    if ss.kind == "continuous":
        stable = bool(eigs.real.max() < 0.0)
    else:
        stable = bool(np.abs(eigs).max() < 1.0)
    return StabilityReport(kind=ss.kind, eigenvalues=eigs, stable=stable)


# ---------------------------------------------------------------------------
# design files
# ---------------------------------------------------------------------------

def save_design(design, path) -> None:
    """Write an LqrDesign or SmcDesign to a labeled plain-text file."""
    if isinstance(design, LqrDesign):
        meta = {"design": "lqr", "residual": repr(design.residual),
                "Ki": "none" if design.Ki is None else repr(design.Ki)}
        blocks = {"Q": design.Q, "R": design.R, "P": design.P, "K": design.K}
    elif isinstance(design, SmcDesign):
        meta = {"design": "smc", "Ts": repr(design.Ts), "alpha": repr(design.alpha),
                "k": repr(design.k),
                "k_exceeds_bound": "true" if design.k_exceeds_bound else "false"}
        blocks = {"L": design.L, "Keq": design.Keq,
                  "surface_re": design.surface_eigs.real,
                  "surface_im": design.surface_eigs.imag}
    else:
        raise TypeError(f"cannot serialize {type(design).__name__}")
    write_matrix_file(path, "pendulum-ctl controller design", meta, blocks)


def _require_finite(**entries) -> None:
    for name, value in entries.items():
        if not all(map(math.isfinite, np.ravel(value).tolist())):
            raise ValueError(f"design entry {name} is not finite")


def _design_from(meta: dict, matrices: dict):
    kind = meta.get("design")
    if kind == "lqr":
        ki = meta.get("Ki", "none")
        design = LqrDesign(Q=matrices["Q"], R=matrices["R"], P=matrices.get("P"),
                           K=matrices["K"],
                           Ki=None if ki == "none" else float(ki),
                           residual=float(meta["residual"]))
        _require_finite(K=design.K, Ki=0.0 if design.Ki is None else design.Ki)
        return design
    if kind == "smc":
        _require_finite(surface_re=matrices["surface_re"], surface_im=matrices["surface_im"])
        eigs = matrices["surface_re"].ravel() + 1j * matrices["surface_im"].ravel()
        design = SmcDesign(L=matrices["L"].ravel(), Keq=matrices["Keq"].ravel(),
                           k=float(meta["k"]), Ts=float(meta["Ts"]),
                           alpha=float(meta["alpha"]), surface_eigs=eigs,
                           k_exceeds_bound=meta.get("k_exceeds_bound") == "true")
        _require_finite(L=design.L, Keq=design.Keq, k=design.k, Ts=design.Ts,
                        alpha=design.alpha)
        return design
    raise ValueError(f"unrecognized design kind {kind!r}")


def load_design(path):
    """Read a design written by save_design.

    A bad file raises ValueError, and so does a non-finite gain, sample
    time, alpha or surface eigenvalue.
    """
    return read_matrix_file(path, _design_from)
