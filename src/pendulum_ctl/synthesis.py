"""Controller synthesis for the two pendulum platforms.

Two controller families are produced here. The first is the continuous-time
linear quadratic regulator: the algebraic Riccati equation

    A'P + P A - P B R^-1 B' P + Q = 0

is solved in house by an ordered real Schur decomposition of the associated
2n x 2n Hamiltonian matrix (Laub's Schur method), followed by a few Newton
defect-correction steps so the residual lands near machine precision. The
gain is K = R^-1 B' P and the control law is u = -K x.

The second family is a discrete-time sliding-mode controller. The sampled
model is rotated into regular form with a Householder reflection so the
input enters only the last coordinate, a reduced-order discrete LQR (the
Arnold-Laub pencil) places the sliding dynamics, and the switching gain
defaults to sqrt((Ts*alpha/sqrt(2))^2 + 1). On the sampled model the law
maps the sliding variable to -k sign(s) in one step, so it chatters in the
band |s| = k (smc_gain_bound).

The factorizations call LAPACK directly, with the arguments scipy.linalg's
schur, solve_sylvester, cho_factor/cho_solve and solve_discrete_are pass,
so each result equals theirs bit for bit while inputs are validated once,
where they enter. The routines come from linearize.scipy_kernels, which
loads scipy's LAPACK module without importing scipy.linalg.

The balance controller for the two-wheeled robot augments the model with an
integral of the wheel angle and weights both motor channels separately; by
symmetry the two motor gain rows coincide and a single row is reported.

nominal_lqr and nominal_smc hold each platform's published design: its
closed-form model, LQR structure, default weights and controller period.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import LinAlgError

from .linearize import StateSpace, closed_form, discretize_zoh, scipy_kernels
from .matrixfile import read_matrix_file, write_matrix_file

__all__ = [
    "SynthesisError",
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
    "StabilityReport",
    "solve_care",
    "care_residual",
    "lqr_gain",
    "integral_augmented",
    "nxtway_integral_lqr",
    "reference_lqr_design",
    "nominal_lqr",
    "regular_form",
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


class SynthesisError(RuntimeError):
    """Raised when a controller synthesis cannot be completed."""


def _as_square(M, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(M, dtype=float))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_finite(**entries) -> None:
    for name, value in entries.items():
        if not all(map(cmath.isfinite, np.ravel(value).tolist())):
            raise ValueError(f"design entry {name} is not finite")


def _allclose(a, b, rtol: float, atol: float) -> bool:
    """np.allclose(a, b, rtol, atol) for finite inputs, in one vectorized test."""
    return bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def _check_finite(a) -> None:
    """The check_finite test scipy.linalg applies to an intermediate matrix."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


# ---------------------------------------------------------------------------
# LAPACK kernels
# ---------------------------------------------------------------------------

# the functions get_lapack_funcs(names, dtype=np.float64) returns
(_gees, _trsyl, _potrf, _potrs, _gebal, _geqrf, _orgqr, _gges, _tgsen, _getrf,
 _trtrs) = (getattr(scipy_kernels()[0], "d" + name)
            for name in ("gees", "trsyl", "potrf", "potrs", "gebal", "geqrf",
                         "orgqr", "gges", "tgsen", "getrf", "trtrs"))


def _no_select(*_):
    return None


def _left_half_plane(re, im):
    return re < 0.0


def _real_schur(a, select=None):
    """(T, Z, sdim) of scipy.linalg.schur(a, output="real", sort=select) via dgees.

    sdim counts the selected eigenvalues; select None leaves them unsorted.
    """
    lwork = int(_gees(_no_select, a, lwork=-1)[-2][0])
    result = _gees(select or _no_select, a, lwork=lwork, sort_t=select is not None)
    info, n = result[-1], a.shape[0]
    if info == n + 1:
        raise LinAlgError("Eigenvalues could not be separated for reordering.")
    if info == n + 2:
        raise LinAlgError("Leading eigenvalues do not satisfy sort condition.")
    if info > 0:
        raise LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return result[0], result[-3], result[1]


def _cholesky_solve(R, M):
    """R^-1 M as cho_solve(cho_factor(R), M) computes it, via dpotrf and dpotrs.

    R is finite, as solve_care checks; raises LinAlgError unless R is
    positive definite.
    """
    c, info = _potrf(R, lower=False, clean=False)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return _potrs(c, M, lower=False)[0]


def _lyapunov_step(Acl, F):
    """X with Acl' X + X Acl = -F: solve_sylvester(Acl', Acl, -F) on one Schur factor.

    Both Schur factors solve_sylvester takes, of a = Acl' and of b' = Acl',
    are this one; its operation order is kept.
    """
    r, u, _ = _real_schur(Acl.T)
    f = np.dot(np.dot(u.T, -F), u)
    y, scale, _ = _trsyl(r, r, f, tranb="C")
    y = scale * y
    return np.dot(np.dot(u, y), u.T)


def _unit_dare(a, b):
    """solve_discrete_are(a, b, I, I), as scipy 1.17 computes it.

    The pencil of the symplectic problem is balanced (gebal, as Benner
    proposes), deflated by the QR factor of its R column and reordered by
    QZ so the eigenvalues inside the unit circle lead (Arnold and Laub);
    their basis [U1; U2] gives X = U2 U1^-1. Raises LinAlgError when that
    basis is singular or far from symplectic. a and b are finite, as
    design_smc checks.
    """
    m, n = b.shape
    H = np.zeros((2 * m + n, 2 * m + n))
    H[:m, :m] = a
    H[:m, 2 * m:] = b
    H[m:2 * m, :m] = -np.eye(m)  # -Q, zeros signed as scipy's
    H[m:2 * m, m:2 * m] = np.eye(m)
    H[2 * m:, 2 * m:] = np.eye(n)
    J = np.zeros_like(H)
    J[:m, :m] = np.eye(m)
    J[m:2 * m, m:2 * m] = a.T
    J[2 * m:, m:2 * m] = -b.T

    # balance |H| + |J| off the diagonal, keeping the symplectic structure
    M = np.abs(H) + np.abs(J)
    np.fill_diagonal(M, 0.0)
    _, lo, hi, ps, _ = _gebal(M, scale=True, permute=0)
    sca = np.ones_like(ps, dtype=float)
    sca[lo:hi + 1] = ps[lo:hi + 1]
    if not _allclose(sca, 1.0, rtol=1e-5, atol=1e-8):
        sca = np.log2(sca)
        s = np.round((sca[m:2 * m] - sca[:m]) / 2)
        sca = 2 ** np.concatenate([s, -s, sca[2 * m:]])
        elwisescale = sca[:, None] * np.reciprocal(sca)
        H *= elwisescale
        J *= elwisescale

    # deflate the pencil by the R column
    col = H[:, -n:]
    qr, tau, _, _ = _geqrf(col, lwork=int(_geqrf(col, lwork=-1)[-2][0]))
    q = np.empty((2 * m + n, 2 * m + n))  # dorgqr fills the columns past n
    q[:, :n] = qr
    lwork = int(_orgqr(q, tau, lwork=-1, overwrite_a=1)[-2][0])
    q = _orgqr(q, tau, lwork=lwork, overwrite_a=1)[0][:, n:].T
    H = q.dot(H[:, :2 * m])
    J = q.dot(J[:, :2 * m])

    # QZ, then the eigenvalues inside the unit circle to the front
    lwork = int(_gges(_no_select, H, J, lwork=-1)[-2][0])
    AA, BB, _, alphar, alphai, beta, Q, Z, _, info = _gges(
        _no_select, H, J, lwork=lwork, overwrite_a=True, overwrite_b=True, sort_t=0)
    if 0 < info <= 2 * m:
        from scipy.linalg import LinAlgWarning
        warnings.warn("The QZ iteration failed. (a,b) are not in Schur form, but "
                      "ALPHAR(j), ALPHAI(j), and BETA(j) should be correct for "
                      f"J={info - 1},...,N", LinAlgWarning, stacklevel=3)
    elif info > 2 * m:
        raise LinAlgError("Something other than QZ iteration failed")
    alpha = alphar + alphai * 1.j
    select = np.zeros_like(alpha, dtype=bool)
    nonzero = beta != 0
    select[nonzero] = abs(alpha[nonzero] / beta[nonzero]) < 1.0
    *_, u, _, _, _, _, info = _tgsen(select, AA, BB, Q, Z, ijob=0,
                                     lwork=8 * m + 16, liwork=1)
    if info == 1:
        raise ValueError("Reordering of (A, B) failed because the transformed matrix "
                         "pair (A, B) would be too far from generalized Schur form; "
                         "the problem is very ill-conditioned. (A, B) may have been "
                         "partially reordered.")

    # X = U2 U1^-1 by LU of U1, after checking its condition
    u00 = u[:m, :m]
    u10 = u[m:, :m]
    lu, piv, _ = _getrf(u00)
    if 1 / np.linalg.cond(np.triu(lu)) < np.spacing(1.):
        raise LinAlgError("Failed to find a finite solution.")
    perm = np.arange(m)
    for i, p in enumerate(piv):
        perm[[i, p]] = perm[[p, i]]
    up = np.zeros((m, m))
    up[perm, np.arange(m)] = 1
    y, _ = _trtrs(lu.T, u10.T, lower=True)
    y, _ = _trtrs(lu.T, y, unitdiag=True)
    x = y.T.dot(up.T)
    x *= sca[:m, None] * sca[:m]

    # a basis far from symplectic means eigenvalues too close to the circle
    u_sym = u00.T.dot(u10)
    n_u_sym = np.linalg.norm(u_sym, 1)
    u_sym = u_sym - u_sym.T
    if np.linalg.norm(u_sym, 1) > max(np.spacing(1000.), 0.1 * n_u_sym):
        raise LinAlgError("The associated symplectic pencil has eigenvalues "
                          "too close to the unit circle")
    return (x + x.T) / 2


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


# a norm or product past the float range reads inf or nan, which the checks refuse
@np.errstate(over="ignore", invalid="ignore")
def solve_care(A, B, Q, R) -> np.ndarray:
    """Stabilizing solution of the continuous algebraic Riccati equation.

    The 2n x 2n Hamiltonian [[A, -BR^-1B'], [-Q, -A']] is reduced by an
    ordered real Schur decomposition; the basis of its stable invariant
    subspace yields P = U2 U1^-1. Newton steps on the Riccati residual,
    each one a Sylvester solve against the closed-loop matrix, then polish
    the result. Raises SynthesisError when no stabilizing solution exists
    (non-stabilizable pair, indefinite weights), the residual stays large or
    the closed loop A - S P, which is A - B K, is not Hurwitz.
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
    if not np.all(np.isfinite(Qs)):
        raise ValueError("state weight Q overflows when symmetrized")
    if np.linalg.eigvalsh(Qs).min() < -1e-10 * max(1.0, np.linalg.norm(Qs)):
        raise SynthesisError("state weight Q must be positive semidefinite")
    if not np.all(np.isfinite(Rs)):
        raise ValueError("input weight R overflows when symmetrized")
    try:
        S = B @ _cholesky_solve(Rs, B.T)
    except LinAlgError:
        raise SynthesisError("input weight R must be positive definite") from None
    S = 0.5 * (S + S.T)
    if not np.all(np.isfinite(S)):
        raise ValueError("input weight R is so small that B R^-1 B' overflows")

    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = -S
    H[n:, :n] = -Qs
    H[n:, n:] = -A.T
    T, Z, sdim = _real_schur(H, _left_half_plane)
    if sdim != n:
        raise SynthesisError(
            f"stable invariant subspace has dimension {sdim}, expected {n}; "
            "the pair (A, B) may not be stabilizable")
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    try:
        P = np.linalg.solve(U1.T, U2.T).T
    except LinAlgError as exc:
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
            _check_finite(Acl)
            X = _lyapunov_step(Acl, F)
        except (LinAlgError, ValueError):
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
    u = -K (x - x_ref) - Ki * integral. A non-finite Q, R, P, K or Ki
    raises ValueError; P is None and the residual NaN for a design that was
    loaded, not synthesized.
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
        _require_finite(Q=self.Q, R=self.R, P=0.0 if self.P is None else self.P,
                        K=self.K, Ki=0.0 if self.Ki is None else self.Ki)


def lqr_gain(A, B, Q, R) -> LqrDesign:
    """Solve the CARE and return the optimal state-feedback design."""
    P = solve_care(A, B, Q, R)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    K = np.linalg.solve(R, B.T @ P)
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
    return StateSpace(A=A5, B=B5)


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

def regular_form(Ad, Bd) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotate (Ad, Bd) by a Householder reflection H with H Bd = ||Bd|| e_n.

    Returns (H, A11, A12): H and the upper blocks of H Ad H' partitioned
    against the last coordinate.
    """
    Ad = _as_square(Ad, "Ad")
    n = Ad.shape[0]
    Bd = np.asarray(Bd, dtype=float).reshape(n, -1)
    if Bd.shape[1] != 1:
        raise ValueError("regular form expects a single input column")
    v = Bd[:, 0]
    with np.errstate(over="ignore"):
        nb = np.linalg.norm(v)
    if nb == 0.0:
        raise ValueError("input column is zero")
    if nb == math.inf:
        raise ValueError("input column norm overflows")
    e = np.zeros(n)
    e[-1] = 1.0
    w = v - nb * e
    if np.linalg.norm(w) < 1e-12 * nb:
        H = np.eye(n)
    else:
        H = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    Az = H @ Ad @ H.T
    return H, Az[:n - 1, :n - 1], Az[:n - 1, n - 1:]


def smc_gain_bound(Ts: float, alpha: float) -> float:
    """design_smc's default switching gain, sqrt((Ts*alpha/sqrt(2))^2 + 1).

    It bounds nothing that the synthesized law then obeys. On the sampled
    linear model (Ad, Bd), a design_smc design (L Bd = 1, Keq = L Ad) maps
    the sliding variable s = L x in one step to

        s+ = L (Ad - Bd Keq) x - (L Bd) k sign(s) = -k sign(s),

    L (Ad - Bd Keq) being zero up to rounding. So from the second sample on
    |s| = |L Bd| k, the band the law leaves, and the sign of s flips every
    tick. The reaching decrement delta V = (s+^2 - s^2) / 2 <= -r |s|, with
    r = Ts*alpha/sqrt(2), holds only while |s| >= r + sqrt(r^2 + k^2), so
    never inside that band. A Ts or alpha that is not positive and finite,
    or whose gain overflows, raises ValueError.
    """
    Ts = float(Ts)
    alpha = float(alpha)
    if not (math.isfinite(Ts) and Ts > 0.0):
        raise ValueError(f"sample time Ts must be positive and finite, got {Ts!r}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"reaching rate alpha must be positive and finite, got {alpha!r}")
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
    """Discrete sliding-mode controller: u = -Keq x - k sign(L x).

    k must be non-negative and finite, Ts and alpha must pass
    smc_gain_bound, and L, Keq and surface_eigs must be finite; anything
    else raises ValueError.
    """

    L: np.ndarray
    Keq: np.ndarray
    k: float
    Ts: float
    alpha: float
    surface_eigs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float).ravel())
        object.__setattr__(self, "Keq", np.asarray(self.Keq, dtype=float).ravel())
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "Ts", float(self.Ts))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "surface_eigs",
                           np.asarray(self.surface_eigs, dtype=complex).ravel())
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise ValueError("switching gain k must be non-negative and finite")
        smc_gain_bound(self.Ts, self.alpha)
        _require_finite(L=self.L, Keq=self.Keq, surface_eigs=self.surface_eigs)

    @property
    def k_exceeds_bound(self) -> bool:
        """Whether k is above smc_gain_bound for Ts and alpha."""
        return self.k > smc_gain_bound(self.Ts, self.alpha) + 1e-12


def design_smc(ss: StateSpace, alpha: float = DEFAULT_SMC_ALPHA,
               k: float | None = None) -> SmcDesign:
    """Design a discrete sliding-mode controller on a sampled model.

    The model is rotated into regular form, a reduced-order discrete LQR
    (unit weights) places the sliding dynamics, and the surface row L is
    scaled so L Bd = 1, which makes Keq = L Ad the equivalent control:
    s+ = L (Ad - Bd Keq) x - (L Bd) k sign(s) = -k sign(s), so the sliding
    variable reaches the band |s| = k in a single step and stays there. The
    sliding dynamics A11 - A12 C, whose eigenvalues are surface_eigs, must
    lie in |z| < 1 - 1e-9. Multi-motor models are collapsed by summing input
    columns (symmetric drive). When k is omitted it is set to
    smc_gain_bound; a user-supplied k larger than that is kept, and the
    design's k_exceeds_bound reads true.
    """
    if ss.kind != "discrete":
        raise ValueError("design_smc expects a discrete model; discretize first")
    Ad = ss.A
    Bd = ss.B.sum(axis=1, keepdims=True)
    try:
        H, A11, A12 = regular_form(Ad, Bd)
    except ValueError as exc:  # a Ts that underflows the input column or overflows its norm
        raise ValueError(f"{exc} at Ts = {ss.Ts!r}") from None

    _check_finite(np.hstack([A11, A12]))  # bad input, not a failed design
    try:
        Pz = _unit_dare(A11, A12)
    except (LinAlgError, ValueError) as exc:  # a singular basis or a failed reordering
        raise SynthesisError(f"no sliding surface at Ts = {ss.Ts!r}: {exc}") from None
    C = np.linalg.solve(np.eye(1) + A12.T @ Pz @ A12, A12.T @ Pz @ A11)
    eigs = np.linalg.eigvals(A11 - A12 @ C)
    if not np.all(np.abs(eigs) < 1.0 - 1e-9):
        raise SynthesisError("sliding dynamics came out unstable")

    Lz = np.concatenate([C[0], [1.0]])
    L0 = Lz @ H
    denom = float(L0 @ Bd[:, 0])
    if abs(denom) < 1e-14:
        raise SynthesisError("surface row is orthogonal to the input direction")
    L = L0 / denom
    Keq = L @ Ad

    if k is None:
        k = smc_gain_bound(ss.Ts, alpha)
    return SmcDesign(L=L, Keq=Keq, k=k, Ts=ss.Ts, alpha=alpha, surface_eigs=eigs)


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

def _known_platform(platform: str) -> str:
    if platform not in DEFAULT_TS:
        raise ValueError(f"unknown platform {platform!r}")
    return platform


def save_design(design, path, platform: str | None = None, closed_loop=None) -> None:
    """Write an LqrDesign or SmcDesign to a labeled plain-text file, once.

    A platform, when given, is written as the file's platform line, and the
    closed-loop eigenvalues, when given, as its last two blocks.
    """
    named = {} if platform is None else {"platform": _known_platform(platform)}
    if isinstance(design, LqrDesign):
        meta = {"design": "lqr", **named, "residual": repr(design.residual),
                "Ki": "none" if design.Ki is None else repr(design.Ki)}
        blocks = {"Q": design.Q, "R": design.R, "P": design.P, "K": design.K}
    elif isinstance(design, SmcDesign):
        meta = {"design": "smc", **named, "Ts": repr(design.Ts),
                "alpha": repr(design.alpha), "k": repr(design.k)}
        blocks = {"L": design.L, "Keq": design.Keq,
                  "surface_re": design.surface_eigs.real,
                  "surface_im": design.surface_eigs.imag}
    else:
        raise TypeError(f"cannot serialize {type(design).__name__}")
    if closed_loop is not None:
        blocks.update(closed_loop_re=closed_loop.real, closed_loop_im=closed_loop.imag)
    write_matrix_file(path, "pendulum-ctl controller design", meta, blocks)


def _design_from(meta: dict, matrices: dict, platform: str | None = None):
    if "platform" in meta:
        named = _known_platform(meta["platform"])
        if platform is not None and named != platform:
            raise ValueError(f"the design is for {named}, not {platform}")
    kind = meta.get("design")
    if kind == "lqr":
        ki = meta.get("Ki", "none")
        return LqrDesign(Q=matrices["Q"], R=matrices["R"], P=matrices.get("P"),
                         K=matrices["K"], Ki=None if ki == "none" else float(ki),
                         residual=float(meta["residual"]))
    if kind == "smc":
        eigs = matrices["surface_re"].ravel().astype(complex)
        eigs.imag = matrices["surface_im"].ravel()
        return SmcDesign(L=matrices["L"], Keq=matrices["Keq"], k=float(meta["k"]),
                         Ts=float(meta["Ts"]), alpha=float(meta["alpha"]),
                         surface_eigs=eigs)
    raise ValueError(f"unrecognized design kind {kind!r}")


def load_design(path, platform: str | None = None):
    """Read a design written by save_design.

    A bad file raises ValueError, and so does a design its type refuses or,
    with platform given, a file whose platform line names another one. A
    file without that line loads for any platform. The k_exceeds_bound line
    of older SMC files is ignored: k, Ts and alpha tell it.
    """
    return read_matrix_file(path, lambda meta, matrices:
                            _design_from(meta, matrices, platform))
