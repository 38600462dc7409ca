"""Tests for LQR and sliding-mode synthesis.

The Riccati solver is checked three independent ways: analytic scalar and
2x2 solutions, an eigenvector decomposition of the Hamiltonian matrix, and
scipy's own solver. Surface eigenvalues are cross-checked against a
brute-force Faddeev-LeVerrier characteristic polynomial.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg

from pendulum_ctl import synthesis
from pendulum_ctl.linearize import (
    StateSpace,
    discretize_zoh,
    nxtway_statespace_closed_form,
    rotpen_statespace_closed_form,
)
from pendulum_ctl.plants import default_params, params_from_mapping
from pendulum_ctl.synthesis import (
    DEFAULT_LQR_WEIGHTS,
    DEFAULT_NXTWAY_Q,
    DEFAULT_NXTWAY_R,
    DEFAULT_ROTPEN_Q,
    DEFAULT_ROTPEN_R,
    DEFAULT_TS,
    REFERENCE_LQR_GAINS,
    REFERENCE_SMC_SWITCHING_GAINS,
    LqrDesign,
    RegularForm,
    SmcDesign,
    SynthesisError,
    care_residual,
    design_smc,
    lqr_gain,
    load_design,
    nominal_lqr,
    nominal_smc,
    nxtway_integral_lqr,
    reference_lqr_design,
    regular_form,
    save_design,
    smc_gain_bound,
    smc_surface,
    solve_care,
    stability_report,
)


def _hamiltonian_care_oracle(A, B, Q, R):
    """Stabilizing CARE solution from Hamiltonian eigenvectors."""
    A, B, Q, R = map(np.atleast_2d, (A, B, Q, R))
    n = A.shape[0]
    S = B @ np.linalg.solve(R, B.T)
    H = np.block([[A, -S], [-Q, -A.T]])
    w, V = np.linalg.eig(H)
    stable = V[:, w.real < 0]
    assert stable.shape[1] == n
    P = stable[n:, :] @ np.linalg.inv(stable[:n, :])
    return P.real


def _charpoly_coeffs(M):
    """Faddeev-LeVerrier characteristic polynomial coefficients."""
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ (Mk + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(Mk) / k)
    return np.array(coeffs)


def _random_stabilizable(rng, n, m):
    while True:
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            return A, B


# ---------------------------------------------------------------------------
# continuous Riccati solver
# ---------------------------------------------------------------------------

def test_care_scalar_solutions():
    P = solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert P[0, 0] == pytest.approx(1.0, abs=1e-12)
    P = solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert P[0, 0] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-10)


def test_care_double_integrator_analytic():
    A = [[0.0, 1.0], [0.0, 0.0]]
    B = [[0.0], [1.0]]
    P = solve_care(A, B, np.eye(2), [[1.0]])
    want = np.array([[math.sqrt(3.0), 1.0], [1.0, math.sqrt(3.0)]])
    np.testing.assert_allclose(P, want, rtol=1e-10)
    assert care_residual(A, B, np.eye(2), [[1.0]], P) < 1e-10


def test_care_matches_hamiltonian_eigenvector_oracle():
    rng = np.random.default_rng(42)
    for n, m in ((2, 1), (3, 1), (4, 2), (5, 2)):
        A, B = _random_stabilizable(rng, n, m)
        Q = np.eye(n)
        R = np.eye(m)
        P = solve_care(A, B, Q, R)
        np.testing.assert_allclose(P, _hamiltonian_care_oracle(A, B, Q, R),
                                   rtol=1e-7, atol=1e-9)


def test_care_matches_scipy_on_both_plants():
    for builder in (rotpen_statespace_closed_form, nxtway_statespace_closed_form):
        platform = "rotpen" if builder is rotpen_statespace_closed_form else "nxtway"
        ss = builder(default_params(platform))
        Q = np.diag([5.0, 1.0, 1.0, 1.0])
        R = np.eye(ss.n_inputs)
        P = solve_care(ss.A, ss.B, Q, R)
        want = scipy.linalg.solve_continuous_are(ss.A, ss.B, Q, R)
        np.testing.assert_allclose(P, want, rtol=1e-8, atol=1e-10)


def test_care_random_batch_residual_and_stability():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3))
        A, B = _random_stabilizable(rng, n, m)
        Q = np.eye(n)
        R = np.eye(m)
        P = solve_care(A, B, Q, R)
        assert care_residual(A, B, Q, R, P) < 1e-8 * (1 + np.linalg.norm(P))
        K = np.linalg.solve(R, B.T @ P)
        assert np.linalg.eigvals(A - B @ K).real.max() < 0
    assert time.perf_counter() - t0 < 10.0


def test_care_rejects_nonstabilizable_pair():
    A = np.diag([1.0, 1.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(SynthesisError,
                       match="^stable subspace basis is singular; no stabilizing solution$"):
        solve_care(A, B, np.eye(2), [[1.0]])


def test_care_input_validation():
    with pytest.raises(ValueError):
        solve_care(np.zeros((2, 2)), np.zeros((3, 1)), np.eye(2), [[1.0]])
    with pytest.raises(SynthesisError, match="^state weight Q must be positive semidefinite$"):
        solve_care([[0.0]], [[1.0]], [[-1.0]], [[1.0]])
    for args in (([[0.0]], [[1.0]], [[1.0]], [[0.0]]),  # R singular, then indefinite
                 (np.eye(2), np.eye(2), np.eye(2), np.diag([1.0, -1.0]))):
        with pytest.raises(SynthesisError, match="^input weight R must be positive definite$"):
            solve_care(*args)


def _asymmetric(base, i, j, delta):
    M = np.array(base, dtype=float)
    M[j, i] = M[i, j] + delta
    return M


def test_care_symmetry_checks_keep_the_allclose_boundary():
    # np.allclose(M, M.T, rtol=1e-8, atol=1e-10) admits |M_ij - M_ji| up to
    # 1e-10 + 1e-8 * |M_ji| and refuses anything past it; the off-diagonal
    # entry 0.5 puts that edge at 5.1e-9
    A = np.diag([-1.0, -2.0])
    B = np.eye(2)
    Q0 = [[2.0, 0.5], [0.5, 2.0]]
    R0 = [[3.0, 0.5], [0.5, 3.0]]
    for inside, delta in ((True, 5.0e-9), (False, 5.2e-9), (True, -5.0e-9), (False, -5.2e-9)):
        Q, R = _asymmetric(Q0, 0, 1, delta), _asymmetric(R0, 0, 1, delta)
        assert np.allclose(Q, Q.T, rtol=1e-8, atol=1e-10) is inside
        if inside:
            assert solve_care(A, B, Q, R0).shape == (2, 2)
            assert solve_care(A, B, Q0, R).shape == (2, 2)
        else:
            with pytest.raises(ValueError, match="Q must be symmetric"):
                solve_care(A, B, Q, R0)
            with pytest.raises(ValueError, match="R must be symmetric"):
                solve_care(A, B, Q0, R)
    # the tolerance grows with the entry: atol alone governs a zero entry
    for inside, delta in ((True, 0.9e-10), (False, 1.1e-10)):
        Q = _asymmetric(np.diag([2.0, 2.0]), 0, 1, delta)
        if inside:
            solve_care(A, B, Q, R0)
        else:
            with pytest.raises(ValueError, match="Q must be symmetric"):
                solve_care(A, B, Q, R0)


def test_nxtway_motor_symmetry_check_keeps_the_allclose_boundary():
    # the input columns may differ by 1e-12 + 1e-9 * |B_i1|; a skew that
    # passes that check can still split the two gain rows by more than
    # their own 1e-10 + 1e-8 * |K_1j| allowance
    ss = nxtway_statespace_closed_form(default_params("nxtway"))
    b = ss.B[3, 0]
    edge = 1e-12 + 1e-9 * abs(b)
    for factor in (0.01, 0.99, 1.01):
        B = ss.B.copy()
        B[3, 1] = b + factor * edge
        skewed = StateSpace(A=ss.A, B=B)
        assert np.allclose(B[:, 0], B[:, 1], rtol=1e-9, atol=1e-12) is (factor < 1.0)
        if factor == 0.01:
            assert nxtway_integral_lqr(skewed).K.shape == (1, 4)
        elif factor == 0.99:
            with pytest.raises(SynthesisError, match="gain rows diverged"):
                nxtway_integral_lqr(skewed)
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                nxtway_integral_lqr(skewed)


# ---------------------------------------------------------------------------
# LAPACK kernels, each checked bit for bit against the scipy.linalg function
# whose arguments it passes
# ---------------------------------------------------------------------------

_KERNEL_ORACLES = {
    # sdim is 0 when nothing is sorted
    "_real_schur": lambda a, select=None: (*scipy.linalg.schur(a, output="real"), 0)
    if select is None else scipy.linalg.schur(a, output="real", sort="lhp"),
    "_lyapunov_step": lambda Acl, F: scipy.linalg.solve_sylvester(Acl.T, Acl, -F),
    "_cholesky_solve": lambda R, M: scipy.linalg.cho_solve(scipy.linalg.cho_factor(R), M),
    "_unit_dare": lambda a, b: scipy.linalg.solve_discrete_are(
        a, b, np.eye(a.shape[0]), np.eye(b.shape[1])),
}


def _outcome(f, *args):
    try:
        return f(*args)
    except (np.linalg.LinAlgError, ValueError) as exc:
        return exc


def _same(a, b) -> bool:
    """Equal bytes for arrays, equal type and message for exceptions."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _perturbed(platform, rng):
    """The platform's plant with a mass, a length and a friction term within +-20%."""
    base = default_params(platform)
    names = {"rotpen": ("m_p", "L_p", "f_p"), "nxtway": ("M", "L", "f_m")}[platform]
    return params_from_mapping(platform, {k: getattr(base, k) * rng.uniform(0.8, 1.2)
                                          for k in names})


def test_lapack_kernels_match_scipy_bit_for_bit(monkeypatch):
    # every kernel call that seeded +-20% plants of both platforms make, with
    # weights scaled by up to 10^+-6 and Ts from 0.1 ms to 50 ms, against the
    # scipy function on the same inputs; failures must match too
    calls = {name: [] for name in _KERNEL_ORACLES}
    for name, log in calls.items():
        def record(*args, _kernel=getattr(synthesis, name), _log=log):
            _log.append((args, _outcome(_kernel, *args)))
            return _kernel(*args)
        monkeypatch.setattr(synthesis, name, record)

    rng = np.random.default_rng(13)
    periods = (1e-4, 5e-4, 1e-3, 2e-3, 4e-3, 1e-2, 2e-2, 5e-2)
    for i in range(32):
        platform = ("rotpen", "nxtway")[i % 2]
        params = _perturbed(platform, rng)
        Q0, R0 = DEFAULT_LQR_WEIGHTS[platform]
        Q = np.diag(np.diag(Q0) * 10.0 ** rng.uniform(-6, 6, len(Q0)))
        # the robot's motors keep equal weights and gain a coupling term
        R = (R0 + rng.uniform(-0.9, 0.9) * R0[0, 0] * (1 - np.eye(len(R0)))) \
            * 10.0 ** rng.uniform(-6, 6)
        for design in (lambda: nominal_lqr(params, Q, R),
                       lambda: nominal_smc(params, Ts=periods[i % len(periods)])):
            try:
                design()
            except SynthesisError:
                pass
    for platform in ("rotpen", "nxtway"):  # no sliding surface, in the kernel too
        for Ts in (10.0, 50.0):
            with pytest.raises(SynthesisError, match="Failed to find a finite solution"):
                nominal_smc(default_params(platform), Ts=Ts)
    for R in ([[0.0]], np.diag([1.0, -1.0]), [[1.0, 2.0], [2.0, 1.0]]):  # not definite
        _outcome(synthesis._cholesky_solve, np.array(R), np.ones((len(R), 3)))

    assert all(len(log) >= 32 for log in calls.values())
    for name in ("_cholesky_solve", "_unit_dare"):  # failures are compared too
        assert any(isinstance(out, Exception) for _, out in calls[name])
    for name, log in calls.items():
        for args, out in log:
            assert _same(out, _outcome(_KERNEL_ORACLES[name], *args)), (name, args)


# ---------------------------------------------------------------------------
# LQR gains
# ---------------------------------------------------------------------------

def test_lqr_scalar_gain():
    d = lqr_gain([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert isinstance(d, LqrDesign)
    assert d.K[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert d.Ki is None
    assert d.residual < 1e-10


def test_lqr_rotpen_default_weights():
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    d = lqr_gain(ss.A, ss.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R)
    K = d.K[0]

    # cheap-control invariant: the arm angle enters no other dynamics row,
    # so the first gain magnitude equals sqrt(Q11 / R) exactly
    assert abs(K[0]) == pytest.approx(math.sqrt(5.0), abs=1e-9)

    want = scipy.linalg.solve_continuous_are(ss.A, ss.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R)
    np.testing.assert_allclose(d.P, want, rtol=1e-8)

    # regression values for this parameter set, u = -K x convention
    np.testing.assert_allclose(K, [-2.2361, 37.6126, -2.6420, 5.3269], rtol=2e-4)

    assert np.linalg.eigvals(ss.A - ss.B @ d.K).real.max() < 0


def test_lqr_scaling_invariance():
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    base = lqr_gain(ss.A, ss.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R)
    scaled = lqr_gain(ss.A, ss.B, 7.3 * np.asarray(DEFAULT_ROTPEN_Q),
                      7.3 * np.asarray(DEFAULT_ROTPEN_R))
    np.testing.assert_allclose(scaled.K, base.K, rtol=0, atol=1e-9)


def test_lqr_is_local_cost_minimizer():
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    A, B = ss.A, ss.B
    Q = np.asarray(DEFAULT_ROTPEN_Q, dtype=float)
    R = np.asarray(DEFAULT_ROTPEN_R, dtype=float)
    d = lqr_gain(A, B, Q, R)
    x0 = np.array([0.1, -0.05, 0.0, 0.2])

    def cost(K):
        Acl = A - B @ K
        if np.linalg.eigvals(Acl).real.max() >= 0:
            return math.inf
        W = scipy.linalg.solve_continuous_lyapunov(Acl.T, -(Q + K.T @ R @ K))
        return float(x0 @ W @ x0)

    ref = cost(d.K)
    rng = np.random.default_rng(11)
    for _ in range(10):
        dK = rng.normal(size=d.K.shape)
        dK *= 1e-3 / np.linalg.norm(dK)
        assert cost(d.K + dK) >= ref - 1e-6


def test_nxtway_integral_design():
    ss = nxtway_statespace_closed_form(default_params("nxtway"))
    d = nxtway_integral_lqr(ss)
    assert d.K.shape == (1, 4)

    # integral weight 4e2 against two motors at R = 1e3 each
    assert d.Ki == pytest.approx(-math.sqrt(1.0 / 5.0), abs=1e-9)

    np.testing.assert_allclose(d.K[0], [-0.8123, -77.3217, -1.2515, -9.5922], rtol=2e-4)

    # oracle check of the full two-input augmented problem
    A5 = np.zeros((5, 5))
    A5[:4, :4] = ss.A
    A5[4, 0] = 1.0
    B5 = np.vstack([ss.B, np.zeros((1, 2))])
    want = scipy.linalg.solve_continuous_are(
        A5, B5, np.asarray(DEFAULT_NXTWAY_Q, dtype=float),
        np.asarray(DEFAULT_NXTWAY_R, dtype=float))
    np.testing.assert_allclose(d.P, want, rtol=1e-7, atol=1e-9)

    K2 = np.linalg.solve(np.asarray(DEFAULT_NXTWAY_R, dtype=float), B5.T @ d.P)
    np.testing.assert_allclose(K2[0], K2[1], rtol=1e-10)  # identical motor rows
    assert np.linalg.eigvals(A5 - B5 @ K2).real.max() < 0
    assert d.residual < 1e-8 * (1 + np.linalg.norm(d.P))


def test_reference_gain_fixtures_present():
    K = REFERENCE_LQR_GAINS["rotpen"]["K"]
    assert K[0] == pytest.approx(-2.2361, abs=1e-4)
    assert REFERENCE_LQR_GAINS["nxtway"]["Ki"] == pytest.approx(-0.4472, abs=1e-4)
    assert REFERENCE_SMC_SWITCHING_GAINS["nxtway"] == 20.0
    assert REFERENCE_SMC_SWITCHING_GAINS["rotpen"] == 2.5


# ---------------------------------------------------------------------------
# sliding-mode synthesis
# ---------------------------------------------------------------------------

def test_regular_form_isolates_the_input():
    ss = discretize_zoh(rotpen_statespace_closed_form(default_params("rotpen")), 0.002)
    rf = regular_form(ss.A, ss.B)
    Bz = rf.H @ ss.B
    np.testing.assert_allclose(Bz[:3, 0], 0.0, atol=1e-12)
    assert Bz[3, 0] == pytest.approx(np.linalg.norm(ss.B), rel=1e-12)
    np.testing.assert_allclose(rf.H @ rf.H.T, np.eye(4), atol=1e-12)
    # similarity preserves the spectrum
    np.testing.assert_allclose(
        np.sort_complex(np.linalg.eigvals(rf.H @ ss.A @ rf.H.T)),
        np.sort_complex(np.linalg.eigvals(ss.A)), rtol=1e-9)


def test_smc_surface_trivial_cases():
    eigs, stable = smc_surface(np.zeros((3, 3)), np.ones((3, 1)), np.zeros((1, 3)))
    np.testing.assert_allclose(eigs, 0.0, atol=0.0)
    assert stable

    eigs, stable = smc_surface([[1.2]], [[1.0]], [[0.5]])
    assert eigs[0] == pytest.approx(0.7, abs=1e-12)
    assert stable


def test_smc_surface_dimension_mismatch():
    with pytest.raises(ValueError):
        smc_surface(np.zeros((3, 3)), np.ones((3, 1)), np.zeros((1, 2)))


def test_smc_surface_agrees_with_charpoly_roots():
    ss = discretize_zoh(nxtway_statespace_closed_form(default_params("nxtway")), 0.004)
    design = design_smc(ss, alpha=100.0)
    assert np.all(np.abs(design.surface_eigs) < 1.0)

    rf = regular_form(ss.A, ss.B.sum(axis=1, keepdims=True))
    # recover C from the design's surface row in transformed coordinates
    Lz = design.L @ rf.H.T
    C = (Lz[:3] / Lz[3]).reshape(1, 3)
    closed = rf.A11 - rf.A12 @ C
    roots = np.roots(_charpoly_coeffs(closed))
    np.testing.assert_allclose(np.sort(np.abs(design.surface_eigs)),
                               np.sort(np.abs(roots)), rtol=1e-8)


def test_smc_surface_verdict_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n1 = int(rng.integers(2, 4))
        A11 = rng.normal(size=(n1, n1))
        A12 = rng.normal(size=(n1, 1))
        C = rng.normal(size=(1, n1))
        eigs, stable = smc_surface(A11, A12, C)
        roots = np.roots(_charpoly_coeffs(A11 - A12 @ C))
        assert stable == bool(np.all(np.abs(roots) < 1 - 1e-9))


def test_smc_gain_bound_values_and_monotonicity():
    assert smc_gain_bound(1e-12, 100.0) == pytest.approx(1.0, abs=1e-9)
    assert smc_gain_bound(0.01, 10.0) == pytest.approx(math.sqrt(1.005), rel=1e-6)
    assert smc_gain_bound(0.01, 10.0) == pytest.approx(1.00250, abs=5e-6)
    assert smc_gain_bound(0.004, 100.0) == pytest.approx(math.sqrt(1.08), rel=1e-12)
    assert smc_gain_bound(0.004, 100.0) == pytest.approx(1.03923, abs=5e-6)

    grid = [smc_gain_bound(ts, 50.0) for ts in (0.001, 0.002, 0.004, 0.01)]
    assert all(b >= 1.0 for b in grid)
    assert grid == sorted(grid)
    grid = [smc_gain_bound(0.004, a) for a in (1.0, 10.0, 100.0, 500.0)]
    assert grid == sorted(grid)

    with pytest.raises(ValueError):
        smc_gain_bound(0.0, 10.0)
    with pytest.raises(ValueError):
        smc_gain_bound(0.004, -1.0)
    for Ts, alpha in ((0.002, 1e308), (0.004, 1e200), (1e300, 1e10), (0.004, math.nan)):
        with pytest.raises(ValueError, match="alpha"):
            smc_gain_bound(Ts, alpha)
    # every finite bound is the same expression, bit for bit
    rng = np.random.default_rng(3)
    for Ts, alpha in zip(10.0 ** rng.uniform(-6, 1, 200), 10.0 ** rng.uniform(-3, 150, 200)):
        Ts, alpha = float(Ts), float(alpha)
        expected = math.sqrt((Ts * alpha / math.sqrt(2.0)) ** 2 + 1.0)
        assert smc_gain_bound(Ts, alpha) == expected


def test_design_smc_nxtway_properties():
    ss = discretize_zoh(nxtway_statespace_closed_form(default_params("nxtway")), 0.004)
    d = design_smc(ss, alpha=100.0)
    assert isinstance(d, SmcDesign)
    assert d.Ts == 0.004 and d.alpha == 100.0
    assert d.k == pytest.approx(smc_gain_bound(0.004, 100.0), rel=1e-12)
    assert not d.k_exceeds_bound

    Bd = ss.B.sum(axis=1, keepdims=True)
    assert float(d.L @ Bd[:, 0]) == pytest.approx(1.0, abs=1e-10)

    # the equivalent control drives the surface to -k*sign(s) in one step
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.normal(scale=0.2, size=4)
        s0 = float(d.L @ x)
        u = float(-d.Keq @ x - d.k * np.sign(s0))
        x1 = ss.A @ x + Bd[:, 0] * u
        assert float(d.L @ x1) == pytest.approx(-d.k * np.sign(s0), abs=1e-9)


def test_design_smc_flags_oversized_switching_gain():
    ss = discretize_zoh(nxtway_statespace_closed_form(default_params("nxtway")), 0.004)
    d = design_smc(ss, alpha=100.0, k=20.0)
    assert d.k == 20.0 and d.k_exceeds_bound
    d = design_smc(ss, alpha=100.0, k=0.5)
    assert d.k == 0.5 and not d.k_exceeds_bound
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="switching gain k"):
            design_smc(ss, alpha=100.0, k=bad)


def test_design_smc_requires_discrete_model():
    ss = nxtway_statespace_closed_form(default_params("nxtway"))
    with pytest.raises(ValueError):
        design_smc(ss, alpha=100.0)


# ---------------------------------------------------------------------------
# stability reports
# ---------------------------------------------------------------------------

def test_stability_report_scalar():
    ss = StateSpace(A=[[1.0]], B=[[1.0]])
    rep = stability_report(ss, [[1.0 + math.sqrt(2.0)]])
    assert rep.stable
    assert rep.eigenvalues[0].real == pytest.approx(-math.sqrt(2.0), abs=1e-10)
    assert "stable" in str(rep)


def test_stability_report_rotpen_gains():
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    rep = stability_report(ss, np.zeros((1, 4)))
    assert not rep.stable  # open loop has a right-half-plane pole

    K = np.array([REFERENCE_LQR_GAINS["rotpen"]["K"]])
    rep = stability_report(ss, K)
    assert rep.stable


def test_stability_report_discrete_uses_unit_circle():
    ss = discretize_zoh(rotpen_statespace_closed_form(default_params("rotpen")), 0.002)
    rep = stability_report(ss, np.zeros((1, 4)))
    assert not rep.stable
    assert np.abs(rep.eigenvalues).max() > 1.0


# ---------------------------------------------------------------------------
# design serialization
# ---------------------------------------------------------------------------

def test_lqr_design_roundtrip(tmp_path):
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    d = lqr_gain(ss.A, ss.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R)
    path = tmp_path / "lqr.txt"
    save_design(d, path)
    back = load_design(path)
    assert isinstance(back, LqrDesign)
    np.testing.assert_array_equal(back.K, d.K)
    np.testing.assert_array_equal(back.P, d.P)
    assert back.Ki is None and back.residual == d.residual


def test_nxtway_design_roundtrip_keeps_integral_gain(tmp_path):
    d = nxtway_integral_lqr(nxtway_statespace_closed_form(default_params("nxtway")))
    path = tmp_path / "lqr5.txt"
    save_design(d, path)
    back = load_design(path)
    assert back.Ki == d.Ki


def test_reference_design_builder_and_roundtrip(tmp_path):
    d = reference_lqr_design("rotpen")
    assert d.P is None and math.isnan(d.residual)
    np.testing.assert_allclose(d.K[0], REFERENCE_LQR_GAINS["rotpen"]["K"])
    assert d.Ki is None

    path = tmp_path / "ref.txt"
    save_design(d, path)
    back = load_design(path)
    assert back.P is None and math.isnan(back.residual)
    np.testing.assert_array_equal(back.K, d.K)

    d = reference_lqr_design("NxtWay")
    assert d.Ki == pytest.approx(-0.4472, abs=1e-12)
    with pytest.raises(ValueError):
        reference_lqr_design("segway")


def test_design_files_name_their_platform(tmp_path):
    d = nominal_smc(default_params("rotpen"))
    named, unnamed = tmp_path / "named.txt", tmp_path / "unnamed.txt"
    save_design(d, named, "rotpen")
    save_design(d, unnamed)
    assert "platform = rotpen" in named.read_text().splitlines()
    assert named.read_text().replace("platform = rotpen\n", "") == unnamed.read_text()
    for path, platform in ((named, "rotpen"), (named, None), (unnamed, "nxtway")):
        assert load_design(path, platform).L.tobytes() == d.L.tobytes()
    with pytest.raises(ValueError, match=f"{named}: the design is for rotpen, not nxtway"):
        load_design(named, "nxtway")
    named.write_text(named.read_text().replace("= rotpen", "= segway"))
    with pytest.raises(ValueError, match="unknown platform 'segway'"):
        load_design(named)
    with pytest.raises(ValueError, match="unknown platform"):
        save_design(d, unnamed, "segway")


def test_smc_design_roundtrip(tmp_path):
    ss = discretize_zoh(nxtway_statespace_closed_form(default_params("nxtway")), 0.004)
    d = design_smc(ss, alpha=100.0, k=20.0)
    path = tmp_path / "smc.txt"
    save_design(d, path)
    back = load_design(path)
    assert isinstance(back, SmcDesign)
    np.testing.assert_array_equal(back.L, d.L)
    np.testing.assert_array_equal(back.Keq, d.Keq)
    assert back.k == 20.0 and back.k_exceeds_bound
    assert back.Ts == d.Ts and back.alpha == d.alpha


# nominal_smc(default rotpen, k=2.5) as the previous file format wrote it,
# with the stored k_exceeds_bound line
_OLD_FORMAT_SMC = """# pendulum-ctl controller design
design = smc
Ts = 0.002
alpha = 100.0
k = 2.5
k_exceeds_bound = true
[L] rows=1 cols=4
-40.38985047213203 735.256079460572 -54.213467961994176 114.63086294847639
[Keq] rows=1 cols=4
-40.38985047213203 746.9040584687448 -54.84986308327508 115.9798356446642
[surface_re] rows=1 cols=3
0.9980019978111687 0.9896301861274899 0.9896301861274899
[surface_im] rows=1 cols=3
0.0 0.004134617535801747 -0.004134617535801747
"""


def test_old_format_smc_design_file_loads_to_an_equal_design(tmp_path):
    d = nominal_smc(default_params("rotpen"), k=2.5)
    old = tmp_path / "old.txt"
    old.write_text(_OLD_FORMAT_SMC)
    back = load_design(old)
    for name in ("L", "Keq", "surface_eigs"):
        assert getattr(back, name).tobytes() == getattr(d, name).tobytes()
    assert (back.k, back.Ts, back.alpha, back.k_exceeds_bound) == (2.5, 0.002, 100.0, True)
    # the file written now is the old one without the k_exceeds_bound line
    new = tmp_path / "new.txt"
    save_design(d, new)
    assert new.read_text() == _OLD_FORMAT_SMC.replace("k_exceeds_bound = true\n", "")


def test_k_exceeds_bound_is_read_from_k_ts_and_alpha():
    # the recorded gains, 2.5 at 2 ms and 20 at 4 ms, against alpha = 100
    for platform, recorded in REFERENCE_SMC_SWITCHING_GAINS.items():
        Ts = DEFAULT_TS[platform]
        assert nominal_smc(default_params(platform), k=recorded).k_exceeds_bound
        assert not nominal_smc(default_params(platform)).k_exceeds_bound
        bound = smc_gain_bound(Ts, 100.0)
        flags = [SmcDesign(L=np.ones(4), Keq=np.ones(4), k=k, Ts=Ts, alpha=100.0,
                           surface_eigs=np.zeros(3)).k_exceeds_bound
                 for k in (recorded, bound, bound + 1e-12, bound + 1e-11)]
        assert flags == [True, False, False, True]


_GOOD_SMC = dict(L=np.ones(4), Keq=np.ones(4), k=1.0, Ts=0.002, alpha=100.0,
                 surface_eigs=np.zeros(3))


@pytest.mark.parametrize("field, value, message", [
    ("k", -5.0, "switching gain k"), ("k", math.inf, "switching gain k"),
    ("k", math.nan, "switching gain k"),
    ("Ts", 0.0, "Ts"), ("Ts", -0.002, "Ts"), ("Ts", math.inf, "Ts"), ("Ts", math.nan, "Ts"),
    ("alpha", -1.0, "alpha"), ("alpha", 0.0, "alpha"), ("alpha", math.inf, "alpha"),
    ("alpha", math.nan, "alpha"), ("alpha", 1e308, "overflows"),
    ("L", [0.0, math.nan, 0.0, 0.0], "L"), ("Keq", [math.inf, 0.0, 0.0, 0.0], "Keq"),
    ("surface_eigs", [0.5, complex(0.1, math.inf), 0.0], "surface_eigs"),
])
def test_smc_design_refuses_what_design_smc_would_not_make(field, value, message):
    with pytest.raises(ValueError, match=message):
        SmcDesign(**{**_GOOD_SMC, field: value})


@pytest.mark.parametrize("field, value", [
    ("K", [[0.0, math.nan, 0.0, 0.0]]), ("K", [[math.inf, 0.0, 0.0, 0.0]]),
    ("Ki", math.inf), ("Ki", math.nan),
    ("Q", [[math.nan, 0.0], [0.0, 1.0]]), ("R", [[math.inf]]),
    ("P", np.diag([1.0, 1.0, -math.inf, 1.0])),
])
def test_lqr_design_refuses_non_finite_gains(field, value):
    good = dict(Q=np.eye(4), R=np.eye(1), P=None, K=np.zeros((1, 4)), Ki=0.5)
    with pytest.raises(ValueError, match=f"{field} is not finite"):
        LqrDesign(**{**good, field: value})


def test_models_and_designs_hold_only_independent_fields():
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    assert names(StateSpace) == ("A", "B", "Ts")
    assert names(RegularForm) == ("H", "A11", "A12")
    assert names(SmcDesign) == ("L", "Keq", "k", "Ts", "alpha", "surface_eigs")


# ---------------------------------------------------------------------------
# each platform's nominal designs
# ---------------------------------------------------------------------------

# float.hex of the designs the command line and the demos built, platform by
# platform, before nominal_lqr and nominal_smc held that choice: the defaults
# and one other set of weights (diagonals of Q and R), sample time or alpha
_PINNED_LQR = [  # platform, weights, K, Ki
    ("rotpen", None,
     ("-0x1.1e3779b97f4bfp+1", "0x1.2ce6a0b332732p+5",
      "-0x1.522e5364fd148p+1", "0x1.54ebe565fd84dp+2"),
     None),
    ("rotpen", ((10.0, 2.0, 0.5, 1.0), (0.25,)),
     ("-0x1.94c583ada5b95p+2", "0x1.ccf5259514cf9p+5",
      "-0x1.2777166a0c739p+2", "0x1.0c67f7f6d0e6cp+3"),
     None),
    ("nxtway", None,
     ("-0x1.9fdf7eac959d7p-1", "-0x1.35496148be862p+6",
      "-0x1.40621577cbe4ep+0", "-0x1.32f2fe6b1775ep+3"),
     "-0x1.c9f25c5c02fdep-2"),
    ("nxtway", ((2.0, 3.0e5, 1.0, 4.0, 250.0), (500.0, 500.0)),
     ("-0x1.bc7e15b72184bp-1", "-0x1.3895c4348711ep+6",
      "-0x1.441ff2be82007p+0", "-0x1.369e647bce07dp+3"),
     "-0x1.000000000154cp-1"),
]
_PINNED_SMC = [  # platform, settings, L, Keq, k, surface eigenvalues (re, im)
    ("rotpen", {},
     ("-0x1.431e69eca1191p+5", "0x1.6fa0c736362acp+9",
      "-0x1.b1b52eb0dc11fp+5", "0x1.ca8600efcfdb6p+6"),
     ("-0x1.431e69eca1191p+5", "0x1.7573b8301a772p+9",
      "-0x1.b6cc850425f42p+5", "0x1.cfeb5a090526cp+6"),
     "0x1.028c1d959b062p+0",
     ("0x1.fefa1e2be21dcp-1", "0x1.fab0cec91a9acp-1", "0x1.fab0cec91a9acp-1"),
     ("0x0.0p+0", "0x1.0ef75f1905444p-8", "-0x1.0ef75f1905444p-8")),
    ("rotpen", {"Ts": 0.005, "alpha": 60.0},
     ("-0x1.00352311497d1p+4", "0x1.2381835149dcbp+8",
      "-0x1.57e6522788acbp+4", "0x1.6b93521937f9bp+5"),
     ("-0x1.00352311497d1p+4", "0x1.2f2743d92bb3ep+8",
      "-0x1.6212113ea8b58p+4", "0x1.7666f9952aa19p+5"),
     "0x1.05b25592bcf05p+0",
     ("0x1.fd72461febe0ep-1", "0x1.f2d0583b220c6p-1", "0x1.f2d0583b220c6p-1"),
     ("0x0.0p+0", "0x1.4d7578c722383p-7", "-0x1.4d7578c722383p-7")),
    ("nxtway", {},
     ("-0x1.49108e3608c83p-1", "-0x1.44e3a1546a266p+6",
      "-0x1.a23555d824f14p-1", "-0x1.608daed858236p+3"),
     ("-0x1.49108e3608c83p-1", "-0x1.519d9db5e3a48p+6",
      "-0x1.5574c4e81ea87p+0", "-0x1.5ab5288bfe859p+3"),
     "0x1.0a0b02501c79ap+0",
     ("0x1.fdf4c1e74d974p-1", "0x1.f1327704ad091p-1", "0x1.f1327704ad091p-1"),
     ("0x0.0p+0", "0x1.ec4a311ac6263p-10", "-0x1.ec4a311ac6263p-10")),
    ("nxtway", {"Ts": 0.01, "alpha": 250.0},
     ("-0x1.12c1243e13832p-1", "-0x1.0ad2837b9fda6p+6",
      "-0x1.5c8d4cebff980p-1", "-0x1.213abf3960cc4p+3"),
     ("-0x1.12c1243e13832p-1", "-0x1.21afba4f424cbp+6",
      "-0x1.3357f4d281503p+0", "-0x1.2717b71c4ad60p+3"),
     "0x1.03f81f636b80cp+1",
     ("0x1.fae7cb1f78de2p-1", "0x1.dbcbbecd1cb69p-1", "0x1.dbcbbecd1cb69p-1"),
     ("0x0.0p+0", "0x1.2667c88de2cc1p-8", "-0x1.2667c88de2cc1p-8")),
]


def _hex(values) -> tuple:
    return tuple(float(v).hex() for v in np.ravel(values))


@pytest.mark.parametrize("platform, weights, K, Ki", _PINNED_LQR,
                         ids=["rotpen", "rotpen-weights", "nxtway", "nxtway-weights"])
def test_nominal_lqr_is_pinned_bit_for_bit(platform, weights, K, Ki):
    kwargs = {} if weights is None else {"Q": np.diag(weights[0]), "R": np.diag(weights[1])}
    d = nominal_lqr(default_params(platform), **kwargs)
    assert _hex(d.K) == K
    assert (None if d.Ki is None else d.Ki.hex()) == Ki


@pytest.mark.parametrize("platform, settings, L, Keq, k, re, im", _PINNED_SMC,
                         ids=["rotpen", "rotpen-Ts-alpha", "nxtway", "nxtway-Ts-alpha"])
def test_nominal_smc_is_pinned_bit_for_bit(platform, settings, L, Keq, k, re, im):
    d = nominal_smc(default_params(platform), **settings)
    assert d.Ts == settings.get("Ts", DEFAULT_TS[platform])
    assert (_hex(d.L), _hex(d.Keq), d.k.hex()) == (L, Keq, k)
    assert (_hex(d.surface_eigs.real), _hex(d.surface_eigs.imag)) == (re, im)
