"""Tests for the plant parameter sets and nonlinear dynamics.

The heavy checks re-derive each platform's equations of motion from first
principles with sympy (positions -> kinetic/potential energy -> Euler-Lagrange)
and compare the package's forward dynamics against that independent oracle.
"""

import ast
import ctypes
import dataclasses
import itertools
import math
import random
import re
import shutil
import struct

import numpy as np
import pytest
import sympy as sp

from pendulum_ctl import plants as plants_module
from pendulum_ctl.linearize import closed_form, jacobian_linearize
from pendulum_ctl.plants import (
    NxtwayParams,
    RotPenParams,
    default_params,
    mechanical_energy,
    params_from_mapping,
    scalar_rhs,
)


# ---------------------------------------------------------------------------
# independent Lagrangian oracles
# ---------------------------------------------------------------------------

def _rotpen_oracle(p):
    """Forward-dynamics function derived symbolically from the Lagrangian.

    The arm rotates about the vertical axis (q1); the pole hangs off the arm
    tip and tilts by q2 from upright. The pole couples to q1 as a point mass
    at its half length, with J_p acting on the tilt axis only. Row 1 is
    referred to motor voltage through gamma and back EMF.
    """
    t = sp.Symbol("t")
    q1, q2 = sp.Function("q1")(t), sp.Function("q2")(t)
    v = sp.Symbol("v")

    # pole center-of-mass position in world coordinates; q2 counts positive
    # against the arm's direction of travel (the platform's sign convention)
    half = p.L_p / 2
    x = p.L_r * sp.cos(q1) + half * sp.sin(q2) * sp.sin(q1)
    y = p.L_r * sp.sin(q1) - half * sp.sin(q2) * sp.cos(q1)
    z = half * sp.cos(q2)

    v2 = x.diff(t) ** 2 + y.diff(t) ** 2 + z.diff(t) ** 2
    T = (
        sp.Rational(1, 2) * (p.J_r + p.m_r * (p.L_r / 2) ** 2) * q1.diff(t) ** 2
        + sp.Rational(1, 2) * p.m_p * v2
        + sp.Rational(1, 2) * p.J_p * q2.diff(t) ** 2
    )
    V = p.m_p * p.g * half * sp.cos(q2)
    L = sp.simplify(T - V)

    # Euler-Lagrange rows plus friction; row 1 is then voltage referred:
    # gamma * (mechanical row) + K_m*K_g*q1dot = v
    el1 = L.diff(q1.diff(t)).diff(t) - L.diff(q1) + p.f_r * q1.diff(t)
    el2 = L.diff(q2.diff(t)).diff(t) - L.diff(q2) + p.f_p * q2.diff(t)
    row1 = p.gamma * el1 + p.K_m * p.K_g * q1.diff(t) - v
    row2 = el2

    qdd = [q1.diff(t, 2), q2.diff(t, 2)]
    sol = sp.solve([row1, row2], qdd, dict=True)[0]
    args = [q1, q2, q1.diff(t), q2.diff(t), v]
    return (
        sp.lambdify(args, sp.simplify(sol[qdd[0]])),
        sp.lambdify(args, sp.simplify(sol[qdd[1]])),
    )


def _nxtway_oracle(p):
    """Symbolic forward dynamics for the two-wheeled robot (yaw frozen).

    Wheels roll without slip (travel R*q1); the body pitches by q2 with its
    center of mass a distance L above the axle; each motor armature spins at
    n*(q1dot - q2dot). Motor torque enters through alpha and the combined
    back-EMF/friction constant beta acts on the relative speed.
    """
    t = sp.Symbol("t")
    q1, q2 = sp.Function("q1")(t), sp.Function("q2")(t)
    w = sp.Symbol("w")  # sum of the two motor voltages

    q1d, q2d = q1.diff(t), q2.diff(t)
    xb = p.R * q1 + p.L * sp.sin(q2)
    zb = p.L * sp.cos(q2)
    T = (
        2 * sp.Rational(1, 2) * (p.m * p.R ** 2 + p.J_w) * q1d ** 2
        + sp.Rational(1, 2) * p.M * (xb.diff(t) ** 2 + zb.diff(t) ** 2)
        + sp.Rational(1, 2) * p.J_q2 * q2d ** 2
        + 2 * sp.Rational(1, 2) * p.J_m * (p.eta * (q1d - q2d)) ** 2
    )
    V = p.M * p.g * p.L * sp.cos(q2)
    L = sp.simplify(T - V)

    rel = q1d - q2d
    el1 = L.diff(q1d).diff(t) - L.diff(q1)
    el2 = L.diff(q2d).diff(t) - L.diff(q2)
    row1 = el1 + 2 * p.beta * rel + 2 * p.f_w * q1d - p.alpha * w
    row2 = el2 - 2 * p.beta * rel + p.alpha * w

    qdd = [q1.diff(t, 2), q2.diff(t, 2)]
    sol = sp.solve([row1, row2], qdd, dict=True)[0]
    args = [q1, q2, q1d, q2d, w]
    return (
        sp.lambdify(args, sp.simplify(sol[qdd[0]])),
        sp.lambdify(args, sp.simplify(sol[qdd[1]])),
    )


def _oracle_terms(p, q2, q1d, q2d):
    """The hand-written (m11, m12, m21, m22, c11, c12, c21, c22, g1, g2) of M qdd + C qd + G = V."""
    if p.platform == "rotpen":
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


def _voltages(p, v):
    """V for the voltage v on each motor: rotpen drives row one, nxtway's two motors both rows."""
    return (v, 0.0) if p.platform == "rotpen" else (2.0 * v, 2.0 * v)


def _oracle_matrices(p, x):
    """M, C and G of the hand-written terms at a state [q1, q2, q1dot, q2dot]."""
    m11, m12, m21, m22, c11, c12, c21, c22, g1, g2 = _oracle_terms(p, x[1], x[2], x[3])
    M = np.array([[m11, m12], [m21, m22]])
    return M, np.array([[c11, c12], [c21, c22]]), np.array([g1, g2])


def _oracle_accelerations(p, x, v):
    """The hand-written terms solved with np.linalg.solve."""
    M, C, G = _oracle_matrices(p, x)
    return np.linalg.solve(M, np.array(_voltages(p, v)) - C @ np.asarray(x[2:]) - G)


def _cramer(terms, V, q1d, q2d):
    """M qddot = V - C qdot - G solved by Cramer's rule, each formula in its textbook order."""
    m11, m12, m21, m22, c11, c12, c21, c22, g1, g2 = terms
    r1 = V[0] - c11 * q1d - c12 * q2d - g1
    r2 = V[1] - c21 * q1d - c22 * q2d - g2
    det = m11 * m22 - m12 * m21
    return (m22 * r1 - m12 * r2) / det, (m11 * r2 - m21 * r1) / det


def _accelerations(p, x, v):
    """scalar_rhs at a state [q1, q2, q1dot, q2dot] as an array."""
    return np.array(scalar_rhs(p)(x[1], x[2], x[3], v))


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------

def test_default_rotpen_values():
    p = default_params("rotpen")
    assert isinstance(p, RotPenParams)
    assert p.m_p == 0.127
    assert p.L_p == 0.337
    assert p.K_g == 70.0
    assert p.V_max == 6.0
    assert p.J_r == 9.98e-3
    assert p.gamma == pytest.approx(p.R_m / (p.K_t * p.K_g * p.eta_g * p.eta_m))


def test_default_nxtway_values():
    p = default_params("nxtway")
    assert isinstance(p, NxtwayParams)
    assert p.M == 0.6
    assert p.R == 0.02
    assert p.L == 0.12
    assert p.V_max == 10.0
    assert p.J_w == pytest.approx(0.03 * 0.02 ** 2 / 2)  # = 6.0e-6
    assert p.J_w == pytest.approx(6.0e-6)
    assert p.J_q2 == pytest.approx(p.M * p.L ** 2 / 3)
    assert p.alpha == pytest.approx(p.eta * p.K_t / p.R_m)
    assert p.beta == pytest.approx(p.eta * p.K_t * p.K_b / p.R_m + p.f_m)


def test_platform_name_is_case_insensitive():
    assert default_params("RotPen") == default_params("rotpen")
    assert default_params("NxtWay") == default_params("nxtway")
    with pytest.raises(ValueError, match="unknown platform 'segway'"):
        default_params("segway")


def test_invalid_parameters_rejected():
    p = default_params("rotpen")
    with pytest.raises(ValueError):
        dataclasses.replace(p, m_p=-0.1)
    with pytest.raises(ValueError):
        dataclasses.replace(p, R_m=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(p, f_p=-1e-9)
    n = default_params("nxtway")
    with pytest.raises(ValueError):
        dataclasses.replace(n, V_max=0.0)


def test_efficiencies_above_one_are_refused():
    # before the bound, these gave gamma 0.32 instead of 7.80
    with pytest.raises(ValueError, match="eta_g is an efficiency"):
        params_from_mapping("rotpen", {"eta_g": 5.0, "eta_m": 3.0})
    with pytest.raises(ValueError, match="eta_m is an efficiency"):
        params_from_mapping("rotpen", {"eta_m": 1.0 + 1e-12})
    p = params_from_mapping("rotpen", {"eta_g": 1.0, "eta_m": 1.0})
    assert p.gamma == p.R_m / (p.K_t * p.K_g)


def test_params_from_mapping_overrides_and_errors():
    p = params_from_mapping("rotpen", {"m_p": "0.2", "V_max": 5})
    assert p.m_p == 0.2 and p.V_max == 5.0
    # untouched fields keep their defaults
    assert p.L_p == default_params("rotpen").L_p

    with pytest.raises(ValueError, match="unknown parameter 'no_such_key' for platform rotpen"):
        params_from_mapping("rotpen", {"no_such_key": 1.0})
    with pytest.raises(ValueError, match="parameter m_p: 'not-a-number' is not a number"):
        params_from_mapping("rotpen", {"m_p": "not-a-number"})


@pytest.mark.parametrize("platform, name", [
    ("rotpen", "m_p"), ("rotpen", "f_p"), ("nxtway", "M"), ("nxtway", "f_w"),
])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_nonfinite_parameters_rejected(platform, name, value):
    with pytest.raises(ValueError, match=f"parameter {name}: '{value}' is not finite"):
        params_from_mapping(platform, {name: value})
    with pytest.raises(ValueError, match="must be finite"):
        dataclasses.replace(default_params(platform), **{name: float(value)})


def test_params_from_mapping_checks_derived_keys():
    # only fields are settable: a derived quantity is refused even at its
    # consistent value, and so is a constant the model no longer carries
    refused = {"rotpen": (("gamma",), {"L_m": 0.18e-3, "K_enc": 4096.0}),
               "nxtway": (("J_w", "J_q2", "alpha", "beta"),
                          {"J_q3": 1e-3, "W": 0.14, "D": 0.04, "H": 0.27})}
    for platform, (derived, deleted) in refused.items():
        base = default_params(platform)
        for key, value in {**{k: getattr(base, k) for k in derived}, **deleted}.items():
            with pytest.raises(ValueError, match=f"unknown parameter '{key}'"):
                params_from_mapping(platform, {key: value})
        assert not any(hasattr(base, key) for key in deleted)
    # base fields still override, and the derived values follow them
    p = params_from_mapping("nxtway", {"M": 0.7, "K_t": 0.3})
    assert p == dataclasses.replace(default_params("nxtway"), M=0.7, K_t=0.3)
    assert p.J_q2 == 0.7 * p.L ** 2 / 3 and p.alpha == p.eta * 0.3 / p.R_m


def _model_reads(p):
    ss = closed_form(p)
    return ss.A.tobytes(), ss.B.tobytes(), scalar_rhs(p)(0.3, 0.5, -0.4, 1.0), p.V_max


@pytest.mark.parametrize("platform, name", [
    (platform, f.name) for platform in ("rotpen", "nxtway")
    for f in dataclasses.fields(default_params(platform))])
def test_every_parameter_field_is_read_by_the_model(platform, name):
    # scaling a field by 1.1 (or setting a zero default to 0.1) must move the
    # closed-form model, the accelerations at a fixed state, or the limit
    base = default_params(platform)
    value = getattr(base, name)
    changed = dataclasses.replace(base, **{name: value * 1.1 if value else 0.1})
    assert _model_reads(changed) != _model_reads(base)


# ---------------------------------------------------------------------------
# dynamics matrices
# ---------------------------------------------------------------------------

def test_rotpen_matrix_entries_at_sample_state():
    # the entries recomputed from the defining expressions, solved for the
    # accelerations the kernel returns
    p = default_params("rotpen")
    q2, q1d, q2d, v = 0.1, 0.2, -0.3, 1.7

    a = p.m_r * (p.L_r / 2) ** 2 + p.m_p * p.L_r ** 2 + p.J_r
    b = 0.5 * p.m_p * p.L_p * p.L_r
    c = p.m_p * (p.L_p / 2) ** 2 + p.J_p
    l2 = p.m_p * (p.L_p / 2) ** 2
    s, co = math.sin(q2), math.cos(q2)

    M = np.array([[p.gamma * (a + l2 * s * s), -p.gamma * b * co], [-b * co, c]])
    C = np.array([[p.gamma * (2 * l2 * s * co * q2d + p.f_r) + p.K_m * p.K_g,
                   p.gamma * b * s * q2d],
                  [-l2 * s * co * q1d, p.f_p]])
    G = np.array([0.0, -0.5 * p.m_p * p.L_p * p.g * s])
    want = np.linalg.solve(M, np.array([v, 0.0]) - C @ [q1d, q2d] - G)
    np.testing.assert_allclose(_accelerations(p, [0.7, q2, q1d, q2d], v), want, rtol=1e-12)


def test_rotpen_gravity_at_right_angle():
    # at rest and undriven, M qddot = -G with G[1] = -(L_p / 2) m_p g at q2 = pi / 2
    p = default_params("rotpen")
    x = [0.0, math.pi / 2, 0.0, 0.0]
    M, _, _ = _oracle_matrices(p, x)
    np.testing.assert_allclose(M @ _accelerations(p, x, 0.0),
                               [0.0, (p.L_p / 2) * p.m_p * p.g], rtol=1e-12, atol=1e-15)


def test_nxtway_matrix_entries_at_sample_state():
    p = default_params("nxtway")
    q2, q1d, q2d, v = -0.2, 0.4, 0.1, 1.7

    n2Jm = p.eta ** 2 * p.J_m
    pp = 2 * p.m * p.R ** 2 + p.M * p.R ** 2 + 2 * p.J_w + 2 * n2Jm
    q0 = p.M * p.L * p.R * math.cos(q2) - 2 * n2Jm
    rr = p.M * p.L ** 2 + p.J_q2 + 2 * n2Jm

    M = np.array([[pp, q0], [-q0, -rr]]) / p.alpha
    C = np.array([[2 * (p.beta + p.f_w), -2 * p.beta - p.M * p.L * p.R * q2d * math.sin(q2)],
                  [2 * p.beta, -2 * p.beta]]) / p.alpha
    G = np.array([0.0, p.M * p.g * p.L * math.sin(q2) / p.alpha])
    want = np.linalg.solve(M, np.array([2 * v, 2 * v]) - C @ [q1d, q2d] - G)
    np.testing.assert_allclose(_accelerations(p, [1.0, q2, q1d, q2d], v), want, rtol=1e-12)


def _scaled_params(base, rng):
    """base with every field scaled by 0.8..1.2; the efficiencies stay at most 1."""
    values = {f.name: getattr(base, f.name) * rng.uniform(0.8, 1.2)
              for f in dataclasses.fields(base)}
    for name in ("eta_g", "eta_m"):
        if name in values:
            values[name] = min(values[name], 1.0)
    return params_from_mapping(base.platform, values)


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_scalar_rhs_matches_the_hand_written_terms_bit_for_bit(platform):
    # factory parameters and four sets with every field scaled by 0.8..1.2;
    # states mix signed zeros, subnormals and magnitudes from 1e-3 to 30
    rng = np.random.default_rng(41 if platform == "rotpen" else 43)
    base = default_params(platform)
    param_sets = [base] + [_scaled_params(base, rng) for _ in range(4)]
    special = [0.0, -0.0, 1e-310, -1e-310]
    for p in param_sets:
        f = scalar_rhs(p)
        for _ in range(1500):
            x = rng.normal(size=4) * rng.choice([1e-3, 1.0, 30.0], 4)
            for i in range(4):
                if rng.random() < 0.2:
                    x[i] = special[rng.integers(len(special))]
            q2, q1d, q2d = x[1:].tolist()
            v = float(rng.normal(scale=5.0))
            want = _cramer(_oracle_terms(p, q2, q1d, q2d), _voltages(p, v), q1d, q2d)
            assert struct.pack("2d", *f(q2, q1d, q2d, v)) == struct.pack("2d", *want), (x, v)


def test_nxtway_gravity_vanishes_upright():
    # upright, the accelerations are those of the terms with G = 0, bit for bit
    p = default_params("nxtway")
    for q1d, q2d, v in ((0.5, -0.5, 0.0), (0.5, -0.5, 1.3), (-2.0, 0.7, -3.1)):
        terms = _oracle_terms(p, 0.0, q1d, q2d)[:8] + (0.0, 0.0)
        assert scalar_rhs(p)(0.0, q1d, q2d, v) == _cramer(terms, _voltages(p, v), q1d, q2d)


def test_mechanical_energy_rejects_bad_states():
    p = default_params("rotpen")
    with pytest.raises(ValueError, match="non-finite"):
        mechanical_energy(p, [0.0, math.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        mechanical_energy(p, [0.0, 0.0, math.inf, 0.0])
    with pytest.raises(ValueError, match="4 entries"):
        mechanical_energy(p, [0.0, 0.0, 0.0])


def test_mass_matrix_invertible_over_full_pitch_range():
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        f = scalar_rhs(p)
        for q2 in np.arange(-math.pi, math.pi, 1e-3):
            M, _, _ = _oracle_matrices(p, [0.0, q2, 0.0, 0.0])
            assert abs(np.linalg.det(M)) > 1e-12
            assert all(map(math.isfinite, f(float(q2), 0.0, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# forward dynamics
# ---------------------------------------------------------------------------

def test_equilibrium_is_exact():
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        assert scalar_rhs(p)(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)


def test_scalar_rhs_linear_in_voltage():
    rng = np.random.default_rng(7)
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        x = rng.normal(scale=0.3, size=4)
        base = _accelerations(p, x, 0.0)
        f1 = _accelerations(p, x, 1.3) - base
        f2 = _accelerations(p, x, -2.1) - base
        both = _accelerations(p, x, 1.3 - 2.1) - base
        np.testing.assert_allclose(both, f1 + f2, atol=1e-12)


def test_nxtway_pole_falls_from_small_tilt():
    p = default_params("nxtway")
    qdd = _accelerations(p, [0.0, 0.05, 0.0, 0.0], 0.0)
    assert qdd[1] > 0.0


def test_nxtway_motor_voltages_enter_as_sum():
    # the model takes one voltage per motor; linearized, both motors act alike
    B = jacobian_linearize(default_params("nxtway")).B
    np.testing.assert_array_equal(B[:, 0], B[:, 1])


def test_rotpen_scalar_rhs_matches_lagrangian_oracle():
    p = default_params("rotpen")
    f1, f2 = _rotpen_oracle(p)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q1, q2, q1d, q2d = rng.normal(scale=0.8, size=4)
        v = rng.normal(scale=3.0)
        want = np.array([f1(q1, q2, q1d, q2d, v), f2(q1, q2, q1d, q2d, v)])
        got = _accelerations(p, [q1, q2, q1d, q2d], v)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


def test_nxtway_scalar_rhs_matches_lagrangian_oracle():
    # the oracle takes the sum of the motor voltages, the model the voltage on each
    p = default_params("nxtway")
    f1, f2 = _nxtway_oracle(p)
    rng = np.random.default_rng(21)
    for _ in range(20):
        q1, q2, q1d, q2d = rng.normal(scale=0.8, size=4)
        vl, vr = rng.normal(scale=3.0, size=2)
        want = np.array([f1(q1, q2, q1d, q2d, vl + vr), f2(q1, q2, q1d, q2d, vl + vr)])
        got = _accelerations(p, [q1, q2, q1d, q2d], 0.5 * (vl + vr))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


def test_scalar_rhs_consistent_with_the_hand_written_terms():
    # M*qdd + C*qd + G must reproduce the applied voltage vector
    rng = np.random.default_rng(3)
    for platform, v, V in (("rotpen", 2.5, [2.5, 0.0]), ("nxtway", 1.5, [3.0, 3.0])):
        p = default_params(platform)
        x = rng.normal(scale=0.5, size=4)
        M, C, G = _oracle_matrices(p, x)
        resid = M @ _accelerations(p, x, v) + C @ x[2:] + G - np.array(V)
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)


def test_scalar_rhs_matches_vector_dynamics():
    # the integration kernel against the hand-written terms solved with
    # np.linalg.solve, on the factory parameters and on sets with every
    # field scaled by 0.8..1.2
    rng = np.random.default_rng(77)
    for platform in ("rotpen", "nxtway"):
        base = default_params(platform)
        param_sets = [base] + [_scaled_params(base, rng) for _ in range(4)]
        for params in param_sets:
            f = scalar_rhs(params)
            # an equal parameter object built separately gives the same bits
            twin = params_from_mapping(platform, {
                fld.name: repr(getattr(params, fld.name)) for fld in dataclasses.fields(params)})
            assert twin == params and twin is not params
            g = scalar_rhs(twin)
            for _ in range(25):
                x = rng.normal(scale=1.5, size=4)
                v = float(rng.normal(scale=3.0))
                assert g(x[1], x[2], x[3], v) == f(x[1], x[2], x[3], v)
                got = np.array(f(x[1], x[2], x[3], v))
                want = _oracle_accelerations(params, x, v)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# mechanical energy
# ---------------------------------------------------------------------------

def _rk4_roll(p, x0, dt, steps, v=0.0):
    x = np.asarray(x0, dtype=float)
    rhs = scalar_rhs(p)

    def f(state):
        return np.concatenate([state[2:], rhs(state[1], state[2], state[3], v)])

    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_kinetic_energy_zero_at_rest_and_quadratic_in_speed():
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        rest = mechanical_energy(p, [0.3, 0.8, 0.0, 0.0])
        moving = mechanical_energy(p, [0.3, 0.8, 0.4, -0.7])
        double = mechanical_energy(p, [0.3, 0.8, 0.8, -1.4])
        assert moving > rest
        assert double - rest == pytest.approx(4 * (moving - rest), rel=1e-12)


def test_potential_energy_maximal_upright_zero_hanging():
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        up = mechanical_energy(p, [0.0, 0.0, 0.0, 0.0])
        tilted = mechanical_energy(p, [0.0, 2.5, 0.0, 0.0])
        hanging = mechanical_energy(p, [0.0, math.pi, 0.0, 0.0])
        assert up > tilted > hanging
        assert hanging == pytest.approx(0.0, abs=1e-12)


def _conservative(p):
    if isinstance(p, RotPenParams):
        return dataclasses.replace(p, f_p=0.0, f_r=0.0, K_m=0.0)
    return dataclasses.replace(p, f_m=0.0, f_w=0.0, K_b=0.0)


def test_energy_conserved_without_dissipation():
    for platform, x0 in (("rotpen", [0.0, 2.6, 0.0, 0.0]),
                         ("nxtway", [0.0, 2.6, 0.0, 0.0])):
        p = _conservative(default_params(platform))
        e0 = mechanical_energy(p, x0)
        assert e0 > 0
        x = np.asarray(x0, dtype=float)
        dt, steps_per_check = 1e-3, 500
        worst = 0.0
        for _ in range(20):  # 10 s total
            x = _rk4_roll(p, x, dt, steps_per_check)
            worst = max(worst, abs(mechanical_energy(p, x) - e0) / e0)
        assert worst < 1e-6


def test_energy_decreases_with_friction():
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        x0 = [0.0, 2.6, 0.0, 0.0]
        e0 = mechanical_energy(p, x0)
        x = _rk4_roll(p, x0, 1e-3, 3000)
        assert mechanical_energy(p, x) < e0


# ---------------------------------------------------------------------------
# the C translation of the dynamics text
# ---------------------------------------------------------------------------

_FRAME = ("k", "rows", "diverged")


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_both_dynamics_and_the_tick_translate_to_c(platform):
    tick = plants_module._tick(platform)
    lines = [code for line in tick.splitlines() if (code := line.split("#", 1)[0]).strip()]
    declared = _FRAME + plants_module._SETTINGS + plants_module._CARRY + plants_module._COLUMNS
    declaration, *c_tick = plants_module._c_statements(tick, declared).splitlines()
    # one C line per Python line but else, blocks closed by braces; an elif
    # is an if in an else block
    assert (len([line for line in c_tick if line.strip() not in ("}", "else {")])
            == len([line for line in lines if line.strip() != "else:"]))
    assert all(line.endswith((";", "{", "}")) and "#" not in line for line in c_tick)
    assert "".join(c_tick).count("{") == "".join(c_tick).count("}")
    assert sum("while (" in line for line in c_tick) == 1 and "break;" in "".join(c_tick)
    # each name the tick assigns, the for counter included, but the
    # declared ones, declared once, first
    assigned = {target for line in lines if " = " in line
                if (target := line.partition(" = ")[0].strip()).isidentifier()} | {"i"}
    assert declaration.startswith("double ") and declaration.endswith(";")
    names = declaration[len("double "):-1].split(", ")
    assert sorted(names) == sorted(assigned - set(declared)) and len(names) == len(set(names))
    # the period: one for over a double counter around four copies of the stage
    assert [line.strip() for line in c_tick if "for (" in line] == [
        "for (i = 0.0; i < steps; i = i + 1.0) {"]
    source = plants_module._c_source(platform)
    assert source.count("s = sin(") == 4 == source.count("co = cos(")
    assert "y2 = (y2 + (w * (" in source and "double y2 = y2" not in source
    assert source.count("{") == source.count("}") and re.search(r"\{\w", source) is None
    assert plants_module._c_statements("for n in range(count):\n    x = x + 1.0", ()) == (
        "double n, x;\nfor (n = 0.0; n < count; n = n + 1.0) {\n    x = (x + 1.0);\n}")
    # C adds the frame's 64-bit k and an int in 64 bits
    assert plants_module._c_statements("x = k + 1", _FRAME) == "double x;\nx = (k + 1);"


def _c_function(tmp_path, functions, arguments):
    """Build C functions (name, statements, results) of the arguments, doubles
    but k, an int64_t, into one object: each returns its results through a
    double pointer."""
    declare = ", ".join(("int64_t " if a == "k" else "double ") + a for a in arguments)
    source = "#include <math.h>\n#include <stdint.h>\n"
    for name, statements, results in functions:
        source += (f"\nvoid {name}({declare}, double *out)\n{{\n{statements}\n"
                   + "".join(f"out[{i}] = {r};\n" for i, r in enumerate(results)) + "}\n")
    so_file = tmp_path / "f.so"
    plants_module._build(source, str(so_file))
    library = ctypes.CDLL(str(so_file))
    loaded = []
    for name, _, results in functions:
        f = getattr(library, name)
        f.restype = None
        f.argtypes = [ctypes.c_int64 if a == "k" else ctypes.c_double for a in arguments] + [
            ctypes.c_void_p]

        def call(*x, f=f, size=len(results)):
            out = (ctypes.c_double * size)()
            f(*x, out)
            return list(out)
        loaded.append(call)
    return loaded


def _python_results(text, names, x, results, **more):
    """results after text runs on names = x and more, with the tick's calls."""
    namespace = {"sin": math.sin, "cos": math.cos, "copysign": math.copysign,
                 **dict(zip(names, x)), **more}
    exec(text, namespace)
    return [float(namespace[r]) for r in results]


def _bits(values):
    values = list(values)
    return struct.pack(f"{len(values)}d", *values)


def _quiet(x):
    """x, with every NaN the one NaN."""
    return math.nan if math.isnan(x) else x


@pytest.mark.parametrize("line, outcome", [
    ("r = a ** 2.0", "no build"),
    ("r = a // b", "no build"),
    ("r = 2 * a", "exact"),  # the integer converts to a double exactly
    ("r = a / 3  # a third", "exact"),
    ("r = tan(a)", "no Python kernel"),
    ("r = q2d * exp(a)", "no Python kernel"),
    ("r = a if b else c", "no build"),
    ("r = a % b", "no build"),
    ("r = a[0.0]", "no build"),
    ("r = 1_000.0 * a", "exact"),  # the parser reads the underscore, as C's 1000.0
    ("r = (a + 1) / 2", "exact"),  # a double over an integer: C divides doubles
    ("r = (a < b) * 2.0 - 3 * c", "exact"),  # integers times doubles
    ("r = sin", "no build"),
    ("r a", "no build"),
    ("r =", "no build"),
])
def test_stage_lines_c_cannot_run_stop_at_the_compiler_or_the_python_kernel(tmp_path, line,
                                                                            outcome):
    """A stage line outside C's shared arithmetic never reaches a native stepper.

    _c_statements refuses such a line when the source is generated, so no
    object is built (no build), one with a name the Python kernel lacks
    fails there as well, and one it translates evaluates to the same bits
    as Python.
    """
    step = f"s = sin(q2)\n{line}\nq1dd = r / 2.0"
    inputs = [(0.3, -1.7, 2.5, 0.2, -0.9), (-0.0, 5e-324, 1e3, -1e3, 0.0),
              (7.0, 1.0, -3.0, 0.5, 1.5)]
    names = ("a", "b", "c", "q2", "q2d")
    if outcome != "exact":
        if outcome == "no Python kernel":
            with pytest.raises(NameError):
                _python_results(step, names, inputs[0], ["q1dd"])
        with pytest.raises((ValueError, SyntaxError)):
            plants_module._c_statements(step, names)
        return
    statements = plants_module._c_statements(step, names)
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH: the tick loop runs in Python")
    [f] = _c_function(tmp_path, [("f", statements, ["q1dd"])], names)
    for x in inputs:
        assert _bits(f(*x)) == _bits(_python_results(step, names, x, ["q1dd"]))


# Lines C would compute otherwise than Python, each refused when the source is
# generated, with no compiler needed; a, b, c, v and the frame's k and rows are
# declared, and p is given comparisons only
@pytest.mark.parametrize("text", [
    "x = a < b < c",  # a chained comparison: C compares a truth value with c
    "x = a ** b",
    "x = a // b",
    "x = a % b",
    "x = a if b else c",
    "x = 1 / 2",  # C divides integers as integers
    "x = k / rows",
    "x = (a < b) / (c < a)",
    "x = -1 / (2 + 3)",
    "x = (k + 1) / 2",
    "x = a and b",  # C stores 1 where Python stores b
    "x = a or b < c",
    "x = (a < b and c) * 2.0",
    "p = a < b\nx = p and a",
    "p = a < b\np = 2.0",  # a name given a truth value and a number
    "for i in range(3):\n    x = a\np = i and a < b",
    "x = a < b\nfor x in range(3):\n    y = a",
    "for i in range(3):\n    x = i",  # C counts a double where Python counts an int
    "for i in range(3):\n    x = a\ny = -i",
    "for i in range(3):\n    i = a",
    "x = tan(a)",
    "x = +a",
    "x = ~k",
    "x = a @ b",
    "x = a[0.0]",
    "x = v[k + 1]",
    "x = a.real",
    "x = sin",
    "sin = a",
    "x = abs(a=b)",
    "x = True",
    "x = 'a'",
    "x = 1j",
    "x = 100000000000000000000 * a",  # no C integer holds it
    "x = 100000 * 100000 * a",  # C's 32-bit int overflows
    "x = -2 * (3 - 4)",
    "x = (a < b) + (b < c)",
    "x = 1 - 2 + a",
    "x = (a < b) * 2",
    "for i in range(a):\n    a = a - 1.0",  # C reads the count on every pass, Python once
    "for i in range(a + b):\n    if c < a:\n        b = c",
    "for i in range(a):\n    while b < c:\n        a = b",
    "for i in range(i):\n    x = a",
    "x = [a]",
    "x, y = a, b",
    "x = y = a",
    "x += a",
    "x: float = a",
    "x = (y := a)",
    "if a:\n    pass",
    "while a:\n    x = a\nelse:\n    x = b",
    "for i in range(3):\n    x = a\nelse:\n    x = b",
    "for i in range(1, 3):\n    x = a",
    "for i in [a, b]:\n    x = a",
    "for i, j in range(3):\n    x = a",
    "def f():\n    x = a",
    "assert a",
    "a",
])
def test_the_c_translation_refuses_what_c_computes_otherwise(text):
    with pytest.raises(ValueError):
        plants_module._c_statements(text, ("a", "b", "c", "v", "k", "rows"))


def test_not_before_a_comparison_translates_as_python_reads_it(tmp_path):
    # Python reads not a == b as not (a == b); C reads ! a == b as (!a) == b
    text = "x = not a == b\ny = not a < b and b > 0.0\nz = a < b or not b"
    statements = plants_module._c_statements(text, ("a", "b"))
    assert "x = (!(a == b));" in statements.splitlines()
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH: the tick loop runs in Python")
    [f] = _c_function(tmp_path, [("f", statements, ["x", "y", "z"])], ("a", "b"))
    for x in [(0.5, 2.0), (2.0, 2.0), (-0.0, 0.0), (math.nan, 1.0), (0.0, -1.0)]:
        assert _bits(f(*x)) == _bits(_python_results(text, ("a", "b"), x, ["x", "y", "z"]))
    assert f(0.5, 2.0) == [1.0, 0.0, 1.0]


# doubles the generated texts run on: signed zeros, infinities, a NaN,
# subnormals, the smallest normal and ordinary and huge values
_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308,
          1.0, -1.5, 0.1, 3.0, -7.25, 1e300, -1e-300)


class _Texts:
    """Seeded random statements and expressions over the C subset of the tick text.

    a, b, c and d are the inputs and v[k] reads a column; t0..t3 hold numbers
    and p0, p1 truth values, all assigned first, so each is defined on every
    path; each while runs at most three times and each for over a literal
    count, and neither's counter is read.
    """

    def __init__(self, seed):
        self.rng, self.loops, self.counters = random.Random(seed), 0, []

    def number(self, depth):
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            return rng.choice([ast.Name(rng.choice("abcd")), ast.Name(f"t{rng.randrange(4)}"),
                               ast.Constant(rng.choice((0.5, -0.0, 2.0, 1e-3, 3.5))),
                               ast.Subscript(ast.Name("v"), ast.Name("k"))])
        kind, sub = rng.randrange(7), depth - 1
        if kind == 0:
            op = rng.choice((ast.Add, ast.Sub, ast.Mult, ast.Div))()
            # a / of a double: a name or a float, which hold no integer
            right = (rng.choice([ast.Name(rng.choice("abcd")), ast.Constant(0.25)])
                     if isinstance(op, ast.Div) else self.number(sub))
            return ast.BinOp(self.number(sub), op, right)
        if kind == 1:
            return ast.UnaryOp(ast.USub(), self.number(sub))
        if kind == 2:
            name = rng.choice(("sin", "cos", "abs", "copysign"))
            args = [self.number(sub) for _ in range(2 if name == "copysign" else 1)]
            return ast.Call(ast.Name(name), args, [])
        if kind == 3:  # an int that converts to a double exactly
            return ast.BinOp(ast.Constant(rng.choice((2, 3, -4))),
                             rng.choice((ast.Add, ast.Sub, ast.Mult))(), self.number(sub))
        if kind == 4:  # a truth value as a number
            return ast.BinOp(self.truth(sub), rng.choice((ast.Add, ast.Sub, ast.Mult))(),
                             self.number(sub))
        return ast.BinOp(self.number(sub), rng.choice((ast.Add, ast.Mult))(), self.number(sub))

    def truth(self, depth):
        rng = self.rng
        kind = rng.randrange(4 if depth else 1)
        if kind == 0:
            return ast.Compare(self.number(max(depth - 1, 0)), [rng.choice(
                (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE))()],
                [self.number(max(depth - 1, 0))])
        if kind == 1:
            return ast.UnaryOp(ast.Not(), rng.choice([self.truth, self.number])(depth - 1))
        if kind == 2:
            return ast.BoolOp(rng.choice((ast.And, ast.Or))(),
                              [self.truth(depth - 1) for _ in range(rng.randint(2, 3))])
        return ast.Name(f"p{rng.randrange(2)}")

    def test(self, depth):
        """An if or while test: and/or may take any operands, as only truth is read."""
        rng = self.rng
        if rng.random() < 0.4:
            return ast.BoolOp(rng.choice((ast.And, ast.Or))(), [
                rng.choice([self.truth, self.number])(depth) for _ in range(rng.randint(2, 3))])
        return rng.choice([self.truth, self.number])(depth)

    def statements(self, depth, loop=False):
        rng, out = self.rng, []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(6 if depth else 2)
            if kind == 0:
                out.append(ast.Assign([ast.Name(f"t{rng.randrange(4)}")], self.number(3)))
            elif kind == 1:
                out.append(ast.Assign([ast.Name(f"p{rng.randrange(2)}")], self.truth(3)))
            elif kind == 2:
                orelse = rng.choice([[], self.statements(depth - 1, loop),
                                     [ast.If(self.test(2), self.statements(depth - 1, loop), [])]])
                out.append(ast.If(self.test(2), self.statements(depth - 1, loop), orelse))
            elif kind == 3:
                self.loops += 1
                count = ast.Call(ast.Name("range"), [ast.Constant(rng.randrange(4))], [])
                out.append(ast.For(ast.Name(f"i{self.loops}"), count,
                                   self.statements(depth - 1, True), []))
            elif kind == 4:
                self.loops += 1
                w = f"w{self.loops}"
                self.counters.append(w)
                guard = ast.Compare(ast.Name(w), [ast.Lt()], [ast.Constant(3.0)])
                step = ast.Assign([ast.Name(w)], ast.BinOp(ast.Name(w), ast.Add(),
                                                           ast.Constant(1.0)))
                out += [ast.Assign([ast.Name(w)], ast.Constant(0.0)),
                        ast.While(ast.BoolOp(ast.And(), [guard, self.test(2)]),
                                  [step] + self.statements(depth - 1, True), [])]
            elif loop:
                out.append(ast.If(self.test(2), [ast.Break()], []))
        return out or [ast.Assign([ast.Name("t0")], self.number(1))]

    def text(self):
        """A program and the names whose values it leaves."""
        body = self.statements(3)
        names = [f"t{i}" for i in range(4)] + self.counters
        first = [ast.Assign([ast.Name(name)], ast.Constant(0.0)) for name in names]
        first += [ast.Assign([ast.Name(f"p{i}")], self.truth(0)) for i in range(2)]
        text = ast.unparse(ast.fix_missing_locations(ast.Module(first + body, [])))
        return text, names + ["p0", "p1"]


def test_generated_texts_run_in_c_as_in_python_bit_for_bit(tmp_path):
    """Seeded texts over the whole C subset, each compiled into one C function
    and run on edge doubles: where Python finishes, C gives the same bits."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH: the tick loop runs in Python")
    texts = [_Texts(seed).text() for seed in range(40)]
    arguments = ("a", "b", "c", "d", "v0", "v1", "k")
    functions = [(f"f{i}", "const double v[2] = {v0, v1};\n"
                  + plants_module._c_statements(text, ("a", "b", "c", "d", "v", "k")), results)
                 for i, (text, results) in enumerate(texts)]
    rng, compared = random.Random(7), 0
    for f, (text, results) in zip(_c_function(tmp_path, functions, arguments), texts):
        for _ in range(60):
            x = [rng.choice(_EDGES) for _ in range(6)] + [rng.randrange(2)]
            try:
                want = _python_results(text, ("a", "b", "c", "d"), x[:4], results,
                                       v=x[4:6], k=x[6])
            except (ZeroDivisionError, ValueError):
                continue  # Python raises where C runs on in infinities and NaNs
            got = f(*x)
            # a NaN matches any NaN: IEEE 754 leaves a NaN result's sign open, and
            # GCC may fold -x * -y into x * y
            assert _bits(map(_quiet, got)) == _bits(map(_quiet, want)), (text, x)
            compared += 1
    assert compared > 1000


def _names(text):
    """Every identifier in text."""
    return set(re.findall(r"\b[A-Za-z_]\w*", text))


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_the_period_names_are_its_own(platform):
    # the period runs in the scope of the tick and its kernel frame: a name
    # it assigns that the rest also reads or assigns (the filter's carried
    # p2, say) corrupts the Python and the C loop alike, so no probe run
    # can tell, and so does a dynamics constant that any of them assigns.
    # The period is the block of the expanded tick's for over the steps
    constants, stage = plants_module._DYNAMICS[platform]
    head, loop, tail = plants_module._tick(platform).partition("for i in range(steps):\n")
    lines = tail.splitlines()
    block = list(itertools.takewhile(lambda line: line.startswith(" "), lines))
    own = {line.partition(" = ")[0].strip() for line in block if " = " in line}
    own -= {"y1", "y2", "y3", "y4"}  # the period's state, which the tick reads
    # every name the stage assigns, v2 for nxtway, is the period's own
    assert {line.partition(" = ")[0] for line in stage.splitlines()
            if " = " in line and not line.startswith("{")} <= own
    rest = head + loop + "\n".join(lines[len(block):])
    frames = re.sub(r"\{\w[\w ]*\}", "", plants_module._KERNELS["run"] + plants_module._C_SOURCE)
    others = (_names(rest) | _names(frames) | set(plants_module._SETTINGS)
              | set(plants_module._CARRY) | set(plants_module._COLUMNS))
    assert {"a3", "yp", "det", "f1"} <= own and {"v", "i", "steps", "h", "p2", "r1"} <= others
    assert own & others == set()
    assert set(constants(default_params(platform))) & (own | others) == set()
