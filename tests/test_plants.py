"""Tests for the plant parameter sets and nonlinear dynamics.

The heavy checks re-derive each platform's equations of motion from first
principles with sympy (positions -> kinetic/potential energy -> Euler-Lagrange)
and compare the package's forward dynamics against that independent oracle.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
import sympy as sp

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


def test_forward_dynamics_linear_in_voltage():
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


def test_rotpen_forward_dynamics_matches_lagrangian_oracle():
    p = default_params("rotpen")
    f1, f2 = _rotpen_oracle(p)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q1, q2, q1d, q2d = rng.normal(scale=0.8, size=4)
        v = rng.normal(scale=3.0)
        want = np.array([f1(q1, q2, q1d, q2d, v), f2(q1, q2, q1d, q2d, v)])
        got = _accelerations(p, [q1, q2, q1d, q2d], v)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


def test_nxtway_forward_dynamics_matches_lagrangian_oracle():
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


def test_forward_dynamics_consistent_with_the_hand_written_terms():
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
