"""Tests for the plant parameter sets and nonlinear dynamics.

The heavy checks re-derive each platform's equations of motion from first
principles with sympy (positions -> kinetic/potential energy -> Euler-Lagrange)
and compare the package's forward dynamics against that independent oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
import sympy as sp

from pendulum_ctl.errors import ConfigError
from pendulum_ctl.plants import (
    NxtwayParams,
    RotPenParams,
    default_params,
    eval_mcg,
    forward_dynamics,
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
    with pytest.raises(ConfigError):
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


def test_params_from_mapping_overrides_and_errors():
    p = params_from_mapping("rotpen", {"m_p": "0.2", "V_max": 5})
    assert p.m_p == 0.2 and p.V_max == 5.0
    # untouched fields keep their defaults
    assert p.L_p == default_params("rotpen").L_p

    with pytest.raises(ConfigError):
        params_from_mapping("rotpen", {"no_such_key": 1.0})
    with pytest.raises(ConfigError):
        params_from_mapping("rotpen", {"m_p": "not-a-number"})


@pytest.mark.parametrize("platform, name", [
    ("rotpen", "m_p"), ("rotpen", "f_p"), ("nxtway", "M"), ("nxtway", "f_w"),
])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_nonfinite_parameters_rejected(platform, name, value):
    with pytest.raises(ConfigError, match="not finite"):
        params_from_mapping(platform, {name: value})
    with pytest.raises(ValueError, match="must be finite"):
        dataclasses.replace(default_params(platform), **{name: float(value)})


def test_params_from_mapping_checks_derived_keys():
    # consistent derived values are accepted, inconsistent ones refused
    p = default_params("nxtway")
    ok = params_from_mapping("nxtway", {"J_w": p.J_w, "alpha": p.alpha})
    assert ok == p
    with pytest.raises(ConfigError):
        params_from_mapping("nxtway", {"J_w": 2 * p.J_w})
    with pytest.raises(ConfigError):
        params_from_mapping("rotpen", {"gamma": 1.0})


# ---------------------------------------------------------------------------
# dynamics matrices
# ---------------------------------------------------------------------------

def test_rotpen_matrix_entries_at_sample_state():
    p = default_params("rotpen")
    q2, q1d, q2d = 0.1, 0.2, -0.3
    out = eval_mcg(p, [0.7, q2, q1d, q2d])

    a = p.m_r * (p.L_r / 2) ** 2 + p.m_p * p.L_r ** 2 + p.J_r
    b = 0.5 * p.m_p * p.L_p * p.L_r
    c = p.m_p * (p.L_p / 2) ** 2 + p.J_p
    l2 = p.m_p * (p.L_p / 2) ** 2
    s, co = math.sin(q2), math.cos(q2)

    assert out.M[0, 0] == pytest.approx(p.gamma * (a + l2 * s * s), rel=1e-12)
    assert out.M[0, 1] == pytest.approx(-p.gamma * b * co, rel=1e-12)
    assert out.M[1, 0] == pytest.approx(-b * co, rel=1e-12)
    assert out.M[1, 1] == pytest.approx(c, rel=1e-12)

    assert out.C[0, 0] == pytest.approx(
        p.gamma * (2 * l2 * s * co * q2d + p.f_r) + p.K_m * p.K_g, rel=1e-12
    )
    assert out.C[0, 1] == pytest.approx(p.gamma * b * s * q2d, rel=1e-12)
    assert out.C[1, 0] == pytest.approx(-l2 * s * co * q1d, rel=1e-12)
    assert out.C[1, 1] == pytest.approx(p.f_p, rel=1e-12)

    assert out.G[0] == 0.0
    assert out.G[1] == pytest.approx(-0.5 * p.m_p * p.L_p * p.g * s, rel=1e-12)


def test_rotpen_gravity_at_right_angle():
    p = default_params("rotpen")
    out = eval_mcg(p, [0.0, math.pi / 2, 0.0, 0.0])
    assert out.G[1] == pytest.approx(-(p.L_p / 2) * p.m_p * p.g, rel=1e-12)


def test_nxtway_matrix_entries_at_sample_state():
    p = default_params("nxtway")
    q2, q1d, q2d = -0.2, 0.4, 0.1
    out = eval_mcg(p, [1.0, q2, q1d, q2d])

    n2Jm = p.eta ** 2 * p.J_m
    pp = 2 * p.m * p.R ** 2 + p.M * p.R ** 2 + 2 * p.J_w + 2 * n2Jm
    q0 = p.M * p.L * p.R * math.cos(q2) - 2 * n2Jm
    rr = p.M * p.L ** 2 + p.J_q2 + 2 * n2Jm

    assert out.M[0, 0] == pytest.approx(pp / p.alpha, rel=1e-12)
    assert out.M[0, 1] == pytest.approx(q0 / p.alpha, rel=1e-12)
    assert out.M[1, 0] == pytest.approx(-q0 / p.alpha, rel=1e-12)
    assert out.M[1, 1] == pytest.approx(-rr / p.alpha, rel=1e-12)

    assert out.C[0, 0] == pytest.approx(2 * (p.beta + p.f_w) / p.alpha, rel=1e-12)
    assert out.C[0, 1] == pytest.approx(
        (-2 * p.beta - p.M * p.L * p.R * q2d * math.sin(q2)) / p.alpha, rel=1e-12
    )
    assert out.C[1, 0] == pytest.approx(2 * p.beta / p.alpha, rel=1e-12)
    assert out.C[1, 1] == pytest.approx(-2 * p.beta / p.alpha, rel=1e-12)

    assert out.G[0] == 0.0
    assert out.G[1] == pytest.approx(p.M * p.g * p.L * math.sin(q2) / p.alpha, rel=1e-12)


def test_nxtway_gravity_vanishes_upright():
    p = default_params("nxtway")
    out = eval_mcg(p, [0.3, 0.0, 0.5, -0.5])
    np.testing.assert_allclose(out.G, [0.0, 0.0], atol=0.0)


def test_eval_mcg_rejects_nonfinite_state():
    p = default_params("rotpen")
    with pytest.raises(ValueError):
        eval_mcg(p, [0.0, math.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        forward_dynamics(p, [0.0, 0.0, math.inf, 0.0], 0.0)


def test_mass_matrix_invertible_over_full_pitch_range():
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        for q2 in np.arange(-math.pi, math.pi, 1e-3):
            M = eval_mcg(p, [0.0, q2, 0.0, 0.0]).M
            assert abs(np.linalg.det(M)) > 1e-12


# ---------------------------------------------------------------------------
# forward dynamics
# ---------------------------------------------------------------------------

def test_equilibrium_is_exact():
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        qdd = forward_dynamics(p, [0.0, 0.0, 0.0, 0.0], 0.0)
        np.testing.assert_allclose(qdd, [0.0, 0.0], atol=0.0)


def test_forward_dynamics_linear_in_voltage():
    rng = np.random.default_rng(7)
    for platform in ("rotpen", "nxtway"):
        p = default_params(platform)
        x = rng.normal(scale=0.3, size=4)
        base = forward_dynamics(p, x, 0.0)
        f1 = forward_dynamics(p, x, 1.3) - base
        f2 = forward_dynamics(p, x, -2.1) - base
        both = forward_dynamics(p, x, 1.3 - 2.1) - base
        np.testing.assert_allclose(both, f1 + f2, atol=1e-12)


def test_nxtway_pole_falls_from_small_tilt():
    p = default_params("nxtway")
    qdd = forward_dynamics(p, [0.0, 0.05, 0.0, 0.0], 0.0)
    assert qdd[1] > 0.0


def test_nxtway_motor_voltages_enter_as_sum():
    p = default_params("nxtway")
    x = [0.1, -0.05, 0.2, 0.3]
    np.testing.assert_allclose(
        forward_dynamics(p, x, (2.0, 4.0)),
        forward_dynamics(p, x, (3.0, 3.0)),
        rtol=1e-14,
    )
    # a scalar drives both motors with the same voltage
    np.testing.assert_allclose(
        forward_dynamics(p, x, 3.0),
        forward_dynamics(p, x, (3.0, 3.0)),
        rtol=1e-14,
    )


def test_rotpen_forward_dynamics_matches_lagrangian_oracle():
    p = default_params("rotpen")
    f1, f2 = _rotpen_oracle(p)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q1, q2, q1d, q2d = rng.normal(scale=0.8, size=4)
        v = rng.normal(scale=3.0)
        want = np.array([f1(q1, q2, q1d, q2d, v), f2(q1, q2, q1d, q2d, v)])
        got = forward_dynamics(p, [q1, q2, q1d, q2d], v)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


def test_nxtway_forward_dynamics_matches_lagrangian_oracle():
    p = default_params("nxtway")
    f1, f2 = _nxtway_oracle(p)
    rng = np.random.default_rng(21)
    for _ in range(20):
        q1, q2, q1d, q2d = rng.normal(scale=0.8, size=4)
        vl, vr = rng.normal(scale=3.0, size=2)
        want = np.array([f1(q1, q2, q1d, q2d, vl + vr), f2(q1, q2, q1d, q2d, vl + vr)])
        got = forward_dynamics(p, [q1, q2, q1d, q2d], (vl, vr))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


def test_forward_dynamics_consistent_with_eval_mcg():
    # M*qdd + C*qd + G must reproduce the applied voltage vector
    rng = np.random.default_rng(3)
    p = default_params("rotpen")
    x = rng.normal(scale=0.5, size=4)
    qdd = forward_dynamics(p, x, 2.5)
    m = eval_mcg(p, x)
    resid = m.M @ qdd + m.C @ x[2:] + m.G - np.array([2.5, 0.0])
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)

    p = default_params("nxtway")
    x = rng.normal(scale=0.5, size=4)
    qdd = forward_dynamics(p, x, (1.0, 2.0))
    m = eval_mcg(p, x)
    resid = m.M @ qdd + m.C @ x[2:] + m.G - np.array([3.0, 3.0])
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)


def test_scalar_rhs_matches_vector_dynamics():
    # the integration kernel against the eval_mcg/forward_dynamics reference,
    # on the factory parameters and on sets with every field scaled by 0.8..1.2
    rng = np.random.default_rng(77)
    for platform in ("rotpen", "nxtway"):
        base = default_params(platform)
        param_sets = [base]
        for _ in range(4):
            param_sets.append(params_from_mapping(platform, {
                f.name: getattr(base, f.name) * rng.uniform(0.8, 1.2)
                for f in dataclasses.fields(base)}))
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
                want = forward_dynamics(params, x, v)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# mechanical energy
# ---------------------------------------------------------------------------

def _rk4_roll(p, x0, dt, steps, v=0.0):
    x = np.asarray(x0, dtype=float)

    def f(state):
        qdd = forward_dynamics(p, state, v)
        return np.concatenate([state[2:], qdd])

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
