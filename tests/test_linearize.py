"""Tests for state-space construction and zero-order-hold discretization.

The discretization check uses an independent scaled-and-squared Taylor
series for the matrix exponential, so the production path (which may use a
library routine) is validated against plain arithmetic.
"""

import math
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from pendulum_ctl import linearize
from pendulum_ctl.linearize import (
    StateSpace,
    closed_form,
    discretize_zoh,
    jacobian_linearize,
    load_statespace,
    nxtway_statespace_closed_form,
    rotpen_statespace_closed_form,
    save_statespace,
)
from pendulum_ctl.plants import default_params, params_from_mapping, scalar_rhs
from test_plants import _oracle_accelerations

PERTURBED = {"rotpen": ("m_p", "L_p", "f_p", "J_r"), "nxtway": ("M", "L", "f_m", "J_m")}


def _series_expm(M, terms=40):
    """Scaled-and-squared truncated Taylor series, independent of scipy."""
    M = np.asarray(M, dtype=float)
    scale = max(0, int(math.ceil(math.log2(max(1e-16, np.abs(M).sum(axis=1).max())))) + 1)
    X = M / (2 ** scale)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ X / k
        out = out + term
    for _ in range(scale):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# StateSpace container
# ---------------------------------------------------------------------------

def test_statespace_validates_dimensions_and_kind():
    A = np.zeros((2, 2))
    B = np.zeros((2, 1))
    ss = StateSpace(A=A, B=B)
    assert ss.Ts is None

    with pytest.raises(ValueError):
        StateSpace(A=np.zeros((2, 3)), B=B)
    with pytest.raises(ValueError):
        StateSpace(A=A, B=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        StateSpace(A=A, B=B, Ts=-0.1)


def test_statespace_kind_follows_ts_and_ts_must_be_positive_and_finite():
    A, B = np.zeros((2, 2)), np.zeros((2, 1))
    assert StateSpace(A=A, B=B).kind == "continuous"
    assert StateSpace(A=A, B=B, Ts=0.002).kind == "discrete"
    for Ts in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="Ts must be positive and finite"):
            StateSpace(A=A, B=B, Ts=Ts)
    # kind is read from Ts, never given
    with pytest.raises(TypeError):
        StateSpace(A=A, B=B, kind="discrete")


# ---------------------------------------------------------------------------
# numeric Jacobian
# ---------------------------------------------------------------------------

def test_jacobian_kinematic_rows_are_exact():
    for platform in ("rotpen", "nxtway"):
        for params in [default_params(platform), *_perturbed_sets(platform, 2, 31)]:
            ss = jacobian_linearize(params)
            np.testing.assert_array_equal(ss.A[0], [0.0, 0.0, 1.0, 0.0])
            np.testing.assert_array_equal(ss.A[1], [0.0, 0.0, 0.0, 1.0])
            np.testing.assert_array_equal(ss.B[:, 0], ss.B[:, -1])  # both motors alike


def _oracle_jacobian(params):
    """Central differences of step 1e-6 at the upright origin, over z = (x, u),
    of the hand-written terms solved with numpy.

    Each motor takes the mean of the input voltages, as in the model.
    """
    eps = 1e-6
    z0 = np.zeros(6 if params.platform == "nxtway" else 5)

    def f(z):
        return np.concatenate([z[2:4], _oracle_accelerations(params, z[:4], np.mean(z[4:]))])

    J = np.column_stack([(f(z0 + step) - f(z0 - step)) / (2 * eps)
                         for step in eps * np.eye(z0.size)])
    return J[:, :4], J[:, 4:]


def _perturbed_sets(platform, count, seed):
    rng = np.random.default_rng(seed)
    base = default_params(platform)
    return [params_from_mapping(platform, {k: getattr(base, k) * f for k, f in
                                           zip(PERTURBED[platform], rng.uniform(0.8, 1.2, 4))})
            for _ in range(count)]


@pytest.mark.parametrize("platform", ["rotpen", "nxtway"])
def test_jacobian_matches_central_differences_of_the_oracle(platform):
    # at the upright origin, where the Jacobian is taken, on the shipped and
    # on perturbed parameter sets; off the origin the kernel it differentiates
    # is checked bit for bit against _oracle_terms in test_plants
    for params in [default_params(platform), *_perturbed_sets(platform, 4, 29)]:
        ss = jacobian_linearize(params)
        A, B = _oracle_jacobian(params)
        for got, want in ((ss.A, A), (ss.B, B)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), \
                (params, got - want)


def test_jacobian_shapes_and_labels():
    ss = jacobian_linearize(default_params("rotpen"))
    assert ss.A.shape == (4, 4) and ss.B.shape == (4, 1)
    assert ss.kind == "continuous" and ss.Ts is None

    ss = jacobian_linearize(default_params("nxtway"))
    assert ss.B.shape == (4, 2)


# ---------------------------------------------------------------------------
# closed forms vs numeric Jacobian
# ---------------------------------------------------------------------------

def test_rotpen_closed_form_structure():
    p = default_params("rotpen")
    ss = rotpen_statespace_closed_form(p)

    for i, j in ((0, 0), (0, 1), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (3, 0)):
        assert ss.A[i, j] == 0.0
    assert ss.A[0, 2] == 1.0 and ss.A[1, 3] == 1.0
    assert ss.B[0, 0] == 0.0 and ss.B[1, 0] == 0.0

    # spot values recomputed from the defining expressions
    a = p.m_r * (p.L_r / 2) ** 2 + p.m_p * p.L_r ** 2 + p.J_r
    b = 0.5 * p.m_p * p.L_p * p.L_r
    c = p.m_p * (p.L_p / 2) ** 2 + p.J_p
    delta = p.gamma * (a * c - b * b)
    assert ss.B[3, 0] == pytest.approx(p.m_p * p.L_p * p.L_r / (2 * delta), rel=1e-12)
    assert ss.B[2, 0] == pytest.approx(c / delta, rel=1e-12)
    assert ss.A[3, 1] == pytest.approx(0.5 * p.L_p * p.m_p * p.g * p.gamma * a / delta, rel=1e-12)


def test_nxtway_closed_form_structure():
    p = default_params("nxtway")
    ss = nxtway_statespace_closed_form(p)

    assert ss.A[0, 2] == 1.0 and ss.A[1, 3] == 1.0
    np.testing.assert_array_equal(ss.B[:, 0], ss.B[:, 1])
    assert ss.B.shape == (4, 2)

    n2Jm = p.eta ** 2 * p.J_m
    pw = 2 * p.m * p.R ** 2 + p.M * p.R ** 2 + 2 * p.J_w + 2 * n2Jm
    q0 = p.M * p.L * p.R - 2 * n2Jm
    rb = p.M * p.L ** 2 + p.J_q2 + 2 * n2Jm
    delta = pw * rb - q0 * q0
    a42 = p.M * p.g * p.L * pw / delta
    assert a42 > 0  # upright instability
    assert ss.A[3, 1] == pytest.approx(a42, rel=1e-12)
    assert ss.A[2, 1] == pytest.approx(-p.g * p.M * p.L * q0 / delta, rel=1e-12)


def test_closed_forms_match_numeric_jacobian():
    for platform, builder in (("rotpen", rotpen_statespace_closed_form),
                              ("nxtway", nxtway_statespace_closed_form)):
        p = default_params(platform)
        cf = builder(p)
        num = jacobian_linearize(p)
        np.testing.assert_allclose(num.A, cf.A, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(num.B, cf.B, rtol=1e-6, atol=1e-8)


def test_small_signal_dynamics_match_linear_prediction():
    p = default_params("rotpen")
    ss = rotpen_statespace_closed_form(p)
    x = np.array([1e-4, -7e-5, 5e-5, 9e-5])
    v = 1e-4
    qdd = scalar_rhs(p)(x[1], x[2], x[3], v)
    pred = (ss.A @ x + ss.B[:, 0] * v)[2:]
    np.testing.assert_allclose(qdd, pred, rtol=1e-6, atol=1e-12)


def test_open_loop_unstable_both_platforms():
    for builder in (rotpen_statespace_closed_form, nxtway_statespace_closed_form):
        ss = builder(default_params("rotpen" if builder is rotpen_statespace_closed_form else "nxtway"))
        assert np.linalg.eigvals(ss.A).real.max() > 0.0


# ---------------------------------------------------------------------------
# zero-order-hold discretization
# ---------------------------------------------------------------------------

def _zoh_block(ss, Ts):
    """The augmented [[A, B], [0, 0]] Ts that discretize_zoh exponentiates."""
    n, m = ss.n_states, ss.n_inputs
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = ss.A * Ts
    aug[:n, n:] = ss.B * Ts
    return aug


def test_zoh_scalar_integrator():
    ss = StateSpace(A=np.array([[0.0]]), B=np.array([[1.0]]))
    d = discretize_zoh(ss, 0.1)
    assert d.kind == "discrete" and d.Ts == 0.1
    np.testing.assert_allclose(d.A, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(d.B, [[0.1]], rtol=1e-14)


def test_zoh_double_integrator_analytic():
    ss = StateSpace(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                    B=np.array([[0.0], [1.0]]))
    Ts = 0.05
    d = discretize_zoh(ss, Ts)
    np.testing.assert_allclose(d.A, [[1.0, Ts], [0.0, 1.0]], rtol=1e-14)
    np.testing.assert_allclose(d.B, [[Ts ** 2 / 2], [Ts]], rtol=1e-12)


def test_zoh_matches_series_oracle():
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    Ts = 0.002
    d = discretize_zoh(ss, Ts)
    E = _series_expm(_zoh_block(ss, Ts))
    np.testing.assert_allclose(d.A, E[:4, :4], rtol=0, atol=1e-9)
    np.testing.assert_allclose(d.B, E[:4, 4:], rtol=0, atol=1e-9)


def test_zoh_semigroup_property():
    for platform in ("rotpen", "nxtway"):
        ss = jacobian_linearize(default_params(platform))
        d1 = discretize_zoh(ss, 0.002)
        d2 = discretize_zoh(ss, 0.003)
        d3 = discretize_zoh(ss, 0.005)
        np.testing.assert_allclose(d3.A, d2.A @ d1.A, rtol=0, atol=1e-9)


def test_zoh_keeps_output_matrices_and_rejects_bad_ts():
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    d = discretize_zoh(ss, 0.002)
    assert d.kind == "discrete" and d.Ts == 0.002
    for Ts in (0.0, -0.002, math.inf, math.nan):
        with pytest.raises(ValueError, match="Ts"):
            discretize_zoh(ss, Ts)


def test_zoh_refuses_an_overflowing_exponential_without_warnings():
    ss = rotpen_statespace_closed_form(default_params("rotpen"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Ts = 1000.0"):
            discretize_zoh(ss, 1e3)


def test_zoh_expm_equals_scipy_expm_bit_for_bit(monkeypatch):
    # full ZOH blocks of seeded +-20% plants of both platforms, Ts from
    # 10 us to 1 s, take the direct kernels where scipy_kernels found them;
    # triangular and diagonal inputs go to scipy.linalg.expm itself
    expm = scipy.linalg.expm
    routed = []
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: routed.append(a) or expm(a))
    rng = np.random.default_rng(33)
    for platform in ("rotpen", "nxtway"):
        for params in [default_params(platform), *_perturbed_sets(platform, 5, 33)]:
            ss = closed_form(params)
            for Ts in 10.0 ** rng.uniform(-5, 0, 17):
                aug = _zoh_block(ss, Ts)
                want = expm(aug)
                assert linearize._expm(aug).tobytes() == want.tobytes(), (platform, Ts)
                d = discretize_zoh(ss, Ts)
                assert (d.A.tobytes(), d.B.tobytes()) == (
                    want[:4, :4].tobytes(), want[:4, 4:].tobytes())
    assert len(routed) == (0 if linearize.scipy_kernels()[1] is not None else 408)

    routed.clear()
    special = [np.array([[0.0, 0.05], [0.0, 0.0]]),  # upper triangular, the double integrator
               np.triu(rng.normal(size=(5, 5))) * 8.0,
               np.tril(rng.normal(size=(5, 5))) * 8.0,
               np.diag(rng.normal(size=5)),
               np.array([[0.3]])]
    for a in special:
        assert linearize._expm(a).tobytes() == expm(a).tobytes()
    assert len(routed) == len(special)


def test_kernels_fall_back_to_scipy_linalg_with_bit_equal_designs():
    # a fresh process whose by-file loads fail takes scipy.linalg's modules
    # and synthesizes the same designs, bit for bit, as this one
    code = ("import importlib.util, pickle, sys\n"
            "def refuse(*args, **kwargs):\n"
            "    raise OSError('by-file load refused')\n"
            "importlib.util.spec_from_file_location = refuse\n"
            "from pendulum_ctl import linearize, synthesis\n"
            "from pendulum_ctl.plants import default_params\n"
            "designs = [f(default_params(p)) for p in ('rotpen', 'nxtway')\n"
            "           for f in (synthesis.nominal_lqr, synthesis.nominal_smc)]\n"
            "import scipy.linalg\n"
            "lapack, pade, source = linearize.scipy_kernels()\n"
            "assert lapack is scipy.linalg.lapack and pade is None\n"
            "print(source)\n"
            "sys.stdout.flush()\n"
            "sys.stdout.buffer.write(pickle.dumps(designs))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr.decode()
    source, _, designs = out.stdout.partition(b"\n")
    assert source.decode() == "scipy.linalg (OSError: by-file load refused)"
    from pendulum_ctl.synthesis import nominal_lqr, nominal_smc
    here = [f(default_params(p)) for p in ("rotpen", "nxtway") for f in (nominal_lqr, nominal_smc)]
    assert designs == pickle.dumps(here)


# ---------------------------------------------------------------------------
# plain-text export
# ---------------------------------------------------------------------------

def test_statespace_save_load_roundtrip(tmp_path):
    ss = nxtway_statespace_closed_form(default_params("nxtway"))
    path = tmp_path / "nxtway_ss.txt"
    save_statespace(ss, path)
    back = load_statespace(path)
    np.testing.assert_array_equal(back.A, ss.A)  # exact round trip
    np.testing.assert_array_equal(back.B, ss.B)
    assert back.kind == ss.kind and back.Ts == ss.Ts


def test_statespace_file_with_a_labels_line_loads_whatever_its_count(tmp_path):
    # older files name the states on a labels line; no computation read it
    ss = discretize_zoh(rotpen_statespace_closed_form(default_params("rotpen")), 0.002)
    path = tmp_path / "ss.txt"
    save_statespace(ss, path)
    text = path.read_text()
    assert "labels" not in text
    for labels in ("q1,q2,q1dot,q2dot", "a,b,c", "x1", ""):
        path.write_text(text.replace("Ts = ", f"labels = {labels}\nTs = "))
        back = load_statespace(path)
        assert (back.A.tobytes(), back.B.tobytes(), back.Ts) == (
            ss.A.tobytes(), ss.B.tobytes(), ss.Ts)


# a discretized double integrator (Ts = 0.05) as the previous file format
# wrote it, with a kind line and the identity C and zero D blocks
_OLD_FORMAT_STATESPACE = """# pendulum-ctl state-space model
kind = discrete
Ts = 0.05
labels = x1,x2
[A] rows=2 cols=2
1.0 0.05
0.0 1.0
[B] rows=2 cols=1
0.0012500000000000002
0.05
[C] rows=2 cols=2
1.0 0.0
0.0 1.0
[D] rows=2 cols=1
0.0
0.0
"""


def test_old_format_statespace_file_loads_to_an_equal_model(tmp_path):
    ss = discretize_zoh(StateSpace(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]]), 0.05)
    old = tmp_path / "old.txt"
    old.write_text(_OLD_FORMAT_STATESPACE)
    back = load_statespace(old)
    assert (back.A.tobytes(), back.B.tobytes()) == (ss.A.tobytes(), ss.B.tobytes())
    assert (back.kind, back.Ts) == ("discrete", 0.05)
    # the file written now is the old one without the kind and labels lines
    # and C and D
    new = tmp_path / "new.txt"
    save_statespace(ss, new)
    kept = _OLD_FORMAT_STATESPACE.split("[C]")[0]
    for line in ("kind = discrete\n", "labels = x1,x2\n"):
        kept = kept.replace(line, "")
    assert new.read_text() == kept


def test_discrete_statespace_roundtrip_keeps_ts(tmp_path):
    ss = discretize_zoh(rotpen_statespace_closed_form(default_params("rotpen")), 0.002)
    path = tmp_path / "d.txt"
    save_statespace(ss, path)
    back = load_statespace(path)
    assert back.kind == "discrete" and back.Ts == 0.002
    np.testing.assert_array_equal(back.A, ss.A)
