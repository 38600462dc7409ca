"""Acceptance gate: one test per shipped quality criterion.

Each test records a single PASS or FAIL verdict line, printed in the
terminal summary after the run, then asserts every clause at its stated
tolerance. A clause the toolkit cannot meet stays a plain assertion
failure; nothing here is loosened to go green.
"""

import dataclasses
import math
import time

import numpy as np

from pendulum_ctl import cli
from pendulum_ctl.linearize import (
    discretize_zoh,
    jacobian_linearize,
    nxtway_statespace_closed_form,
    rotpen_statespace_closed_form,
)
from pendulum_ctl.metrics import compute_metrics
from pendulum_ctl.plants import (
    RotPenParams,
    default_params,
    mechanical_energy,
    params_from_mapping,
)
from pendulum_ctl.simulate import (
    SimConfig,
    simulate,
    standard_pulse_train,
)
from pendulum_ctl.synthesis import (
    DEFAULT_ROTPEN_Q,
    DEFAULT_ROTPEN_R,
    REFERENCE_LQR_GAINS,
    LqrDesign,
    care_residual,
    design_smc,
    lqr_gain,
    nxtway_integral_lqr,
    reference_lqr_design,
    solve_care,
)


def _verdict(log, number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    log(line)


def _random_stabilizable(rng, n, m):
    while True:
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            return A, B


def test_criterion_1_riccati_correctness(acceptance_log):
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    hurwitz = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        A, B = _random_stabilizable(rng, n, m)
        Q, R = np.eye(n), np.eye(m)
        P = solve_care(A, B, Q, R)
        worst = max(worst,
                    care_residual(A, B, Q, R, P) / (1.0 + np.linalg.norm(P)))
        K = np.linalg.solve(R, B.T @ P)
        hurwitz = hurwitz and np.linalg.eigvals(A - B @ K).real.max() < 0.0

    rot = rotpen_statespace_closed_form(default_params("rotpen"))
    P = solve_care(rot.A, rot.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R)
    worst = max(worst, care_residual(rot.A, rot.B, DEFAULT_ROTPEN_Q,
                                     DEFAULT_ROTPEN_R, P)
                / (1.0 + np.linalg.norm(P)))
    K = np.linalg.solve(DEFAULT_ROTPEN_R, rot.B.T @ P)
    hurwitz = hurwitz and np.linalg.eigvals(rot.A - rot.B @ K).real.max() < 0.0

    nxt = nxtway_statespace_closed_form(default_params("nxtway"))
    design = nxtway_integral_lqr(nxt)
    worst = max(worst, design.residual / (1.0 + np.linalg.norm(design.P)))
    A5 = np.zeros((5, 5))
    A5[:4, :4] = nxt.A
    A5[4, 0] = 1.0
    B5 = np.vstack([nxt.B, np.zeros((1, 2))])
    K5 = np.tile(np.hstack([design.K, [[design.Ki]]]), (2, 1))
    hurwitz = hurwitz and np.linalg.eigvals(A5 - B5 @ K5).real.max() < 0.0

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and hurwitz and elapsed < 10.0
    _verdict(acceptance_log, 1, "riccati correctness", ok,
             f"worst scaled residual {worst:.2e}, all Hurwitz {hurwitz}, "
             f"{elapsed:.2f} s")
    assert worst < 1e-8
    assert hurwitz
    assert elapsed < 10.0


def test_criterion_2_recorded_gain_reproduction(acceptance_log):
    rot = rotpen_statespace_closed_form(default_params("rotpen"))
    ours_rot = lqr_gain(rot.A, rot.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R).K[0]
    ref_rot = np.array(REFERENCE_LQR_GAINS["rotpen"]["K"])
    dev_rot = np.abs(ours_rot - ref_rot) / np.abs(ref_rot)
    k1_err = abs(abs(ours_rot[0]) - math.sqrt(5.0))

    nxt = nxtway_statespace_closed_form(default_params("nxtway"))
    design = nxtway_integral_lqr(nxt)
    ours_nxt = np.append(design.K[0], design.Ki)
    fix = REFERENCE_LQR_GAINS["nxtway"]
    ref_nxt = np.append(fix["K"], fix["Ki"])
    dev_nxt = np.abs(ours_nxt - ref_nxt) / np.abs(ref_nxt)

    # the stated cause: the recorded rotpen gains are this LQR on the model
    # without the voltage referral gamma = R_m / (K_t K_g eta_g eta_m)
    p = default_params("rotpen")
    unit = rotpen_statespace_closed_form(params_from_mapping(
        "rotpen", {"K_t": p.R_m / (p.K_g * p.eta_g * p.eta_m)}))
    ours_unit = lqr_gain(unit.A, unit.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R).K[0]
    dev_unit = np.abs(ours_unit - ref_rot) / np.abs(ref_rot)

    ok = k1_err < 1e-6 and dev_rot.max() <= 0.15 and dev_nxt.max() <= 0.25
    _verdict(acceptance_log, 2, "recorded gain reproduction", ok,
             f"|K1|-sqrt(5) = {k1_err:.1e}; rotpen deviations "
             + "/".join(f"{d:.1%}" for d in dev_rot) + " vs 15%; nxtway "
             + "/".join(f"{d:.1%}" for d in dev_nxt) + " vs 25%; cause: rotpen "
             + "/".join(f"{d:.1%}" for d in dev_unit)
             + " on the gamma = 1 model, K_t = R_m / (K_g eta_g eta_m)")
    assert k1_err < 1e-6
    assert dev_nxt.max() <= 0.25
    assert dev_rot.max() <= 0.15


def test_criterion_3_linearization_cross_check(acceptance_log):
    agree = True
    unstable = True
    for platform, closed_form in (("rotpen", rotpen_statespace_closed_form),
                                  ("nxtway", nxtway_statespace_closed_form)):
        params = default_params(platform)
        cf = closed_form(params)
        num = jacobian_linearize(params)
        agree = agree and np.allclose(num.A, cf.A, rtol=1e-6, atol=1e-12)
        agree = agree and np.allclose(num.B, cf.B, rtol=1e-6, atol=1e-12)
        unstable = unstable and np.linalg.eigvals(cf.A).real.max() > 0.0
    ok = agree and unstable
    _verdict(acceptance_log, 3, "linearization cross-check", ok,
             f"numeric matches closed form {agree}, "
             f"open loops unstable {unstable}")
    assert agree
    assert unstable


def test_criterion_4_pulse_stabilization_experiment(acceptance_log):
    params = default_params("rotpen")
    pulse = standard_pulse_train(params.V_max)
    cfg = SimConfig(duration=120.0, controller_Ts=0.002, disturbance=pulse)
    t0 = time.perf_counter()
    trace = simulate(params, reference_lqr_design("rotpen"), cfg)
    wall = time.perf_counter() - t0

    # after every pulse edge the pole must be back inside the band within
    # 3 s and stay there until the next edge; partial end windows skipped
    period = 1.0 / pulse.frequency
    edges = [pulse.start_time, pulse.start_time + pulse.duty * period,
             pulse.start_time + period]
    reentry = not trace.diverged
    for edge, following in zip(edges, edges[1:] + [cfg.duration]):
        lo, hi = edge + 3.0, following
        window = (trace.t >= lo) & (trace.t < hi)
        if hi <= lo or not np.any(window):
            continue
        reentry = reentry and np.abs(trace.x[window, 1]).max() <= 0.02

    u_max = float(np.abs(trace.u_applied).max())
    # the stated cause: cancelling the 3 V pulse drives u toward -3 V, the
    # bound itself, so |u| passes 3 V on much of each pulse
    over = float(np.mean(np.abs(trace.u_applied[trace.t > pulse.start_time]) > 3.0))
    ok = reentry and u_max < 3.0 and wall < 5.0
    _verdict(acceptance_log, 4, "pulse stabilization experiment", ok,
             f"re-entry within 3 s {reentry}, max|u| {u_max:.3f} V vs 3 V, "
             f"wall {wall:.2f} s vs 5 s; cause: |u| > 3 V on {over:.1%} of "
             f"the ticks after {pulse.start_time:g} s")
    assert not trace.diverged
    assert reentry
    assert wall < 5.0
    assert u_max < 3.0


def test_criterion_5_smc_reaching_law(acceptance_log):
    ss = discretize_zoh(nxtway_statespace_closed_form(default_params("nxtway")),
                        0.004)
    design = design_smc(ss, alpha=100.0, k=5e-7)
    conforming = not design.k_exceeds_bound
    surface_ok = bool(np.all(np.abs(design.surface_eigs) < 1.0))

    Bd = ss.B.sum(axis=1)
    rate = ss.Ts * design.alpha / math.sqrt(2.0)
    x = np.array([0.1, 0.05, 0.0, 0.0])
    holds = True
    checked = 0
    for _ in range(500):
        s = float(design.L @ x)  # u = -Keq x - k sign(s) on the sampled model
        u = -float(design.Keq @ x) - design.k * float(np.sign(s))
        x = ss.A @ x + Bd * u
        s_next = float(design.L @ x)
        if abs(s) > 1e-6:
            delta_v = 0.5 * (s_next ** 2 - s ** 2)
            holds = holds and delta_v <= -rate * abs(s) + 1e-12
            checked += 1

    ok = conforming and surface_ok and holds and checked >= 1
    _verdict(acceptance_log, 5, "smc reaching law", ok,
             f"reaching decrement held on {checked} checked steps, "
             f"max surface |eig| {np.max(np.abs(design.surface_eigs)):.4f}")
    assert conforming
    assert surface_ok
    assert holds
    assert checked >= 1


def test_criterion_6_lqr_smc_ordering(acceptance_log):
    results = {}
    for platform, closed_form, Ts in (
            ("rotpen", rotpen_statespace_closed_form, 0.002),
            ("nxtway", nxtway_statespace_closed_form, 0.004)):
        params = default_params(platform)
        ss = closed_form(params)
        if platform == "rotpen":
            lqr = lqr_gain(ss.A, ss.B, DEFAULT_ROTPEN_Q, DEFAULT_ROTPEN_R)
        else:
            lqr = nxtway_integral_lqr(ss)
        smc = design_smc(discretize_zoh(ss, Ts), alpha=100.0)
        cfg = SimConfig(duration=10.0, controller_Ts=Ts,
                        x0=(0.0, 0.05, 0.0, 0.0))
        m_lqr = compute_metrics(simulate(params, lqr, cfg), V_max=params.V_max)
        m_smc = compute_metrics(simulate(params, smc, cfg), V_max=params.V_max)
        results[platform] = (m_lqr, m_smc)

    ok = all(lo.u_pct_max < hi.u_pct_max
             and lo.stabilization_quality == "smooth"
             and hi.stabilization_quality == "scattering"
             for lo, hi in results.values())
    detail = "; ".join(
        f"{p}: lqr {lo.u_pct_max:.1f}% {lo.stabilization_quality} vs "
        f"smc {hi.u_pct_max:.1f}% {hi.stabilization_quality}"
        for p, (lo, hi) in results.items())
    _verdict(acceptance_log, 6, "lqr vs smc ordering", ok, detail)
    for m_lqr, m_smc in results.values():
        assert m_lqr.u_pct_max < m_smc.u_pct_max
        assert m_lqr.stabilization_quality == "smooth"
        assert m_smc.stabilization_quality == "scattering"


def _conservative(params):
    if isinstance(params, RotPenParams):
        return dataclasses.replace(params, f_p=0.0, f_r=0.0, K_m=0.0)
    return dataclasses.replace(params, f_m=0.0, f_w=0.0, K_b=0.0)


def test_criterion_7_physics_sanity(acceptance_log):
    quiet = LqrDesign(Q=np.eye(4), R=np.eye(1), P=None, K=np.zeros((1, 4)),
                      residual=float("nan"))
    worst_drift = 0.0
    clean = True
    for platform in ("rotpen", "nxtway"):
        params = _conservative(default_params(platform))
        cfg = SimConfig(duration=10.0, controller_Ts=0.004, plant_dt=0.001,
                        x0=(0.0, 2.6, 0.0, 0.0))
        trace = simulate(params, quiet, cfg)
        e0 = mechanical_energy(params, trace.x[0])
        clean = clean and not trace.diverged and e0 > 0.0
        drift = max(abs(mechanical_energy(params, row) - e0)
                    for row in trace.x) / abs(e0)
        worst_drift = max(worst_drift, drift)

    params = default_params("rotpen")
    finals = []
    for dt in (0.01, 0.005, 0.0025):
        cfg = SimConfig(duration=1.0, controller_Ts=0.05, plant_dt=dt,
                        x0=(0.0, 2.6, 0.0, 0.0))
        finals.append(simulate(params, quiet, cfg).x[-1])
    e_coarse = np.linalg.norm(finals[0] - finals[1])
    e_fine = np.linalg.norm(finals[1] - finals[2])
    ratio = e_coarse / e_fine

    ok = clean and worst_drift < 1e-6 and 10.0 < ratio < 24.0
    _verdict(acceptance_log, 7, "physics sanity", ok,
             f"energy drift {worst_drift:.2e} vs 1e-6, "
             f"step-halving ratio {ratio:.1f} vs order-4 target 16")
    assert clean
    assert worst_drift < 1e-6
    assert 10.0 < ratio < 24.0


def test_criterion_8_deterministic_reruns(acceptance_log, tmp_path):
    argv = ["simulate", "--platform", "nxtway", "--controller", "smc",
            "--duration", "1.5", "--x0", "0,0.05,0,0",
            "--disturbance", "pulse", "--dist-amplitude", "5",
            "--dist-frequency", "0.2", "--dist-start", "1.0"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code_a = cli.run(argv + ["--trace", str(first),
                             "--metrics", str(tmp_path / "ma.csv")])
    code_b = cli.run(argv + ["--trace", str(second),
                             "--metrics", str(tmp_path / "mb.csv")])
    identical = (first.exists() and second.exists()
                 and first.read_bytes() == second.read_bytes())

    ok = identical and code_a == 0 and code_b == 0
    _verdict(acceptance_log, 8, "deterministic reruns", ok,
             f"two runs exited {code_a}/{code_b}, byte-identical {identical}")
    assert code_a == 0 and code_b == 0
    assert identical
