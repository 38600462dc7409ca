"""The benchmark's workloads: seeded inputs, set-up, timed operations, checks.

Each workload object is built from a seed and a size. Building it is the
set-up (input generation and any designs the operations share, plus one
short warm-up); ``run(i)`` is timed operation i and ``check(i, out)`` its
untimed output check, returning a problem string or None. Checks call no
layer function that a traced run wraps, so every span lies inside an
operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from pendulum_ctl import cli, linearize, metrics, plants, synthesis
from pendulum_ctl import simulate as sim

PLATFORMS = ("rotpen", "nxtway")
COMBOS = tuple((p, c) for p in PLATFORMS for c in ("lqr", "smc"))
# a mass, a length and a friction term that is non-zero at the defaults
# (the robot's f_w is 0, so scaling it would perturb nothing)
PERTURBED = {"rotpen": ("m_p", "L_p", "f_p"), "nxtway": ("M", "L", "f_m")}
SPREAD = 0.2
# solve_care refuses a residual above this share of 1 + ||P||
CARE_TOLERANCE = 1e-8
QUALITIES = ("smooth", "scattering", "diverged")
TRACE_COLUMNS = ["t", "q1", "q2", "q1dot", "q2dot", "u_cmd", "u_applied", "dist"]


def digest(values) -> str:
    """Short hash of a case's outputs, floats to nine significant digits."""
    parts = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            parts.append(format(float(v), ".9g"))
        else:
            parts.append(str(v))
    return hashlib.sha256(",".join(parts).encode()).hexdigest()[:16]


def _rng(seed: int, salt: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, index])


def _perturbation(rng: np.random.Generator, platform: str) -> dict:
    base = plants.default_params(platform)
    factors = rng.uniform(1.0 - SPREAD, 1.0 + SPREAD, len(PERTURBED[platform]))
    return {k: getattr(base, k) * f for k, f in zip(PERTURBED[platform], factors)}


def _closed_form(platform: str, params):
    if platform == "rotpen":
        return linearize.rotpen_statespace_closed_form(params)
    return linearize.nxtway_statespace_closed_form(params)


def nominal_design(platform: str, controller: str):
    """The design the CLI synthesizes for a platform at its default settings."""
    ss = _closed_form(platform, plants.default_params(platform))
    if controller == "smc":
        return synthesis.design_smc(
            linearize.discretize_zoh(ss, cli.DEFAULT_TS[platform]), alpha=100.0)
    if platform == "rotpen":
        return synthesis.lqr_gain(ss.A, ss.B, synthesis.DEFAULT_ROTPEN_Q,
                                  synthesis.DEFAULT_ROTPEN_R)
    return synthesis.nxtway_integral_lqr(ss)


def _require_full_size(size: str) -> None:
    if size != "full":
        raise ValueError("sweep references are recorded at full size; "
                         "tiny runs check a prefix of them")


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _metric_values(m) -> tuple:
    return (m.settle_time, m.u_inf, m.u_pct_max, m.pole_vel_max,
            m.stabilization_quality, m.scattering_score)


def _metrics_problem(m) -> str | None:
    if m.stabilization_quality not in QUALITIES:
        return f"unknown quality {m.stabilization_quality!r}"
    if (m.settle_time is None) != (m.stabilization_quality == "diverged"):
        return "settle time and divergence disagree"
    numbers = [m.u_inf, m.u_pct_max, m.pole_vel_max, m.scattering_score]
    if m.settle_time is not None:
        numbers.append(m.settle_time)
    if not _finite(*numbers):
        return "non-finite metric"
    return None


# ---------------------------------------------------------------------------
# paper_pulse: the paper's experiment through the command line
# ---------------------------------------------------------------------------

class PaperPulse:
    """Four in-process ``simulate`` commands, one per platform and controller.

    Each runs the paper's pulse train (--disturbance paper) with ideal
    measurement and the design the CLI synthesizes, and writes a trace CSV
    and a metrics CSV. The seed only orders the four commands.
    """

    name = "paper_pulse"
    DURATION = {"full": 120.0, "tiny": 2.0}
    SALT = 1

    def __init__(self, seed: int, size: str, workdir: str, references: dict):
        self.duration = self.DURATION[size]
        self.size = size
        order = np.random.default_rng([seed, self.SALT]).permutation(len(COMBOS))
        self.cases = [COMBOS[k] for k in order]
        self.paths = [(os.path.join(workdir, f"{p}_{c}_trace.csv"),
                       os.path.join(workdir, f"{p}_{c}_metrics.csv"))
                      for p, c in self.cases]
        self.argv = [["simulate", "--platform", p, "--controller", c,
                      "--disturbance", "paper", "--duration", repr(self.duration),
                      "--measurement", "ideal", "--trace", trace, "--metrics", mpath]
                     for (p, c), (trace, mpath) in zip(self.cases, self.paths)]
        self.v_max = {p: plants.default_params(p).V_max for p in PLATFORMS}
        self.references = references.get(self.name, {}).get(size, {})
        self.outputs: dict[str, dict] = {}
        self.ticks = 0
        self.n_ops = len(self.argv)
        self.size_info = {"runs": self.n_ops, "cases": 0,
                          "ticks": sum(round(self.duration / cli.DEFAULT_TS[p]) + 1
                                       for p, _ in self.cases)}
        self._warm_up(workdir)

    def _warm_up(self, workdir: str) -> None:
        for platform, controller in COMBOS:
            argv = ["simulate", "--platform", platform, "--controller", controller,
                    "--duration", "0.2",
                    "--trace", os.path.join(workdir, "warm_trace.csv"),
                    "--metrics", os.path.join(workdir, "warm_metrics.csv")]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(argv)

    def run(self, i: int):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            return cli.run(self.argv[i])

    def check(self, i: int, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        platform, controller = self.cases[i]
        key = f"{platform}-{controller}"
        trace_path, metrics_path = self.paths[i]
        with open(trace_path, "rb") as fh:
            trace_bytes = fh.read()
        with open(metrics_path, "rb") as fh:
            metrics_bytes = fh.read()
        found = {"trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
                 "metrics_sha256": hashlib.sha256(metrics_bytes).hexdigest()}
        if key not in self.outputs:
            problem = self._invariants(platform, controller, trace_bytes, metrics_bytes)
            if problem:
                return problem
            self.outputs[key] = found
        elif found != self.outputs[key]:
            return "outputs differ from the previous pass"
        expected = self.references.get(key)
        if expected is not None and expected != found:
            return "output digest differs from the recorded reference"
        return None

    def _invariants(self, platform, controller, trace_bytes, metrics_bytes):
        header, _, body = trace_bytes.partition(b"\n")
        columns = header.decode().split(",")
        extra = ["s"] if controller == "smc" else ([] if platform == "rotpen" else ["integ"])
        if columns != TRACE_COLUMNS + extra:
            return f"unexpected trace header {columns}"
        data = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        rows = round(self.duration / cli.DEFAULT_TS[platform]) + 1
        if data.shape[0] != rows:
            return f"trace has {data.shape[0]} rows, expected {rows}"
        self.ticks += rows
        if not np.all(np.isfinite(data)):
            return "non-finite trace entry"
        v_max = self.v_max[platform]
        amplitude = 0.5 * v_max  # the paper pulse train's amplitude
        applied, dist = data[:, 6], data[:, 7]
        if (np.abs(applied).max() > v_max
                or np.abs(applied + dist).max() > v_max + amplitude):
            return "applied voltage beyond the limit plus the pulse amplitude"
        table = list(csv.reader(io.StringIO(metrics_bytes.decode())))
        if len(table) != 2 or table[1][0] != f"{platform} {controller}":
            return "unexpected metrics CSV layout"
        row = dict(zip(table[0], table[1]))
        try:
            numbers = [float(row[k]) for k in ("settle_time", "u_inf", "u_pct_max",
                                               "pole_vel_max", "scattering_score")]
        except (KeyError, ValueError):
            return "metrics CSV field missing or not a number"
        if not _finite(*numbers) or row["stabilization_quality"] not in QUALITIES:
            return "metrics CSV holds a non-finite number or an unknown quality"
        return None

    def reference_record(self, references: dict, seed: int) -> dict:
        """This workload's entry of references.json with this run's digests."""
        return {**references.get(self.name, {}), self.size: dict(self.outputs)}


# ---------------------------------------------------------------------------
# mc_sweep: many short perturbed runs sharing four designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McRun:
    platform: str
    controller: str
    overrides: dict
    pole_angle: float
    amplitude: float


class McSweep:
    """Short closed-loop runs on perturbed plants, reduced to metrics only.

    Runs cycle through platform x controller; each scales three plant
    parameters by up to +-20% and draws its initial pole angle and pulse
    amplitude. Designs come from the nominal plants, once, during set-up.
    Velocities are reconstructed by the filtered-derivative measurement.
    Every run simulates the same number of controller ticks (5 s of the
    rotary pendulum at 2 ms, 10 s of the robot at 4 ms), so run latencies
    form one cluster and their median is not split between two.
    """

    name = "mc_sweep"
    RUNS = {"full": 128, "tiny": 8}
    DURATION = {"rotpen": 5.0, "nxtway": 10.0}
    PULSE = {"frequency": 0.5, "start_time": 1.0, "duty": 0.5}
    SALT = 2

    def __init__(self, seed: int, size: str, workdir: str, references: dict):
        self.designs = {combo: nominal_design(*combo) for combo in COMBOS}
        self.size = size
        self.inputs = []
        for i in range(self.RUNS[size]):
            rng = _rng(seed, self.SALT, i)
            platform, controller = COMBOS[i % len(COMBOS)]
            overrides = _perturbation(rng, platform)
            v_max = plants.default_params(platform).V_max
            self.inputs.append(McRun(platform, controller, overrides,
                                     float(rng.uniform(-0.05, 0.05)),
                                     float(rng.uniform(0.2, 0.6) * v_max)))
        ref = references.get(self.name, {})
        self.reference = ref if ref.get("seed") == seed else None
        self.digests: list[str | None] = [None] * len(self.inputs)
        self.diverged: set[int] = set()
        self.ticks = 0
        self.n_ops = len(self.inputs)
        self.size_info = {"runs": self.n_ops, "cases": 0,
                          "ticks": sum(round(self.DURATION[r.platform]
                                             / cli.DEFAULT_TS[r.platform]) + 1
                                       for r in self.inputs)}
        for i in range(len(COMBOS)):
            self.run(i)

    def run(self, i: int):
        r = self.inputs[i]
        params = plants.params_from_mapping(r.platform, r.overrides)
        cfg = sim.SimConfig(
            duration=self.DURATION[r.platform], controller_Ts=cli.DEFAULT_TS[r.platform],
            disturbance=sim.DisturbanceSpec(kind="pulse_train", amplitude=r.amplitude,
                                            **self.PULSE),
            x0=(0.0, r.pole_angle, 0.0, 0.0), measurement="filtered-derivative")
        trace = sim.simulate(params, self.designs[(r.platform, r.controller)], cfg)
        result = metrics.compute_metrics(trace, V_max=params.V_max,
                                         disturbance_onset=self.PULSE["start_time"])
        return trace, result

    def check(self, i: int, out) -> str | None:
        trace, m = out
        r = self.inputs[i]
        rows = round(self.DURATION[r.platform] / cli.DEFAULT_TS[r.platform]) + 1
        if trace.t.size != rows and not (trace.diverged and trace.t.size < rows):
            return f"trace has {trace.t.size} rows, expected {rows}"
        v_max = plants.default_params(r.platform).V_max
        if np.abs(trace.u_applied).max() > v_max:
            return "applied voltage beyond the limit"
        if not np.all((trace.d == 0.0) | (trace.d == r.amplitude)):
            return "disturbance other than the drawn pulse"
        if not trace.diverged and not np.all(np.isfinite(trace.x)):
            return "non-finite state in a run that did not diverge"
        problem = _metrics_problem(m)
        if problem:
            return problem
        found = digest((trace.t.size, trace.diverged) + _metric_values(m))
        if self.digests[i] is None:
            self.digests[i] = found
            self.ticks += trace.t.size
            if trace.diverged:
                self.diverged.add(i)
        elif self.digests[i] != found:
            return "run differs from the previous pass"
        if self.reference is not None:
            if trace.diverged != (i in self.reference["diverged"]):
                return "divergence differs from the recorded reference"
            if found != self.reference["cases"][i]:
                return "run differs from the recorded reference"
        return None

    def reference_record(self, references: dict, seed: int) -> dict:
        _require_full_size(self.size)
        return {"seed": seed, "cases": list(self.digests),
                "diverged": sorted(self.diverged)}


# ---------------------------------------------------------------------------
# design_sweep: linearization, synthesis and design-file round trips
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignCase:
    platform: str
    overrides: dict
    q: tuple
    r: tuple
    alpha: float


@dataclass(frozen=True)
class DesignOutput:
    closed: object
    numeric: object
    lqr: object
    stability: object
    smc: object
    lqr_loaded: object
    smc_loaded: object


def _augmented(ss, design):
    """Continuous loop with the wheel-angle integral as fifth state."""
    A5 = np.zeros((5, 5))
    A5[:4, :4] = ss.A
    A5[4, 0] = 1.0
    B5 = np.vstack([ss.B, np.zeros((1, ss.n_inputs))])
    return linearize.StateSpace(A=A5, B=B5), np.hstack([design.K, [[design.Ki]]])


def _same_design(a, b) -> bool:
    if type(a) is not type(b):
        return False
    for name in vars(a):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            if x is not y:
                return False
        elif not np.array_equal(np.asarray(x), np.asarray(y), equal_nan=True):
            return False
    return True


class DesignSweep:
    """Perturbed plants through linearization, synthesis and design files.

    Each case builds the closed-form model and the numeric Jacobian,
    synthesizes an LQR (rotpen) or integral LQR (nxtway) with seeded
    weights and reports its closed-loop stability, discretizes the model
    and designs the sliding-mode controller with a seeded reaching rate,
    then writes and reads back both designs. No case simulates.
    """

    name = "design_sweep"
    CASES = {"full": 800, "tiny": 16}
    SALT = 3

    def __init__(self, seed: int, size: str, workdir: str, references: dict):
        self.paths = (os.path.join(workdir, "case_lqr.txt"),
                      os.path.join(workdir, "case_smc.txt"))
        self.size = size
        self.inputs = []
        for i in range(self.CASES[size]):
            rng = _rng(seed, self.SALT, i)
            platform = PLATFORMS[i % len(PLATFORMS)]
            overrides = _perturbation(rng, platform)
            if platform == "rotpen":
                q = np.diag(synthesis.DEFAULT_ROTPEN_Q) * 10.0 ** rng.uniform(-1, 1, 4)
                r = (10.0 ** rng.uniform(-1, 1),)
            else:
                q = np.diag(synthesis.DEFAULT_NXTWAY_Q) * 10.0 ** rng.uniform(-1, 1, 5)
                # equal motor weights keep the two gain rows identical
                r = (1.0e3 * 10.0 ** rng.uniform(-1, 1),) * 2
            self.inputs.append(DesignCase(platform, overrides, tuple(q), r,
                                          float(rng.uniform(50.0, 200.0))))
        ref = references.get(self.name, {})
        self.reference = ref if ref.get("seed") == seed else None
        self.digests: list[str | None] = [None] * len(self.inputs)
        self.ticks = 0
        self.n_ops = len(self.inputs)
        self.size_info = {"runs": 0, "cases": self.n_ops, "ticks": 0}
        for i in range(len(PLATFORMS)):
            self.run(i)

    def run(self, i: int) -> DesignOutput:
        c = self.inputs[i]
        params = plants.params_from_mapping(c.platform, c.overrides)
        closed = _closed_form(c.platform, params)
        numeric = linearize.jacobian_linearize(params)
        Q, R = np.diag(c.q), np.diag(c.r)
        if c.platform == "rotpen":
            lqr = synthesis.lqr_gain(closed.A, closed.B, Q, R)
            stability = synthesis.stability_report(closed, lqr.K)
        else:
            lqr = synthesis.nxtway_integral_lqr(closed, Q=Q, R=R)
            stability = synthesis.stability_report(*_augmented(closed, lqr))
        discrete = linearize.discretize_zoh(closed, cli.DEFAULT_TS[c.platform])
        smc = synthesis.design_smc(discrete, alpha=c.alpha)
        synthesis.save_design(lqr, self.paths[0])
        lqr_loaded = synthesis.load_design(self.paths[0])
        synthesis.save_design(smc, self.paths[1])
        smc_loaded = synthesis.load_design(self.paths[1])
        return DesignOutput(closed, numeric, lqr, stability, smc, lqr_loaded, smc_loaded)

    def check(self, i: int, out: DesignOutput) -> str | None:
        c = self.inputs[i]
        scale = np.abs(out.closed.A).max()
        if not (np.allclose(out.numeric.A, out.closed.A, rtol=1e-6, atol=1e-9 * scale)
                and np.allclose(out.numeric.B, out.closed.B, rtol=1e-6,
                                atol=1e-9 * np.abs(out.closed.B).max())):
            return "numeric Jacobian disagrees with the closed form"
        residual = out.lqr.residual / (1.0 + float(np.linalg.norm(out.lqr.P)))
        if not residual <= CARE_TOLERANCE:
            return f"scaled CARE residual {residual:.3e} beyond solve_care's tolerance"
        if not out.stability.stable:
            return "LQR closed loop is not stable"
        Ts = cli.DEFAULT_TS[c.platform]
        smc = out.smc
        if smc.Ts != Ts or smc.k_exceeds_bound or smc.k != synthesis.smc_gain_bound(Ts, c.alpha):
            return "SMC switching gain is not the reaching-law bound"
        if not np.all(np.abs(smc.surface_eigs) < 1.0):
            return "sliding dynamics outside the unit circle"
        if not (_same_design(out.lqr, out.lqr_loaded) and _same_design(smc, out.smc_loaded)):
            return "a loaded design differs from the saved one"
        lqr = out.lqr
        found = digest(tuple(lqr.K.ravel()) + (lqr.Ki,) + tuple(smc.L) + tuple(smc.Keq)
                       + (smc.k,))
        if self.digests[i] is None:
            self.digests[i] = found
        elif self.digests[i] != found:
            return "case differs from the previous pass"
        if self.reference is not None and found != self.reference["cases"][i]:
            return "case differs from the recorded reference"
        return None

    def reference_record(self, references: dict, seed: int) -> dict:
        _require_full_size(self.size)
        return {"seed": seed, "cases": list(self.digests)}


WORKLOADS = {w.name: w for w in (PaperPulse, McSweep, DesignSweep)}


def acceptance_figures() -> dict:
    """The two acceptance clauses the package fails today, measured as they are.

    Criterion 2: largest relative deviation of the synthesized rotpen gain
    from the recorded hardware gain (limit 15%). Criterion 4: largest applied
    voltage of the recorded rotpen gains over the 120 s pulse experiment
    (ceiling 3 V).
    """
    ours = nominal_design("rotpen", "lqr").K[0]
    recorded = np.array(synthesis.REFERENCE_LQR_GAINS["rotpen"]["K"])
    params = plants.default_params("rotpen")
    cfg = sim.SimConfig(duration=120.0, controller_Ts=cli.DEFAULT_TS["rotpen"],
                        disturbance=sim.standard_pulse_train(params.V_max))
    trace = sim.simulate(params, synthesis.reference_lqr_design("rotpen"), cfg)
    return {"accept.c2_gain_dev": float(np.max(np.abs(ours - recorded) / np.abs(recorded))),
            "accept.c4_max_u_v": float(np.abs(trace.u_applied).max())}
