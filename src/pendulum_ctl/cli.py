"""Command-line front end: synthesize, simulate, compare, linearize.

Every flag has a config-file equivalent; settings resolve in the order
built-in defaults, then the config file (from --config or the
PENDULUM_CTL_CONFIG environment variable), then explicit flags. Config
files are plain text with one key=value pair per line and # comments.

Exit codes: 0 success, 1 configuration error, 2 synthesis failure,
3 diverged simulation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import ConfigError, SynthesisError
from .linearize import (
    discretize_zoh,
    jacobian_linearize,
    nxtway_statespace_closed_form,
    rotpen_statespace_closed_form,
    save_statespace,
)
from .matrixfile import format_matrix
from .metrics import comparison_report, compute_metrics, save_metrics_csv
from .plants import default_params
from .simulate import (
    DisturbanceSpec,
    SimConfig,
    save_trace_csv,
    simulate,
    standard_pulse_train,
)
from .synthesis import (
    DEFAULT_ROTPEN_Q,
    DEFAULT_ROTPEN_R,
    DEFAULT_SMC_ALPHA,
    REFERENCE_SMC_SWITCHING_GAINS,
    LqrDesign,
    SmcDesign,
    design_smc,
    integral_augmented,
    load_design,
    lqr_gain,
    nxtway_integral_lqr,
    reference_lqr_design,
    save_design,
    stability_report,
)

PLATFORMS = ("rotpen", "nxtway")
DEFAULT_TS = {"rotpen": 0.002, "nxtway": 0.004}


# ---------------------------------------------------------------------------
# settings: defaults <- config file <- flags
# ---------------------------------------------------------------------------

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(","))


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("must be a positive number")
    return value


def _choice(*options: str):
    def convert(text: str) -> str:
        value = str(text).strip().lower()
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return value
    return convert


_CONVERTERS = {
    "platform": _choice(*PLATFORMS),
    "controller": _choice("lqr", "smc"),
    "q": _floats,
    "r": _floats,
    "alpha": _positive,
    "k": float,
    "ts": _positive,
    "plant_dt": float,
    "out": str,
    "design": str,
    "gains": _choice("reference"),
    "duration": float,
    "disturbance": _choice("none", "paper", "pulse"),
    "dist_amplitude": float,
    "dist_frequency": float,
    "dist_start": float,
    "dist_duty": float,
    "x0": _floats,
    "reference": _floats,
    "measurement": _choice("ideal", "filtered-derivative"),
    "filter_cutoff": float,
    "boundary_layer": float,
    "saturation": float,
    "trace": str,
    "metrics": str,
    "trace_dir": str,
}

_DEFAULTS = {
    "synthesize": {"platform": None, "controller": "lqr", "q": None, "r": None,
                   "alpha": DEFAULT_SMC_ALPHA, "k": None, "ts": None, "out": None},
    "simulate": {"platform": None, "controller": "lqr", "design": None,
                 "gains": None, "duration": 10.0, "ts": None, "plant_dt": None,
                 "disturbance": "none", "dist_amplitude": None,
                 "dist_frequency": None, "dist_start": 0.0, "dist_duty": 0.5,
                 "x0": (0.0, 0.0, 0.0, 0.0), "reference": (0.0, 0.0, 0.0, 0.0),
                 "measurement": "ideal", "filter_cutoff": 30.0,
                 "boundary_layer": 0.0, "saturation": None,
                 "trace": "trace.csv", "metrics": "metrics.csv"},
    "compare": {"duration": 88.0, "out": "report.txt", "metrics": None,
                "trace_dir": None},
    "linearize": {"platform": None, "out": None},
}


def _convert(key: str, raw: str):
    try:
        return _CONVERTERS[key](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key}: {raw!r} ({exc})") from None


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    pairs: dict[str, str] = {}
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{number}: {stripped!r} has no assignment")
        key, _, value = stripped.partition("=")
        pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _resolve_settings(command: str, args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS[command])
    config_path = args.config or os.environ.get("PENDULUM_CTL_CONFIG")
    if config_path:
        for key, raw in _read_config(config_path).items():
            if key not in settings:
                raise ConfigError(f"unknown config key for {command}: {key}")
            settings[key] = _convert(key, raw)
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = _convert(key, value)
    return settings


def _require(settings: dict, key: str):
    if settings[key] is None:
        raise ConfigError(f"missing required key: {key}")
    return settings[key]


# ---------------------------------------------------------------------------
# shared assembly helpers
# ---------------------------------------------------------------------------

def _closed_form(platform: str, params):
    if platform == "rotpen":
        return rotpen_statespace_closed_form(params)
    return nxtway_statespace_closed_form(params)


def _sample_time(settings: dict, platform: str) -> float:
    """The ts setting when given, else the platform's default period."""
    return DEFAULT_TS[platform] if settings.get("ts") is None else settings["ts"]


def _make_design(platform: str, controller: str, settings: dict):
    """Load, look up or synthesize the requested controller for one platform."""
    if settings.get("design"):
        try:
            return load_design(settings["design"])
        except OSError as exc:
            raise ConfigError(f"cannot read design file: {exc}") from None
    reference = settings.get("gains") == "reference"
    if controller == "lqr" and reference:
        return reference_lqr_design(platform)
    ss = _closed_form(platform, default_params(platform))
    if controller == "lqr":
        q, r = settings.get("q"), settings.get("r")
        Q = None if q is None else np.diag(q)
        R = None if r is None else np.diag(r)
        try:
            if platform == "rotpen":
                return lqr_gain(ss.A, ss.B,
                                DEFAULT_ROTPEN_Q if Q is None else Q,
                                DEFAULT_ROTPEN_R if R is None else R)
            return nxtway_integral_lqr(ss, Q=Q, R=R)
        except ValueError as exc:
            raise ConfigError(f"invalid weights q/r: {exc}") from None
    return design_smc(discretize_zoh(ss, _sample_time(settings, platform)),
                      alpha=settings.get("alpha", DEFAULT_SMC_ALPHA),
                      k=REFERENCE_SMC_SWITCHING_GAINS[platform] if reference
                      else settings.get("k"))


def _disturbance(settings: dict, V_max: float) -> DisturbanceSpec:
    kind = settings["disturbance"]
    if kind == "none":
        return DisturbanceSpec()
    if kind == "paper":
        return standard_pulse_train(V_max)
    for key in ("dist_amplitude", "dist_frequency"):
        if settings[key] is None:
            raise ConfigError(f"disturbance=pulse requires {key}")
    return DisturbanceSpec(kind="pulse_train",
                           amplitude=settings["dist_amplitude"],
                           frequency=settings["dist_frequency"],
                           start_time=settings["dist_start"],
                           duty=settings["dist_duty"])


def _run_experiment(platform: str, design, settings: dict):
    """Simulate one closed loop and return its trace and metrics."""
    params = default_params(platform)
    V_max = settings.get("saturation") or params.V_max
    spec = _disturbance(settings, V_max)
    cfg = SimConfig(duration=settings["duration"],
                    controller_Ts=_sample_time(settings, platform),
                    plant_dt=settings.get("plant_dt"), disturbance=spec,
                    x0=settings["x0"], reference=settings["reference"],
                    saturation_V=settings.get("saturation"),
                    measurement=settings["measurement"],
                    filter_cutoff=settings["filter_cutoff"],
                    boundary_layer=settings["boundary_layer"])
    trace = simulate(params, design, cfg)
    onset = spec.start_time if spec.kind == "pulse_train" else 0.0
    metrics = compute_metrics(trace, V_max=V_max, disturbance_onset=onset)
    return trace, metrics


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synthesize(settings: dict) -> int:
    platform = _require(settings, "platform")
    controller = settings["controller"]
    design = _make_design(platform, controller, settings)
    out = settings["out"] or f"{platform}_{controller}_design.txt"
    save_design(design, out)
    if isinstance(design, LqrDesign):
        ss, K = _closed_form(platform, default_params(platform)), design.K
        if design.Ki is not None:
            ss, K = integral_augmented(ss), np.hstack([K, [[design.Ki]]])
        eigs = stability_report(ss, K).eigenvalues
        with open(out, "a", encoding="utf-8") as fh:
            for name, values in (("closed_loop_re", eigs.real),
                                 ("closed_loop_im", eigs.imag)):
                fh.write("\n".join(format_matrix(name, values)) + "\n")
        print(f"{platform} {controller}: K = {design.K[0]}, "
              f"residual = {design.residual:.3e}")
    else:
        print(f"{platform} {controller}: k = {design.k:.6f}, "
              f"max |surface eig| = {np.max(np.abs(design.surface_eigs)):.6f}")
    print(f"wrote {out}")
    return 0


def _cmd_simulate(settings: dict) -> int:
    platform = _require(settings, "platform")
    controller = settings["controller"]
    design = _make_design(platform, controller, settings)
    trace, metrics = _run_experiment(platform, design, settings)

    kind = "smc" if isinstance(design, SmcDesign) else "lqr"
    save_trace_csv(trace, settings["trace"])
    save_metrics_csv([(f"{platform} {kind}", metrics)], settings["metrics"])
    print(f"wrote {settings['trace']} and {settings['metrics']}")
    print(f"quality: {metrics.stabilization_quality}, "
          f"u_inf = {metrics.u_inf:.3f} V ({metrics.u_pct_max:.1f}% of limit)")
    if trace.diverged:
        print("simulation diverged", file=sys.stderr)
        return 3
    return 0


def _cmd_compare(settings: dict) -> int:
    rows = []
    diverged = False
    if settings["trace_dir"]:
        os.makedirs(settings["trace_dir"], exist_ok=True)
    for platform in PLATFORMS:
        run_settings = dict(_DEFAULTS["simulate"])
        run_settings.update(duration=settings["duration"],
                            disturbance="paper")
        for controller in ("lqr", "smc"):
            design = _make_design(platform, controller, run_settings)
            trace, metrics = _run_experiment(platform, design, run_settings)
            rows.append((f"{platform} {controller}", metrics))
            diverged = diverged or trace.diverged
            if settings["trace_dir"]:
                save_trace_csv(trace, os.path.join(
                    settings["trace_dir"], f"{platform}_{controller}.csv"))
    report = comparison_report(rows)
    with open(settings["out"], "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    if settings["metrics"]:
        save_metrics_csv(rows, settings["metrics"])
    print(report)
    print(f"\nwrote {settings['out']}")
    return 3 if diverged else 0


def _cmd_linearize(settings: dict) -> int:
    platform = _require(settings, "platform")
    params = default_params(platform)
    closed = _closed_form(platform, params)
    numeric = jacobian_linearize(params)

    lines = [f"{platform}: linearization about the upright equilibrium"]
    for name, M in (("A_closed_form", closed.A), ("B_closed_form", closed.B),
                    ("A_numeric", numeric.A), ("B_numeric", numeric.B)):
        lines.extend(format_matrix(name, M))
    for label, M, N in (("A", closed.A, numeric.A), ("B", closed.B, numeric.B)):
        diff = np.abs(M - N)
        scaled = diff / np.maximum(1.0, np.abs(M))
        lines.append(f"max abs discrepancy ({label}) = {diff.max():.6e}")
        lines.append(f"max scaled discrepancy ({label}) = {scaled.max():.6e}")
    eigs = np.sort_complex(np.linalg.eigvals(closed.A))
    lines.append("open-loop eigenvalues: "
                 + ", ".join(f"{e:.4f}" for e in eigs))
    verdict = "unstable" if eigs.real.max() > 0.0 else "stable"
    lines.append(f"open loop is {verdict} (max Re = {eigs.real.max():.4f})")
    print("\n".join(lines))

    if settings["out"]:
        save_statespace(closed, settings["out"])
        print(f"wrote {settings['out']}")
    return 0


_DISPATCH = {
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "linearize": _cmd_linearize,
}


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pendulum-ctl",
        description="LQR and sliding-mode control experiments for two "
                    "inverted-pendulum platforms")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="key=value settings file "
                       "(default: $PENDULUM_CTL_CONFIG)")

    p = sub.add_parser("synthesize", help="design a controller, write a "
                       "design file with gains, residuals and eigenvalues")
    common(p)
    p.add_argument("--platform", help="rotpen or nxtway")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--lqr", action="store_true", default=None,
                      help="design the quadratic regulator (default)")
    kind.add_argument("--smc", action="store_true", default=None,
                      help="design the discrete sliding-mode controller")
    p.add_argument("--q", help="comma-separated diagonal of Q")
    p.add_argument("--r", help="comma-separated diagonal of R")
    p.add_argument("--alpha", help="reaching-rate parameter for SMC")
    p.add_argument("--k", help="SMC switching gain override")
    p.add_argument("--ts", help="controller sample period in seconds")
    p.add_argument("--out", help="design file path")

    p = sub.add_parser("simulate", help="run one closed-loop experiment, "
                       "write a trace CSV and a metrics CSV")
    common(p)
    p.add_argument("--platform", help="rotpen or nxtway")
    p.add_argument("--controller", help="lqr or smc (default lqr)")
    p.add_argument("--design", help="design file from `synthesize`")
    p.add_argument("--gains", help="'reference' selects the recorded "
                   "hardware gain set instead of synthesizing")
    p.add_argument("--duration", help="simulated seconds (default 10)")
    p.add_argument("--ts", help="controller sample period in seconds")
    p.add_argument("--plant-dt", help="integrator step (default ts/4)")
    p.add_argument("--disturbance", help="none, paper, or pulse")
    p.add_argument("--dist-amplitude", help="pulse amplitude in volts")
    p.add_argument("--dist-frequency", help="pulse frequency in Hz")
    p.add_argument("--dist-start", help="pulse start time in seconds")
    p.add_argument("--dist-duty", help="pulse duty cycle in [0, 1)")
    p.add_argument("--x0", help="initial state q1,q2,q1dot,q2dot")
    p.add_argument("--reference", help="state reference, same layout as --x0")
    p.add_argument("--measurement", help="ideal or filtered-derivative")
    p.add_argument("--filter-cutoff", help="derivative filter cutoff in Hz")
    p.add_argument("--boundary-layer", help="SMC boundary-layer width")
    p.add_argument("--saturation", help="actuator limit in volts")
    p.add_argument("--trace", help="trace CSV path (default trace.csv)")
    p.add_argument("--metrics", help="metrics CSV path (default metrics.csv)")

    p = sub.add_parser("compare", help="run LQR and SMC on both platforms "
                       "under the standard pulse train and write the "
                       "comparison table")
    common(p)
    p.add_argument("--duration", help="simulated seconds (default 88)")
    p.add_argument("--out", help="report path (default report.txt)")
    p.add_argument("--metrics", help="optional metrics CSV path")
    p.add_argument("--trace-dir", help="optional directory for the four "
                   "trace CSVs")

    p = sub.add_parser("linearize", help="print closed-form and numeric "
                       "state-space matrices with a discrepancy report")
    common(p)
    p.add_argument("--platform", help="rotpen or nxtway")
    p.add_argument("--out", help="optional state-space file path")

    return parser


def run(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    if getattr(args, "lqr", None):
        args.controller = "lqr"
    elif getattr(args, "smc", None):
        args.controller = "smc"
    try:
        settings = _resolve_settings(args.command, args)
        return _DISPATCH[args.command](settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
