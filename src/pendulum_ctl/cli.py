"""Command-line front end: synthesize, simulate, compare, linearize.

Each setting is one row of the _SETTINGS table (converter, default, help);
the parser, the config keys and the defaults are built from it, so every
flag has a config-file equivalent. Settings resolve in the order built-in
defaults, then the config file (from --config or the PENDULUM_CTL_CONFIG
environment variable), then explicit flags. Config files are plain text
with one key=value pair per line, each key once, and # comments.

Exit codes: 0 success, 1 bad input (a ValueError or OSError, such as an
unwritable output path), 2 synthesis failure (a SynthesisError), 3 a run
that did not stabilize (diverged or fell). Every command checks its output
paths before it computes anything, and refuses an output that reaches one of
its inputs (the config or design file); simulate and compare then check
their run settings before they load or synthesize a design, so a bad setting
exits 1 even where synthesis would fail. `python -m pendulum_ctl.cli` runs
it too.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .linearize import closed_form, jacobian_linearize, save_statespace
from .matrixfile import format_matrix, write_whole
from .metrics import comparison_report, compute_metrics, save_metrics_csv
from .plants import default_params
from .simulate import (
    DisturbanceSpec,
    SimConfig,
    check_plant_step,
    save_trace_csv,
    simulate,
    standard_pulse_train,
)
from .synthesis import (
    DEFAULT_SMC_ALPHA,
    DEFAULT_TS,
    REFERENCE_SMC_SWITCHING_GAINS,
    LqrDesign,
    SmcDesign,
    SynthesisError,
    integral_augmented,
    load_design,
    nominal_lqr,
    nominal_smc,
    reference_lqr_design,
    save_design,
    stability_report,
)

PLATFORMS = ("rotpen", "nxtway")


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


_PLATFORM = _choice(*PLATFORMS)

# command -> (subcommand help, {key: (converter, default, flag help)}). Each
# key is a config key and, with dashes for underscores, a --flag; a dict as
# flag help gives one mutually exclusive --<value> flag per value instead.
_SETTINGS = {
    "synthesize": ("design a controller, write a design file with gains, "
                   "residuals and eigenvalues", {
        "platform": (_PLATFORM, None, "rotpen or nxtway"),
        "controller": (_choice("lqr", "smc"), "lqr", {
            "lqr": "design the quadratic regulator (default)",
            "smc": "design the discrete sliding-mode controller"}),
        "q": (_floats, None, "comma-separated diagonal of Q"),
        "r": (_floats, None, "comma-separated diagonal of R"),
        "alpha": (_positive, None, "reaching-rate parameter for SMC"),
        "k": (float, None, "SMC switching gain override"),
        "ts": (_positive, None, "controller sample period in seconds"),
        "out": (str, None, "design file path"),
    }),
    "simulate": ("run one closed-loop experiment, write a trace CSV and a "
                 "metrics CSV", {
        "platform": (_PLATFORM, None, "rotpen or nxtway"),
        "controller": (_choice("lqr", "smc"), None, "lqr or smc (default: lqr, or "
                       "the kind of --design)"),
        "design": (str, None, "design file from `synthesize`"),
        "gains": (_choice("reference"), None, "'reference' selects the recorded "
                  "hardware gain set instead of synthesizing"),
        "duration": (float, 10.0, "simulated seconds (default 10)"),
        "ts": (_positive, None, "controller sample period in seconds"),
        "plant_dt": (float, None, "integrator step (default ts/4)"),
        "disturbance": (_choice("none", "paper", "pulse"), "none",
                        "none, paper, or pulse"),
        "dist_amplitude": (float, None, "pulse amplitude in volts"),
        "dist_frequency": (float, None, "pulse frequency in Hz"),
        "dist_start": (float, None, "pulse start time in seconds"),
        "dist_duty": (float, None, "pulse duty cycle in [0, 1]"),
        "x0": (_floats, None, "initial state q1,q2,q1dot,q2dot"),
        "reference": (_floats, None, "state reference, same layout as --x0"),
        "measurement": (_choice("ideal", "filtered-derivative"), None,
                        "ideal or filtered-derivative"),
        "filter_cutoff": (float, None, "derivative filter cutoff in Hz"),
        "boundary_layer": (float, None, "SMC boundary-layer width"),
        "saturation": (_positive, None, "actuator limit in volts"),
        "trace": (str, "trace.csv", "trace CSV path (default trace.csv)"),
        "metrics": (str, "metrics.csv", "metrics CSV path (default metrics.csv)"),
    }),
    "compare": ("run LQR and SMC on both platforms under the standard pulse "
                "train and write the comparison table", {
        "duration": (float, 88.0, "simulated seconds (default 88)"),
        "out": (str, "report.txt", "report path (default report.txt)"),
        "metrics": (str, None, "optional metrics CSV path"),
        "trace_dir": (str, None, "optional directory for the four trace CSVs"),
    }),
    "linearize": ("print closed-form and numeric state-space matrices with a "
                  "discrepancy report", {
        "platform": (_PLATFORM, None, "rotpen or nxtway"),
        "out": (str, None, "optional state-space file path"),
    }),
}


def _defaults(command: str) -> dict:
    return {key: row[1] for key, row in _SETTINGS[command][1].items()}


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    pairs, first = {}, {}  # key -> its value, and the line that set it
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{number}: {stripped!r} has no assignment")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key in first:
            raise ValueError(f"{path}:{number}: {key} repeats line {first[key]}")
        first[key], pairs[key] = number, value.strip()
    return pairs


def _config_path(args: argparse.Namespace) -> str | None:
    return args.config or os.environ.get("PENDULUM_CTL_CONFIG")


def _resolve_settings(command: str, args: argparse.Namespace) -> dict:
    rows = _SETTINGS[command][1]
    settings = _defaults(command)
    config_path = _config_path(args)
    given = list(_read_config(config_path).items()) if config_path else []
    flags = vars(args)
    given += [(key, flags[key]) for key in rows if flags[key] is not None]
    for key, raw in given:
        if key not in rows:
            raise ValueError(f"unknown config key for {command}: {key}")
        try:
            settings[key] = rows[key][0](raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid value for {key}: {raw!r} ({exc})") from None
    return settings


def _require(settings: dict, key: str):
    if settings[key] is None:
        raise ValueError(f"missing required key: {key}")
    return settings[key]


# ---------------------------------------------------------------------------
# shared assembly helpers
# ---------------------------------------------------------------------------

def _check_writable(path: str, parents: bool = False) -> None:
    """Raise ValueError unless a file can be written at path; touch nothing.

    Lets a command refuse an unusable output path before it simulates
    anything. With parents, missing parent directories count as creatable.
    """
    target = os.path.abspath(path)
    if os.path.isdir(target):
        raise ValueError(f"cannot write {path}: it is a directory")
    if os.path.exists(target):
        if not os.access(target, os.W_OK):
            raise ValueError(f"cannot write {path}: permission denied")
        return
    folder = os.path.dirname(target)
    while parents and not os.path.exists(folder):
        folder = os.path.dirname(folder)
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {path}: {folder} is not an existing directory")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise ValueError(f"cannot write {path}: permission denied in {folder}")


def _file_reached(path: str):
    """(inode, device) of an existing regular file, None for another existing
    node (such as /dev/null), else the real path: hard links reach one file."""
    real = os.path.realpath(path)
    if not os.path.exists(real):
        return real
    return os.stat(real)[1:3] if os.path.isfile(real) else None


def _check_outputs(outputs, inputs) -> None:
    """Refuse unusable (setting, path, parents) outputs before anything runs.

    Two outputs may not reach one file, no output may reach an input file
    (a (setting, path) pair; a None path is no input), and no output may
    name a folder that another output is written into.
    """
    targets = {os.path.abspath(path): key for key, path, _ in outputs}
    seen = {_file_reached(path): key for key, path in inputs if path}
    for key, path, parents in outputs:
        home = os.path.abspath(path)
        for target, other in targets.items():
            if os.path.commonpath([home, target]) == home != target:
                raise ValueError(f"cannot write {path}: it is a folder that {other} "
                                 "is written into")
        _check_writable(path, parents)
        real = _file_reached(path)
        if real is None:
            continue  # a device such as /dev/null may take several outputs
        if real in seen:
            raise ValueError(f"{seen[real]} and {key} both name the file {path}")
        seen[real] = key


def _make_design(platform: str, controller: str | None, settings: dict):
    """Load, look up or synthesize the requested controller for one platform.

    A design file and the recorded gains each select the whole design, so
    giving both raises ValueError, and so does a design file that names
    another platform. A design file decides the controller; without one, no
    controller means lqr.
    """
    if settings.get("design"):
        if settings.get("gains"):
            raise ValueError("design and gains both select the design; give one")
        try:
            return load_design(settings["design"], platform)
        except OSError as exc:
            raise ValueError(f"cannot read design file: {exc}") from None
    reference = settings.get("gains") == "reference"
    if controller != "smc" and reference:
        return reference_lqr_design(platform)
    params = default_params(platform)
    if controller == "smc":
        return nominal_smc(params, settings.get("ts"),
                           settings.get("alpha") or DEFAULT_SMC_ALPHA,
                           REFERENCE_SMC_SWITCHING_GAINS[platform] if reference
                           else settings.get("k"))
    q, r = settings.get("q"), settings.get("r")
    try:
        return nominal_lqr(params, None if q is None else np.diag(q),
                           None if r is None else np.diag(r))
    except ValueError as exc:
        raise ValueError(f"invalid weights q/r: {exc}") from None


# pulse setting -> DisturbanceSpec field; only disturbance=pulse reads them
_PULSE_FIELDS = {"dist_amplitude": "amplitude", "dist_frequency": "frequency",
                 "dist_start": "start_time", "dist_duty": "duty"}


def _disturbance(settings: dict, V_max: float) -> DisturbanceSpec:
    kind = settings["disturbance"]
    given = {key: settings[key] for key in _PULSE_FIELDS if settings[key] is not None}
    if kind != "pulse":
        if given:
            raise ValueError(f"{next(iter(given))} needs disturbance=pulse, not {kind}")
        return standard_pulse_train(V_max) if kind == "paper" else DisturbanceSpec()
    for key in ("dist_amplitude", "dist_frequency"):
        if key not in given:
            raise ValueError(f"disturbance=pulse requires {key}")
    return DisturbanceSpec(kind="pulse_train",
                           **{_PULSE_FIELDS[key]: value for key, value in given.items()})


# simulate setting -> SimConfig field, passed only when given: defaults live there
_RUN_FIELDS = {"plant_dt": "plant_dt", "x0": "x0", "reference": "reference",
               "saturation": "saturation_V", "measurement": "measurement",
               "filter_cutoff": "filter_cutoff", "boundary_layer": "boundary_layer"}


def _experiment(platform: str, settings: dict):
    """Check the settings of one closed-loop run; return a function that runs it.

    The function takes the design and a trace CSV path or None, simulates,
    writes the trace there if given and returns the run's metrics. Checking
    first lets a command refuse bad settings before it loads or synthesizes
    a design or writes anything.
    """
    params = default_params(platform)
    V_max = settings.get("saturation") or params.V_max
    spec = _disturbance(settings, V_max)
    Ts = DEFAULT_TS[platform] if settings.get("ts") is None else settings["ts"]
    cfg = SimConfig(duration=settings["duration"], controller_Ts=Ts, disturbance=spec,
                    **{field: settings[key] for key, field in _RUN_FIELDS.items()
                       if settings[key] is not None})
    if settings["filter_cutoff"] is not None and cfg.measurement != "filtered-derivative":
        raise ValueError("filter_cutoff needs measurement=filtered-derivative, "
                         f"not {cfg.measurement}")
    check_plant_step(params, cfg.plant_dt)
    onset = spec.start_time if spec.kind == "pulse_train" else 0.0

    def run(design, trace_path):
        trace = simulate(params, design, cfg)
        if trace_path is not None:
            save_trace_csv(trace, trace_path)
        return compute_metrics(trace, V_max=V_max, disturbance_onset=onset,
                               reference_q2=cfg.reference[1])
    return run


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# per command, the settings only one controller reads, with that controller
_CONTROLLER_OF = {
    "synthesize": {"q": "lqr", "r": "lqr", "ts": "smc", "alpha": "smc", "k": "smc"},
    "simulate": {"boundary_layer": "smc"}}


def _refuse_other_controller(command: str, settings: dict, controller: str) -> None:
    """Refuse a given setting that only the other controller reads."""
    for key, owner in _CONTROLLER_OF[command].items():
        if owner != controller and settings[key] is not None:
            raise ValueError(f"{key} needs controller={owner}, not {controller}")


def _cmd_synthesize(settings: dict, config: str | None) -> int:
    platform = _require(settings, "platform")
    controller = settings["controller"]
    out = settings["out"] or f"{platform}_{controller}_design.txt"
    _check_outputs([("out", out, False)], [("config", config)])
    _refuse_other_controller("synthesize", settings, controller)
    design = _make_design(platform, controller, settings)
    save_design(design, out, platform)
    if isinstance(design, LqrDesign):
        ss, K = closed_form(default_params(platform)), design.K
        if design.Ki is not None:
            ss, K = integral_augmented(ss), np.hstack([K, [[design.Ki]]])
        eigs = stability_report(ss, K).eigenvalues
        # appended in place to the design that save_design just published whole
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


def _cmd_simulate(settings: dict, config: str | None) -> int:
    platform = _require(settings, "platform")
    _check_outputs([("trace", settings["trace"], False),
                    ("metrics", settings["metrics"], False)],
                   [("config", config), ("design", settings["design"])])
    experiment = _experiment(platform, settings)
    if not settings["design"]:  # the settings decide the controller
        _refuse_other_controller("simulate", settings, settings["controller"] or "lqr")
    design = _make_design(platform, settings["controller"], settings)
    kind = "smc" if isinstance(design, SmcDesign) else "lqr"
    if settings["controller"] not in (None, kind):  # only a design file can disagree
        raise ValueError(f"controller {settings['controller']} disagrees with the {kind} "
                         f"design in {settings['design']}")
    _refuse_other_controller("simulate", settings, kind)
    metrics = experiment(design, settings["trace"])
    save_metrics_csv([(platform, kind, metrics)], settings["metrics"])
    print(f"wrote {settings['trace']} and {settings['metrics']}")
    print(f"quality: {metrics.stabilization_quality}, "
          f"u_inf = {metrics.u_inf:.3f} V ({metrics.u_pct_max:.1f}% of limit)")
    if metrics.settle_time is None:
        print("simulation did not stabilize: diverged or fell", file=sys.stderr)
        return 3
    return 0


def _cmd_compare(settings: dict, config: str | None) -> int:
    runs = [(platform, controller) for platform in PLATFORMS
            for controller in ("lqr", "smc")]
    trace_dir = settings["trace_dir"]
    trace_paths = {run: os.path.join(trace_dir, "%s_%s.csv" % run)
                   for run in runs} if trace_dir else {}
    home = os.path.abspath(trace_dir) if trace_dir else None

    def in_trace_dir(path: str) -> bool:  # a folder this command creates
        return home is not None and os.path.commonpath(
            [home, os.path.abspath(path)]) == home

    outputs = [("out", settings["out"], in_trace_dir(settings["out"]))]
    if settings["metrics"]:
        outputs.append(("metrics", settings["metrics"], in_trace_dir(settings["metrics"])))
    outputs += [("trace_dir", path, True) for path in trace_paths.values()]
    _check_outputs(outputs, [("config", config)])
    run_settings = _defaults("simulate")
    run_settings.update(duration=settings["duration"], disturbance="paper")
    experiments = {run: _experiment(run[0], run_settings) for run in runs}
    designs = {run: _make_design(*run, run_settings) for run in runs}
    for _, path, parents in outputs:
        if parents:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    rows = []
    for run, experiment in experiments.items():
        metrics = experiment(designs[run], trace_paths.get(run))
        rows.append((*run, metrics))
    report = comparison_report(rows)
    write_whole(settings["out"], lambda fh: fh.write(report + "\n"), encoding="utf-8")
    if settings["metrics"]:
        save_metrics_csv(rows, settings["metrics"])
    print(report)
    print(f"\nwrote {settings['out']}")
    return 3 if any(m.settle_time is None for *_, m in rows) else 0


def _cmd_linearize(settings: dict, config: str | None) -> int:
    platform = _require(settings, "platform")
    if settings["out"]:
        _check_outputs([("out", settings["out"], False)], [("config", config)])
    params = default_params(platform)
    closed = closed_form(params)
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
    for command, (summary, rows) in _SETTINGS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key=value settings file "
                       "(default: $PENDULUM_CTL_CONFIG)")
        for key, (_, _, text) in rows.items():
            if isinstance(text, dict):
                group = p.add_mutually_exclusive_group()
                for value, value_help in text.items():
                    group.add_argument(f"--{value}", dest=key, action="store_const",
                                       const=value, help=value_help)
            else:
                p.add_argument("--" + key.replace("_", "-"), help=text)
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
    try:
        settings = _resolve_settings(args.command, args)
        return _DISPATCH[args.command](settings, _config_path(args))
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
