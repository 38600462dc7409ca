"""Closed-loop trace metrics and side-by-side run comparison.

Settling is measured on the pole angle against a fixed band of
SETTLE_BAND rad: the settle time is the last instant the angle sits
outside the band, counted from the disturbance onset. Control effort is
reported both in volts and as a percent of the saturation limit so either
convention can be quoted. A scattering score, the mean sample-to-sample
change of the applied input relative to the limit, separates smooth
inputs from chattering ones.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .simulate import SimTrace

__all__ = ["SETTLE_BAND", "SMOOTH_SCORE_LIMIT", "Metrics", "compute_metrics",
           "comparison_report", "save_metrics_csv"]

SETTLE_BAND = 0.02
SMOOTH_SCORE_LIMIT = 0.02

_CSV_FIELDS = ("label", "settle_time", "u_inf", "u_pct_max", "pole_vel_max",
               "stabilization_quality", "scattering_score")


@dataclass(frozen=True)
class Metrics:
    """Summary numbers for one closed-loop run.

    settle_time is None for diverged runs; every other field stays
    numeric so a failed run can still be compared on effort and speed.
    """

    settle_time: float | None
    u_inf: float
    u_pct_max: float
    pole_vel_max: float
    stabilization_quality: str
    scattering_score: float


def compute_metrics(trace: SimTrace, V_max: float, disturbance_onset: float = 0.0,
                    reference_q2: float = 0.0) -> Metrics:
    """Reduce a simulation trace to scalar performance numbers.

    The settle time is the last time |q2 - reference_q2| exceeds
    SETTLE_BAND, minus the onset, clamped at zero. A trace that never
    leaves the band settles at 0.0. Quality is "smooth" when the scattering
    score stays below SMOOTH_SCORE_LIMIT, "scattering" otherwise, and
    "diverged" verbatim for diverged traces.
    """
    if trace.t.size == 0:
        raise ValueError("cannot compute metrics for an empty trace")
    if not V_max > 0.0:
        raise ValueError(f"V_max must be positive, got {V_max}")

    u_inf = float(np.max(np.abs(trace.u_applied)))
    u_pct_max = 100.0 * u_inf / V_max
    pole_vel_max = float(np.max(np.abs(trace.x[:, 3])))

    du = np.abs(np.diff(trace.u_applied))
    score = float(np.mean(du) / V_max) if du.size else 0.0

    if trace.diverged:
        return Metrics(settle_time=None, u_inf=u_inf, u_pct_max=u_pct_max,
                       pole_vel_max=pole_vel_max,
                       stabilization_quality="diverged",
                       scattering_score=score)

    outside = np.abs(trace.x[:, 1] - reference_q2) > SETTLE_BAND
    if np.any(outside):
        settle = max(0.0, float(trace.t[outside][-1]) - disturbance_onset)
    else:
        settle = 0.0
    quality = "smooth" if score < SMOOTH_SCORE_LIMIT else "scattering"
    return Metrics(settle_time=settle, u_inf=u_inf, u_pct_max=u_pct_max,
                   pole_vel_max=pole_vel_max, stabilization_quality=quality,
                   scattering_score=score)


def _estado_cell(m: Metrics) -> str:
    if m.stabilization_quality == "diverged":
        return "diverged"
    return f"{m.stabilization_quality} ({m.settle_time:.2f} s)"


def _potencia_cell(label: str, m: Metrics) -> str:
    low = label.lower()
    if "nxtway" in low:
        return f"{m.u_pct_max:.1f} %"
    if "rotpen" in low or "quanser" in low:
        return f"{m.u_inf:.2f} V"
    return f"{m.u_inf:.2f} V / {m.u_pct_max:.1f} %"


def _design_cells(label: str) -> tuple[str, str]:
    low = label.lower()
    if "lqr" in low:
        return "Si", "No"
    if "smc" in low:
        return "No", "Si"
    return "-", "-"


def comparison_report(runs: list[tuple[str, Metrics]]) -> str:
    """Render runs as an aligned plain-text comparison table.

    Each entry is a (label, metrics) pair; rows keep the input order.
    The power column unit follows the platform named in the label,
    percent of V_max for nxtway and volts for rotpen or quanser, and
    labels containing "lqr" or "smc" fill the two design criterion
    columns. Pole velocities are reported in rad/s.
    """
    if not runs:
        raise ValueError("comparison_report needs at least one run")

    header = ["Corrida", "Estado q2", "Potencia", "Velocidad Máxima",
              "Criterio Energía Mínima", "Robustez"]
    rows = []
    for label, m in runs:
        label = str(label)
        if not label.strip():
            raise ValueError("run labels must be non-empty")
        energia, robustez = _design_cells(label)
        rows.append([label, _estado_cell(m), _potencia_cell(label, m),
                     f"{m.pole_vel_max:.3f}", energia, robustez])

    widths = [max(len(header[i]), max(len(r[i]) for r in rows))
              for i in range(len(header))]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = ["Comparación de corridas (Velocidad Máxima en rad/s, asumido)",
             "",
             fmt(header),
             "  ".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def save_metrics_csv(runs: list[tuple[str, Metrics]], path) -> None:
    """Write one CSV row per run; a diverged settle time is left blank."""
    if not runs:
        raise ValueError("save_metrics_csv needs at least one run")
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for label, m in runs:
            settle = "" if m.settle_time is None else repr(float(m.settle_time))
            writer.writerow([label, settle, repr(float(m.u_inf)),
                             repr(float(m.u_pct_max)),
                             repr(float(m.pole_vel_max)),
                             m.stabilization_quality,
                             repr(float(m.scattering_score))])
