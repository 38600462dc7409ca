"""Closed-loop trace metrics and side-by-side run comparison.

Settling is measured on the pole angle against a fixed band of
SETTLE_BAND rad: the settle time is the last instant the angle sits
outside the band, counted from the disturbance onset; a run that diverged
or fell (pi/2 from its reference) has none. Control effort is reported both
in volts and as a percent of the saturation limit so either convention can
be quoted. A scattering score, the mean sample-to-sample change of the
applied input relative to the limit, separates smooth inputs from
chattering ones.
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

    settle_time is None for runs that diverged or fell; every other field
    stays numeric so a failed run can still be compared on effort and speed.
    """

    settle_time: float | None
    u_inf: float
    u_pct_max: float
    pole_vel_max: float
    scattering_score: float

    @property
    def stabilization_quality(self) -> str:
        """Derived: "diverged" without a settle time, else "smooth" while the
        scattering score stays below SMOOTH_SCORE_LIMIT, else "scattering"."""
        if self.settle_time is None:
            return "diverged"
        return "smooth" if self.scattering_score < SMOOTH_SCORE_LIMIT else "scattering"


def compute_metrics(trace: SimTrace, V_max: float, disturbance_onset: float = 0.0,
                    reference_q2: float = 0.0) -> Metrics:
    """Reduce a simulation trace to scalar performance numbers.

    The settle time is the last time |q2 - reference_q2| exceeds
    SETTLE_BAND, minus the onset, clamped at zero. A trace that never
    leaves the band settles at 0.0. A diverged trace, or one where
    |q2 - reference_q2| reaches pi/2 at any sample, has no settle time.
    An empty trace, a V_max not positive and finite, an onset negative or
    not finite and a non-finite reference_q2 raise ValueError.
    """
    if trace.t.size == 0:
        raise ValueError("cannot compute metrics for an empty trace")
    if not 0.0 < V_max < np.inf:
        raise ValueError(f"V_max must be positive and finite, got {V_max}")
    if not 0.0 <= disturbance_onset < np.inf:
        raise ValueError(f"disturbance_onset must be finite and >= 0, got {disturbance_onset}")
    if not np.isfinite(reference_q2):
        raise ValueError(f"reference_q2 must be finite, got {reference_q2}")

    u_inf = float(np.max(np.abs(trace.u_applied)))
    u_pct_max = 100.0 * u_inf / V_max
    pole_vel_max = float(np.max(np.abs(trace.x[:, 3])))

    du = np.abs(np.diff(trace.u_applied))
    score = float(np.mean(du) / V_max) if du.size else 0.0

    settle = None
    offset = np.abs(trace.x[:, 1] - reference_q2)
    # a pole pi/2 out has fallen: there the input's authority on it (m12) changes sign
    if not trace.diverged and offset.max() < 0.5 * np.pi:
        outside = offset > SETTLE_BAND
        settle = (max(0.0, float(trace.t[outside][-1]) - disturbance_onset)
                  if np.any(outside) else 0.0)
    return Metrics(settle_time=settle, u_inf=u_inf, u_pct_max=u_pct_max,
                   pole_vel_max=pole_vel_max, scattering_score=score)


def _estado_cell(m: Metrics) -> str:
    quality = m.stabilization_quality
    return quality if m.settle_time is None else f"{quality} ({m.settle_time:.2f} s)"


# the power cell's unit per platform, and the (Criterio Energía Mínima,
# Robustez) cells per controller
_POWER_CELLS = {"rotpen": "{0.u_inf:.2f} V", "nxtway": "{0.u_pct_max:.1f} %"}
_DESIGN_CELLS = {"lqr": ("Si", "No"), "smc": ("No", "Si")}


def _label(platform: str, controller: str) -> str:
    if platform not in _POWER_CELLS:
        raise ValueError(f"unknown platform {platform!r} (expected rotpen or nxtway)")
    if controller not in _DESIGN_CELLS:
        raise ValueError(f"unknown controller {controller!r} (expected lqr or smc)")
    return f"{platform} {controller}"


def comparison_report(runs: list[tuple[str, str, Metrics]]) -> str:
    """Render runs as an aligned plain-text comparison table.

    Each entry is a (platform, controller, metrics) triple, labeled
    "platform controller"; rows keep the input order. The power column
    reads volts for rotpen and percent of V_max for nxtway, and the
    controller fills the two design criterion columns. Pole velocities are
    reported in rad/s.
    """
    if not runs:
        raise ValueError("comparison_report needs at least one run")

    header = ["Corrida", "Estado q2", "Potencia", "Velocidad Máxima",
              "Criterio Energía Mínima", "Robustez"]
    rows = [[_label(platform, controller), _estado_cell(m),
             _POWER_CELLS[platform].format(m), f"{m.pole_vel_max:.3f}",
             *_DESIGN_CELLS[controller]] for platform, controller, m in runs]

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


def save_metrics_csv(runs: list[tuple[str, str, Metrics]], path) -> None:
    """Write one CSV row per run; a diverged settle time is left blank."""
    if not runs:
        raise ValueError("save_metrics_csv needs at least one run")
    labels = [_label(platform, controller) for platform, controller, _ in runs]
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for label, (_, _, m) in zip(labels, runs):
            settle = "" if m.settle_time is None else repr(float(m.settle_time))
            writer.writerow([label, settle, repr(float(m.u_inf)),
                             repr(float(m.u_pct_max)),
                             repr(float(m.pole_vel_max)),
                             m.stabilization_quality,
                             repr(float(m.scattering_score))])
