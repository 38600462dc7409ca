"""Span recording around the package's public layer functions.

A traced run replaces each layer function, in every module that binds
it, with a timing wrapper. The benchmark's own calls go through the layer
modules (``plants.params_from_mapping``), the command line through the
names ``pendulum_ctl.cli`` imported (``cli.simulate``), so both paths are
timed. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

# (layer, function) pairs that get a span; ``run`` is the CLI entry point
LAYER_FUNCTIONS = {
    "plants": ("default_params", "params_from_mapping"),
    "linearize": ("rotpen_statespace_closed_form", "nxtway_statespace_closed_form",
                  "jacobian_linearize", "discretize_zoh"),
    "synthesis": ("lqr_gain", "nxtway_integral_lqr", "design_smc",
                  "stability_report", "save_design", "load_design"),
    "simulate": ("simulate", "save_trace_csv"),
    "metrics": ("compute_metrics", "save_metrics_csv"),
    "cli": ("run",),
}
LAYERS = tuple(LAYER_FUNCTIONS)
# params_from_mapping calls default_params through its own module's global;
# wrapping that binding would count each perturbed parameter set twice
UNWRAPPED_HOME = {("plants", "default_params")}
# pseudo-layer for the counters the wrappers take from returned values
OBSERVE_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    failed: bool = False


@dataclass
class Tracer:
    """In-memory span store plus the counters observed at layer boundaries."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    residuals: list = field(default_factory=list)
    op: int = -1
    _stack: list = field(default_factory=list)

    def open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op",
                                  "failed"],
                       "spans": [[s.name, s.layer, s.start, s.end, s.parent, s.op,
                                  s.failed] for s in self.spans]}, fh)
            fh.write("\n")


def _observe(tracer: Tracer, name: str, args, result) -> None:
    """Counters read off a layer call's arguments and result."""
    if name == "simulate":
        cfg = args[2]
        rows = int(result.t.size)
        tracer.count("simulate.ticks", rows)
        tracer.count("simulate.rk4_steps",
                     rows * round(cfg.controller_Ts / cfg.plant_dt))
        tracer.count("simulate.saturated_ticks",
                     int(np.count_nonzero(result.u_command != result.u_applied)))
        tracer.count("simulate.diverged_runs", int(result.diverged))
    elif name == "save_trace_csv":
        tracer.count("simulate.trace_rows", int(args[0].t.size))
        tracer.count("simulate.trace_bytes", os.path.getsize(args[1]))
    elif name in ("lqr_gain", "nxtway_integral_lqr"):
        tracer.residuals.append(
            result.residual / (1.0 + float(np.linalg.norm(result.P))))


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    def traced(*args, **kwargs):
        index = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, failed=True)
            raise
        tracer.close(index)
        if name in ("simulate", "save_trace_csv", "lqr_gain", "nxtway_integral_lqr"):
            obs = tracer.open(OBSERVE_LAYER, "observe")
            try:
                _observe(tracer, name, args, result)
            finally:
                tracer.close(obs)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def install(tracer: Tracer):
    """Wrap every binding of the layer functions; return a function that undoes it."""
    import importlib

    saved = []
    modules = {layer: importlib.import_module(f"pendulum_ctl.{layer}")
               for layer in LAYERS}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            original = getattr(modules[layer], name)
            wrapper = _wrap(tracer, layer, name, original)
            for owner, module in modules.items():
                if owner == layer and (layer, name) in UNWRAPPED_HOME:
                    continue
                if getattr(module, name, None) is original:
                    saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall():
        for module, name, original in saved:
            setattr(module, name, original)

    return uninstall


def summarize(tracer: Tracer, op_wall_s: float) -> dict:
    """Self time per layer, busy time and calls per function, unattributed rest.

    ``op_wall_s`` is the summed duration of the timed operations the spans
    were recorded in; what no top-level span covers is unattributed.
    """
    child = [0.0] * len(tracer.spans)
    top = 0.0
    for span in tracer.spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
        else:
            top += span.end - span.start
    self_s = {layer: 0.0 for layer in LAYERS + (OBSERVE_LAYER,)}
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    for i, span in enumerate(tracer.spans):
        duration = span.end - span.start
        self_s[span.layer] += duration - child[i]
        busy[span.name] = busy.get(span.name, 0.0) + duration
        calls[span.name] = calls.get(span.name, 0) + 1
        failed[span.name] = failed.get(span.name, 0) + int(span.failed)
    return {"self_s": self_s, "busy_s": busy, "calls": calls, "failed": failed,
            "unattributed_s": op_wall_s - top}
