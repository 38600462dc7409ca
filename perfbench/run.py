"""pendulum-ctl benchmark: three workloads, timed end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_pulse --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout, in this one process
and thread, as a closed loop with one client: each operation starts when
the previous one ends. The timed work is one pass over the workload's
operations; passes repeat while the next one is expected to end within
--seconds. Every operation's output is checked after its timer stops.

--trace 0 prints the end-to-end metrics. Their times are rescaled to a
reference machine speed, tracked by a calibration chunk timed between
operations, because a shared virtual machine can drift by 30% between runs;
raw times are printed beside them. --trace 1 spends half the time untraced
and half with every layer function wrapped in a span, and prints the
per-layer metrics. Both print every metric they measured as
``name value unit n=samples`` lines, then one JSON line with ``correct``,
``attempted``, ``failed`` and the metrics listed in BENCHMARK.json. A
record with the environment, the input sizes and any failures goes to
``.perfbench_out/`` at the checkout root, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform as platform_mod
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# One thread, as in a single-client closed loop: an idle BLAS worker thread
# would otherwise spin on the second core between the package's small
# matrix calls. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 0
DEFAULT_REFERENCES = os.path.join(HERE, "references.json")
SETUP_SAMPLES = {"full": 5, "tiny": 1}
# A shared virtual machine's speed drifts by 10-30% within seconds and between
# minutes. A fixed calibration chunk, timed between operations about every
# CALIBRATION_EVERY_S and around each set-up process, tracks that speed;
# setup_s and the *_ref metrics rescale each time to the speed at which the
# chunk takes REFERENCE_CALIBRATION_S.
CALIBRATION_EVERY_S = 0.25
REFERENCE_CALIBRATION_S = 0.009
_CAL_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0 + 4.0 * np.eye(8)


def _import_package():
    """Import the package and the workloads from this checkout's source."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pendulum_ctl", "__init__.py")):
        sys.exit(f"perfbench: no package source under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import pendulum_ctl
    import workloads

    if os.path.dirname(os.path.abspath(pendulum_ctl.__file__)) != os.path.join(src, "pendulum_ctl"):
        sys.exit(f"perfbench: imported pendulum_ctl from {pendulum_ctl.__file__}, not {src}")
    return workloads


def _tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it.

    Taken over one pass's operations, so it does not change with the
    number of passes; fewer than 20 operations report the maximum.
    """
    if n < 20:
        return 100
    return math.floor(100.0 * (1.0 - 10.0 / n))


def _percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": args.seed, "git_sha": _git_sha(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform_mod.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to its first timed operation.

    Returns the raw samples and the same at reference speed, each rescaled
    by calibration chunks timed just before and just after its process.
    """
    raw, ref = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--references", args.references]
    for _ in range(SETUP_SAMPLES[args.size]):
        before = _time_calibration_chunk()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up child failed with exit code {code}")
        after = _time_calibration_chunk()
        raw.append(ready - start)
        ref.append(raw[-1] * 2 * REFERENCE_CALIBRATION_S / (before + after))
    return raw, ref


def _calibration_chunk() -> None:
    """Fixed work that shares no code with the package: a pure-Python float
    loop and small dense linear algebra, the two kinds of work the
    workloads do."""
    total = 0.0
    for i in range(60000):
        total += i * 0.5
    for _ in range(80):
        np.linalg.eigvals(_CAL_MATRIX)
        np.linalg.solve(_CAL_MATRIX, _CAL_MATRIX[0])
        _CAL_MATRIX @ _CAL_MATRIX


def _time_calibration_chunk() -> float:
    t0 = time.perf_counter()
    _calibration_chunk()
    return time.perf_counter() - t0


class Passes:
    """Operation latencies, calibration samples and failures of one mode."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.calibration: list[tuple[int, float]] = []  # (next op index, seconds)
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def latencies(self) -> list[float]:
        return [t for one in self.passes for t in one]

    def _calibrate(self) -> float:
        self.calibration.append((self.attempted, _time_calibration_chunk()))
        return time.perf_counter()

    def reference_latencies(self) -> list[list[float]]:
        """Each latency rescaled by the calibration samples on either side of it."""
        marks = [k for k, _ in self.calibration]
        chunk = [t for _, t in self.calibration]
        flat = []
        for k, latency in enumerate(self.latencies):
            before = bisect.bisect_right(marks, k) - 1
            after = min(before + 1, len(chunk) - 1)
            flat.append(latency * 2 * REFERENCE_CALIBRATION_S / (chunk[before] + chunk[after]))
        n = len(self.passes[0])
        return [flat[i:i + n] for i in range(0, len(flat), n)]

    def run(self, workload, budget: float, tracer=None) -> None:
        start = last_cal = self._calibrate()
        while True:
            pass_start = time.perf_counter()
            latencies = []
            for i in range(workload.n_ops):
                if time.perf_counter() - last_cal >= CALIBRATION_EVERY_S:
                    last_cal = self._calibrate()
                if tracer is not None:
                    tracer.op = self.attempted
                t0 = time.perf_counter()
                try:
                    out = workload.run(i)
                    error = None
                except Exception as exc:  # a raising operation is a counted failure
                    out, error = None, exc
                latencies.append(time.perf_counter() - t0)
                self.attempted += 1
                problem = f"raised {error!r}" if error else workload.check(i, out)
                if problem:
                    self.failures.append(f"{workload.name} op {i}: {problem}")
            self.passes.append(latencies)
            now = last_cal = self._calibrate()
            if now - start + (now - pass_start) > budget:
                return


def _op_medians(passes: list[list[float]]) -> list[float]:
    """Each operation's median latency over the passes.

    Latency statistics are taken over these, so a slow spell drops the
    operations it hit rather than whole passes, and the tail reflects the
    inputs rather than the spell.
    """
    return [statistics.median(times) for times in zip(*passes)]


def _latency_metrics(passes: list[list[float]], tail: int, suffix: str) -> dict:
    per_op = _op_medians(passes)
    n = len(per_op)
    return {
        f"wall{suffix}_s": (sum(per_op), "s", len(passes)),
        f"op{suffix}_ms_p50": (1e3 * statistics.median(per_op), "ms", n),
        f"op{suffix}_ms_tail": (1e3 * _percentile(per_op, tail), "ms", n),
    }


def _e2e(passes: Passes, workload, setup: tuple[list[float], list[float]]) -> dict:
    """End-to-end metrics of the untraced passes, at reference speed and as measured."""
    tail = _tail_percentile(workload.n_ops)
    setup_raw, setup_ref = setup
    metrics = {"setup_s": (statistics.median(setup_ref), "s", len(setup_ref))}
    metrics.update(_latency_metrics(passes.reference_latencies(), tail, "_ref"))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", 1)
    metrics["setup_raw_s"] = (statistics.median(setup_raw), "s", len(setup_raw))
    metrics.update(_latency_metrics(passes.passes, tail, ""))
    metrics["op_tail_pct"] = (tail, "percentile", 1)
    metrics["calibration_ms"] = (1e3 * statistics.median(t for _, t in passes.calibration),
                                 "ms", len(passes.calibration))
    return metrics


def _workload_e2e(e2e: dict, workload) -> dict:
    """The issue's per-workload names, from the measured metrics; 0 where one does not apply."""
    wall, k = e2e["wall_s"][0], e2e["wall_s"][2]
    n = e2e["op_ms_p50"][2]
    tail = e2e["op_tail_pct"][0]
    out = {"ticks_per_s": (workload.ticks / wall, "1/s", k)}
    for prefix, name in (("run", "mc_sweep"), ("design", "design_sweep")):
        applies = workload.name == name
        out[f"{prefix}_ms_p50"] = (e2e["op_ms_p50"][0] if applies else 0.0, "ms",
                                   n if applies else 0)
        out[f"{prefix}_ms_tail"] = (e2e["op_ms_tail"][0] if applies else 0.0, "ms",
                                    n if applies else 0)
        out[f"{prefix}_ms_tail_pct"] = (tail if applies else 0, "percentile", 1)
    out["designs_per_s"] = (workload.n_ops / wall if workload.name == "design_sweep"
                            else 0.0, "1/s", k)
    return out


def _layer_metrics(summary: dict, tracer, traced: Passes, untraced: Passes) -> dict:
    k = len(traced.passes)
    busy, calls, failed = summary["busy_s"], summary["calls"], summary["failed"]
    counters = tracer.counters

    def total(key: str) -> float:
        return counters.get(key, 0) / k

    def per_call_us(*names: str) -> tuple:
        n = sum(calls.get(x, 0) for x in names)
        t = sum(busy.get(x, 0.0) for x in names)
        return (1e6 * t / n if n else 0.0, "us", n)

    sim_busy = busy.get("simulate", 0.0) / k
    ticks = total("simulate.ticks")
    save_s = busy.get("save_trace_csv", 0.0) / k
    synth = ("lqr_gain", "nxtway_integral_lqr", "design_smc")
    out = {
        "plants.params_calls": (sum(calls.get(x, 0) for x in
                                    ("default_params", "params_from_mapping")) / k,
                                "count", k),
        "plants.params_us": per_call_us("default_params", "params_from_mapping"),
        "linearize.closed_form_us": per_call_us("rotpen_statespace_closed_form",
                                                "nxtway_statespace_closed_form"),
        "linearize.jacobian_us": per_call_us("jacobian_linearize"),
        "linearize.zoh_us": per_call_us("discretize_zoh"),
        "synthesis.lqr_us": per_call_us("lqr_gain", "nxtway_integral_lqr"),
        "synthesis.smc_us": per_call_us("design_smc"),
        "synthesis.stability_us": per_call_us("stability_report"),
        "synthesis.save_design_us": per_call_us("save_design"),
        "synthesis.load_design_us": per_call_us("load_design"),
        "synthesis.attempts": (sum(calls.get(x, 0) for x in synth) / k, "count", k),
        "synthesis.failures": (sum(failed.get(x, 0) for x in synth) / k, "count", k),
        "synthesis.residual_max": (max(tracer.residuals, default=0.0), "ratio",
                                   len(tracer.residuals)),
        "simulate.us_per_tick": (1e6 * sim_busy / ticks if ticks else 0.0, "us", k),
        "simulate.busy_s": (sim_busy, "s", k),
        "simulate.calls": (calls.get("simulate", 0) / k, "count", k),
        "simulate.ticks": (ticks, "count", k),
        "simulate.rk4_steps": (total("simulate.rk4_steps"), "count-computed", k),
        "simulate.rhs_calls": (4 * total("simulate.rk4_steps"), "count-computed", k),
        "simulate.saturated_ticks": (total("simulate.saturated_ticks"), "count", k),
        "simulate.diverged_runs": (total("simulate.diverged_runs"), "count", k),
        "simulate.save_trace_s": (save_s, "s", k),
        "simulate.trace_bytes": (total("simulate.trace_bytes"), "bytes", k),
        "simulate.trace_rows_per_s": (total("simulate.trace_rows") / save_s if save_s else 0.0,
                                      "rows/s", k),
        "metrics.compute_us": per_call_us("compute_metrics"),
        "metrics.save_csv_us": per_call_us("save_metrics_csv"),
    }
    for layer, seconds in summary["self_s"].items():
        out[f"{layer}.self_s"] = (seconds / k, "s", k)
    traced_wall = sum(_op_medians(traced.reference_latencies()))
    out["trace.unattributed_s"] = (summary["unattributed_s"] / k, "s", k)
    out["trace.wall_ref_s"] = (traced_wall, "s", k)
    # at reference speed, so the drift between the two halves does not count
    out["trace.overhead_s"] = (traced_wall - sum(_op_medians(untraced.reference_latencies())),
                               "s", k)
    out["trace.spans"] = (len(tracer.spans) / k, "count", k)
    return out


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value!r} {unit} n={n}")


def _load_references(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _write_references(path: str, workload, seed: int) -> None:
    refs = _load_references(path)
    refs[workload.name] = workload.reference_record(refs, seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--references", default=DEFAULT_REFERENCES,
                        help="reference digests to check outputs against")
    parser.add_argument("--write-references", action="store_true",
                        help="record this run's output digests as the references")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the program receives only the inputs the benchmark generates
    os.environ.pop("PENDULUM_CTL_CONFIG", None)
    workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    # a run that records references compares against none
    references = {} if args.write_references else _load_references(args.references)
    build = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
            build(args.seed, args.size, work, references)
            print("ready", flush=True)
        return 0

    setup = _measure_setup(args)
    tag = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        workload = build(args.seed, args.size, work, references)
        untraced = Passes()
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced.run(workload, budget)
        metrics = _e2e(untraced, workload, setup)
        metrics.update(_workload_e2e(metrics, workload))
        runs = [untraced]
        record = {}
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            traced = Passes()
            try:
                traced.run(workload, budget, tracer)
            finally:
                uninstall()
            runs.append(traced)
            summary = tracing.summarize(tracer, sum(traced.latencies))
            metrics.update(_layer_metrics(summary, tracer, traced, untraced))
            metrics.update({k: (v, "V" if k.endswith("_v") else "ratio", 1)
                            for k, v in workloads.acceptance_figures().items()})
            spans_path = os.path.join(OUT_DIR, f"spans-{tag}.json")
            tracer.write(spans_path)
            record["traced"] = {"spans": os.path.relpath(spans_path, ROOT),
                                "wall_s_total": sum(traced.latencies),
                                "unattributed_s_total": summary["unattributed_s"],
                                "self_s_total": summary["self_s"]}
        if args.write_references:
            _write_references(args.references, workload, args.seed)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    metrics["fail_ratio"] = (len(failures) / attempted, "ratio", attempted)
    env = _environment(args)
    print(f"# perfbench workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={'/'.join(str(len(r.passes)) for r in runs)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# input " + " ".join(f"{k}={v}" for k, v in workload.size_info.items()))
    _print_metrics(metrics)
    for problem in failures[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    record.update(env=env, workload=args.workload, size=args.size, trace=args.trace,
                  input=workload.size_info, failures=failures,
                  pass_latencies=[r.passes for r in runs],
                  calibration=[r.calibration for r in runs],
                  metrics={k: {"value": v, "unit": u, "samples": n}
                           for k, (v, u, n) in metrics.items()})
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
