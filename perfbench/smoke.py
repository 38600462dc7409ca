"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that every workload runs and emits every metric BENCHMARK.json
names, that a traced run's spans add up (layer self times plus the
unattributed remainder equal the traced wall time), that a corrupted
reference digest is reported as a failure, and that the benchmark refuses
to run without the package source. Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("paper_pulse", "mc_sweep", "design_sweep")

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}")


def bench(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def check_spans(workload: str) -> None:
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed0-tiny-trace1.json"),
              encoding="utf-8") as fh:
        traced = json.load(fh)["traced"]
    with open(os.path.join(ROOT, traced["spans"]), encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, op, failed in spans:
        expect(end >= start and op >= 0, f"{workload}: span {name} is malformed")
        if parent >= 0:
            child[parent] += end - start
    self_total = sum(end - start - child[i]
                     for i, (_, _, start, end, *_rest) in enumerate(spans))
    wall = traced["wall_s_total"]
    rest = traced["unattributed_s_total"]
    expect(rest >= 0.0, f"{workload}: negative unattributed time {rest}")
    expect(abs(self_total + rest - wall) <= 1e-6 * max(1.0, wall),
           f"{workload}: self times {self_total} + unattributed {rest} != wall {wall}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = bench(workload, trace)
            expect(result is not None, f"{workload} trace {trace}: no result "
                   f"(exit {proc.returncode}): {proc.stderr[-500:]}")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: outputs failed their checks")
            wanted = {m["name"] for m in spec[key]}
            expect(set(result["metrics"]) == wanted,
                   f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
            if not trace:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{workload}: an end-to-end metric reads 0")
            printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1]
                       if line and not line.startswith("#")}
            expect(wanted <= printed, f"{workload} trace {trace}: metrics not printed "
                   f"as name value unit: {sorted(wanted - printed)}")
            if trace:
                check_spans(workload)

    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    refs["paper_pulse"]["tiny"]["rotpen-lqr"]["trace_sha256"] = "0" * 64
    refs["mc_sweep"]["cases"][0] = "0" * 16
    refs["design_sweep"]["cases"][1] = "0" * 16
    corrupt = os.path.join(OUT_DIR, "smoke-corrupt-references.json")
    with open(corrupt, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    for workload in WORKLOADS:
        proc, result = bench(workload, 0, "--references", corrupt)
        expect(result is not None and not result["correct"] and result["failed"] >= 1,
               f"{workload}: a corrupted reference digest was not reported as a failure")

    bare = os.path.join(OUT_DIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = bench("paper_pulse", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and result is None,
           "without the package source the benchmark did not fail")

    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
