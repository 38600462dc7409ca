"""Smoke test: every demo script runs to completion as a user would run it."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of the stdout of the demos whose printed report is pinned
STDOUT_SHA256 = {
    "balance_comparison": "9b34d7af6723d02a5cd7940364cf58487b4f63a9556015fdf88ba95276c7c41f",
}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    if demo.stem in STDOUT_SHA256:
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
