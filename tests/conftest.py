"""Shared pytest plumbing for the suite.

The acceptance tests record one verdict line each; the terminal summary
hook prints them after the run so every criterion shows a visible PASS
or FAIL regardless of output capturing. Every test must also reap each
child process it starts and close each file descriptor it opens, the
trace file included, also when the trace writer fails. The report header
names the tick loop each platform runs and the trace formatter, C or
Python, and where the LAPACK and expm kernels came from, loaded directly
or through scipy.linalg, so a fallback shows in every log.
"""

import os
import shutil

import pytest

_verdicts: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Callable the acceptance tests use to record their verdict line."""
    return _verdicts.append


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} behind")


def _open_fds():
    """Descriptors open in this process, or None where /proc/self/fd is missing."""
    try:
        names = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return None
    found = set()
    for name in names:
        try:  # the listing's own descriptor is closed by now
            os.fstat(int(name))
        except OSError:
            continue
        found.add(int(name))
    return found


@pytest.fixture(autouse=True)
def no_file_descriptor_left():
    """Fail a test that leaves a file descriptor open."""
    before = _open_fds()
    yield
    if before is not None and (leaked := _open_fds() - before):
        pytest.fail(f"the test left file descriptors {sorted(leaked)} open")


def pytest_report_header(config):
    """Native, or Python and why, for each platform's tick loop and for the trace formatter;
    direct, or scipy.linalg and why, for the LAPACK and expm kernels."""
    from pendulum_ctl import linearize, plants, simulate

    why = "no cc on PATH" if shutil.which("cc") is None else "cc present, not native"
    return ["tick loop: " + ", ".join(
        f"{platform} {'native' if plants._native_library(platform) else f'Python ({why})'}"
        for platform in ("rotpen", "nxtway")),
        f"trace formatter: {'native' if simulate._formatter() else f'Python ({why})'}",
        f"LAPACK and expm kernels: {linearize.scipy_kernels()[2]}"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdicts:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts:
            terminalreporter.write_line(line)
