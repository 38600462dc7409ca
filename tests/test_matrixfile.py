"""Tests for the plain-text matrix file format and write_whole's publishing."""

import os
import stat
import sys
import threading

import numpy as np
import pytest

from pendulum_ctl.matrixfile import (
    format_matrix,
    read_matrix_file,
    write_matrix_file,
    write_whole,
)
from pendulum_ctl.plants import default_params
from pendulum_ctl.synthesis import load_design, nominal_lqr, nominal_smc, save_design


def _format_matrix_per_element(name, M):
    """The block as first written: repr(float(v)) of every numpy scalar."""
    M = np.atleast_2d(M)
    lines = [f"[{name}] rows={M.shape[0]} cols={M.shape[1]}"]
    for row in M:
        lines.append(" ".join(repr(float(v)) for v in row))
    return lines


CASES = [
    np.array([[1.5, -2.25e-7], [3.0e300, 1.0 / 3.0]]),
    np.array([[1, -2, 0], [7, 3, 12345678901]]),
    np.array([[True, False], [False, True]]),
    np.array([[-0.0, 0.0, 5e-324, -5e-324]]),
    np.array([[np.nan, np.inf, -np.inf]]),
    np.array([0.1, 0.2, 0.30000000000000004]),
    np.array([2.5]),
    np.float32([[0.1, 16777217.0]]),
    [[1, 2.5], [3, 4]],
    np.random.default_rng(3).normal(size=(5, 5)) * 10.0 ** np.arange(-12, 13, 5),
]


@pytest.mark.parametrize("M", CASES, ids=range(len(CASES)))
def test_format_matrix_matches_the_per_element_form(M):
    assert format_matrix("X", M) == _format_matrix_per_element("X", M)


def test_format_matrix_prints_integers_as_floats():
    assert format_matrix("K", np.array([[1, 0]])) == ["[K] rows=1 cols=2", "1.0 0.0"]
    assert format_matrix("b", [True]) == ["[b] rows=1 cols=1", "1.0"]


def test_matrix_file_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "m.txt"
    blocks = {"A": CASES[0], "Z": CASES[3], "v": CASES[5], "none": None}
    write_matrix_file(path, "title", {"kind": "test"}, blocks)
    meta, matrices = read_matrix_file(path, lambda meta, matrices: (meta, matrices))
    assert meta == {"kind": "test"} and set(matrices) == {"A", "Z", "v"}
    for name in matrices:
        want = np.atleast_2d(np.asarray(blocks[name], dtype=float))
        assert matrices[name].tobytes() == want.tobytes()


def test_write_whole_writes_in_place_where_the_folder_refuses_a_new_file(tmp_path,
                                                                         monkeypatch):
    # os.access stands in for a folder this process may not write into
    # (the suite may run as root): the old file is rewritten, the same inode
    path = tmp_path / "m.txt"
    path.write_text("old and longer\n")
    inode = path.stat().st_ino
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    write_whole(path, lambda fh: fh.write("new\n"))
    assert path.read_text() == "new\n" and path.stat().st_ino == inode
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]


def test_write_whole_writes_in_place_into_a_fifo(tmp_path):
    # a node that is not a regular file is written through, not replaced
    path = tmp_path / "pipe"
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    reader.start()
    write_whole(path, lambda fh: fh.write(b"through the pipe\n"), "wb")
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [b"through the pipe\n"]
    assert stat.S_ISFIFO(os.lstat(path).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_a_reader_never_sees_part_of_a_design(tmp_path):
    # a thread loads the design while 200 rewrites alternate two designs:
    # each load finds one of them whole or, between unlink and rename, no
    # file; a truncated or half-written file would raise ValueError
    params = default_params("rotpen")
    designs = [nominal_lqr(params), nominal_smc(params)]
    path = tmp_path / "design.txt"
    save_design(designs[0], path, "rotpen")
    done, loads, errors = threading.Event(), [], []

    def read():
        while not done.is_set():
            try:
                loads.append(type(load_design(path, "rotpen")))
            except FileNotFoundError:
                loads.append(None)
            except Exception as exc:  # recorded for the assertion below
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    reader = threading.Thread(target=read, daemon=True)
    try:
        reader.start()
        for i in range(200):
            save_design(designs[i % 2], path, "rotpen")
    finally:
        done.set()
        reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not reader.is_alive() and errors == []
    assert {type(d) for d in designs} & set(loads)
    assert [p.name for p in tmp_path.iterdir()] == ["design.txt"]


def _flaky(monkeypatch, name, error, times=1):
    """Make os.<name> raise error on its first times calls; return the calls' arguments."""
    real, calls = getattr(os, name), []

    def call(*args):
        calls.append(args)
        if len(calls) <= times:
            raise error(f"{name} fails")
        return real(*args)
    monkeypatch.setattr(os, name, call)
    return calls


@pytest.mark.parametrize("old", [b"old\n", None], ids=["replaced", "new"])
@pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
def test_a_rename_that_fails_once_leaves_the_old_or_the_new_bytes(tmp_path, monkeypatch,
                                                                  error, old):
    # past the unlink, the complete new file is moved in all the same; with
    # no old file the .part file is removed, as before any publish
    path = tmp_path / "m.txt"
    if old is not None:
        path.write_bytes(old)
    calls = _flaky(monkeypatch, "rename", error)
    with pytest.raises(error):
        write_whole(path, lambda fh: fh.write("new\n"))
    if old is None:
        assert not path.exists() and len(calls) == 1
    else:
        assert path.read_bytes() == b"new\n" and len(calls) == 2
    assert [p.name for p in tmp_path.iterdir()] == (["m.txt"] if old else [])


def test_an_unlink_that_fails_leaves_the_old_bytes(tmp_path, monkeypatch):
    path = tmp_path / "m.txt"
    path.write_bytes(b"old\n")
    _flaky(monkeypatch, "unlink", PermissionError)
    with pytest.raises(PermissionError):
        write_whole(path, lambda fh: fh.write("new\n"))
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]


def test_a_rename_that_always_fails_past_the_unlink_leaves_the_new_bytes_in_the_part_file(
        tmp_path, monkeypatch):
    # the one case that leaves a .part file: no rename succeeds once the old
    # file is gone, so the .part file keeps the only copy, the new bytes
    path = tmp_path / "m.txt"
    path.write_bytes(b"old\n")
    _flaky(monkeypatch, "rename", OSError, times=2)
    with pytest.raises(OSError):
        write_whole(path, lambda fh: fh.write("new\n"))
    [part] = tmp_path.iterdir()
    assert part.name.startswith(".m.txt.") and part.name.endswith(".part")
    assert part.read_bytes() == b"new\n"
