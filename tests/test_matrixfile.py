"""Tests for the plain-text matrix file format."""

import numpy as np
import pytest

from pendulum_ctl.matrixfile import format_matrix, read_matrix_file, write_matrix_file


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
