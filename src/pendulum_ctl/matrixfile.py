"""The plain-text matrix file format shared by models and designs.

A file holds # comment lines, ``key = value`` lines and matrix blocks. A
block is a ``[name] rows=R cols=C`` header followed by R lines of C
numbers, each written with repr so it reads back bit for bit.
"""

from __future__ import annotations

import re
from itertools import islice

import numpy as np

__all__ = ["format_matrix", "write_matrix_file", "read_matrix_file"]

_HEADER = re.compile(r"\[([^\]]+)\]\s+rows=(\d+)\s+cols=(\d+)")


def format_matrix(name: str, M) -> list[str]:
    """Lines of one block: the header, then one line per row (1-D is one row)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"[{name}] rows={M.shape[0]} cols={M.shape[1]}"]
    lines.extend(" ".join(map(repr, row)) for row in M.tolist())
    return lines


def write_matrix_file(path, title: str, meta: dict, blocks: dict) -> None:
    """Write a # title line, key = value lines, then each block whose matrix is not None."""
    lines = [f"# {title}"] + [f"{key} = {value}" for key, value in meta.items()]
    for name, M in blocks.items():
        if M is not None:
            lines.extend(format_matrix(name, M))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_file(path, build):
    """Parse a file into key -> text and name -> 2-D array maps; return build(meta, matrices).

    A malformed line, or a KeyError or ValueError from build for a missing
    or bad entry, raises ValueError naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        stripped = [line.strip() for line in fh]
    lines = iter([line for line in stripped if line and not line.startswith("#")])
    meta: dict[str, str] = {}
    matrices: dict[str, np.ndarray] = {}
    try:
        for line in lines:
            head = _HEADER.fullmatch(line)
            if head:
                name, rows, cols = head[1], int(head[2]), int(head[3])
                data = [[float(v) for v in row.split()] for row in islice(lines, rows)]
                if len(data) < rows or any(len(row) != cols for row in data):
                    raise ValueError(f"block [{name}] is not {rows} rows of "
                                     f"{cols} numbers")
                matrices[name] = np.array(data, dtype=float).reshape(rows, cols)
            elif "=" in line and not line.startswith("["):
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
            else:
                raise ValueError(f"malformed line {line!r}")
        return build(meta, matrices)
    except KeyError as exc:
        raise ValueError(f"{path}: missing required entry {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
