"""The plain-text matrix file format shared by models and designs, and
write_whole, which publishes every output file the package writes.

A file holds # comment lines, ``key = value`` lines and matrix blocks. A
block is a ``[name] rows=R cols=C`` header followed by R lines of C
numbers, each written with repr so it reads back bit for bit.

write_whole writes a file beside its target and moves it in when it is
complete, so a reader of a design, a state-space file, a trace, a metrics
CSV or a comparison report finds the old file or the new one, never part
of either.
"""

from __future__ import annotations

import os
import re
import stat
from itertools import islice

import numpy as np

__all__ = ["format_matrix", "write_matrix_file", "read_matrix_file", "write_whole"]

_HEADER = re.compile(r"\[([^\]]+)\]\s+rows=(\d+)\s+cols=(\d+)")


def format_matrix(name: str, M) -> list[str]:
    """Lines of one block: the header, then one line per row (1-D is one row)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"[{name}] rows={M.shape[0]} cols={M.shape[1]}"]
    lines.extend(" ".join(map(repr, row)) for row in M.tolist())
    return lines


def write_whole(path, write, mode: str = "w", **open_kwargs) -> None:
    """Create or replace the file at path with what write(fh) writes, whole.

    write gets a new file, opened with mode ("w" or "wb") and open_kwargs
    under a hidden, unique name (.<name>.<pid>-<random>.part) beside the
    file that path reaches, its symlinks followed, so a symlinked path keeps
    its link. The new file takes an existing file's permission bits. When
    write returns, the old file is unlinked and the new one renamed onto its
    name: a reader sees the old bytes, the new bytes or, for a few µs, no
    file, but never a part of one. Unlinking first matters: ext4's
    auto_da_alloc starts writeback on the close of a file truncated to zero
    and on a rename over an existing file, which cost tens of µs up to about
    150 µs of each design file rewritten. Any exception, an interrupt
    included, propagates after it removes the .part file and keeps the old
    file, or, once the old file is unlinked, moves the whole .part file in.

    The new file is a new inode: another hard link to the old file keeps
    the old bytes, and the owner is this process's user. In a sticky folder
    such as /tmp, another user's file cannot be unlinked, so the call fails
    with PermissionError and the old file stays. Nothing is synced, as with
    a plain write. Where a rename cannot publish, the file is written in
    place through path, as open(path, mode) would: when path reaches an
    existing node that is not a regular file (/dev/null, a FIFO), or a
    folder in which this process may not create a file. A failure there
    leaves what was written.
    """
    target = os.path.realpath(path) if os.path.islink(path) else path
    folder, name = os.path.split(target)
    try:
        old = os.stat(target)
    except FileNotFoundError:
        old = None
    if ((old is not None and not stat.S_ISREG(old.st_mode))
            or not os.access(folder or os.curdir, os.W_OK | os.X_OK)):
        with open(path, mode, **open_kwargs) as fh:
            write(fh)
        return
    part = os.path.join(folder, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.part")
    fh = open(part, mode.replace("w", "x"), **open_kwargs)  # O_CREAT | O_EXCL, 0o666
    try:
        with fh:
            if old is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            write(fh)
        if old is not None:
            os.unlink(target)
        os.rename(part, target)
    except BaseException:
        if old is not None and not os.path.lexists(target):  # unlinked: the new file is whole
            os.rename(part, target)
        else:
            os.unlink(part)
        raise


def write_matrix_file(path, title: str, meta: dict, blocks: dict) -> None:
    """Write a # title line, key = value lines, then each block whose matrix
    is not None, published whole by write_whole."""
    lines = [f"# {title}"] + [f"{key} = {value}" for key, value in meta.items()]
    for name, M in blocks.items():
        if M is not None:
            lines.extend(format_matrix(name, M))
    text = "\n".join(lines) + "\n"
    write_whole(path, lambda fh: fh.write(text), encoding="utf-8")


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
