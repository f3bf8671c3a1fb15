"""Plain-text matrix and vector files.

Matrix files: first line ``rows cols``, then ``rows * cols`` whitespace
separated entries in row-major order.  Vector files: first line ``len``, then
the entries.  Floats are written with shortest round-trip formatting, so a
write/read cycle is lossless.
"""

import numpy as np

from .linalg import as_integer

__all__ = ["read_matrix", "write_matrix", "read_vector", "write_vector"]


def _read_tokens(path, header_names):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    body = [line for line in lines if line.strip()]
    if not body:
        raise ValueError(f"{path}: empty file")
    header = body[0].split()
    if len(header) != len(header_names):
        raise ValueError(f"{path}: expected {len(header_names)} header field(s), got {len(header)}")
    try:
        dims = [int(tok) for tok in header]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {body[0]!r}") from exc
    dims = [as_integer(value, f"{path}: {name}", 1) for value, name in zip(dims, header_names)]
    tokens = [tok for line in body[1:] for tok in line.split()]
    try:
        values = np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric entry") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: entries must be finite")
    return dims, values


def read_matrix(path):
    (rows, cols), values = _read_tokens(path, ("rows", "cols"))
    if values.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, found {values.size}")
    return values.reshape(rows, cols)


def write_matrix(path, matrix):
    m = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_vector(path):
    (length,), values = _read_tokens(path, ("length",))
    if values.size != length:
        raise ValueError(f"{path}: expected {length} entries, found {values.size}")
    return values


def write_vector(path, vec):
    v = np.asarray(vec, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{v.shape[0]}\n")
        for value in v:
            fh.write(repr(float(value)) + "\n")
