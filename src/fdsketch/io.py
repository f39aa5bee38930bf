"""File formats: row streams (CSV or binary) and serialized sketches.

Row streams
    CSV: one row per line, exactly d comma-separated finite decimals,
    written with shortest-round-trip repr so CSV and binary carry identical
    bits. Binary: magic ``FDRW``, then d as u64 little-endian, then float64
    little-endian values row-major.

Sketch record
    Magic ``FDSK``, version u16, then k, ell, m, d, rows_seen as u64 LE,
    then eps, delta_sum, input_frob_sq as f64 LE, then the m*d row-major
    float64 buffer. Loading reproduces the stored values bit for bit.

    The buffer holds its nonzero rows first and at least one zero row. At
    any m, m == ell included, they may hold rows not yet shrunk (a sketch
    saved before its buffer first filled holds its rows as streamed), so a
    loaded sketch counts them all as pending. Loading rejects non-finite
    values, eps <= 0, ell != sketch_rows_for(k, eps), a negative delta_sum
    or input_frob_sq, and a buffer that breaks that row layout.
"""
from __future__ import annotations

import contextlib
import os
import struct
import sys
from typing import Iterator, Optional

import numpy as np

from .sketch import FdParams, FdSketch, sketch_rows_for

ROWS_MAGIC = b"FDRW"
SKETCH_MAGIC = b"FDSK"
SKETCH_VERSION = 1
_SKETCH_HEADER = struct.Struct("<4sH5Q3d")
_ROWS_HEADER = struct.Struct("<4sQ")


class RowStreamError(ValueError):
    """Malformed row data; carries the 1-based line (or row) number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class SketchFormatError(ValueError):
    """Corrupt or unsupported sketch file."""


def sniff_format(path: str) -> str:
    with open(path, "rb") as fh:
        head = fh.read(4)
    return "binary" if head == ROWS_MAGIC else "csv"


def _iter_rows_csv(path: str) -> Iterator[np.ndarray]:
    d: Optional[int] = None
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            tokens = text.split(",")
            if d is None:
                d = len(tokens)
            elif len(tokens) != d:
                raise RowStreamError(
                    path, line_no, f"expected {d} values, found {len(tokens)}"
                )
            try:
                row = np.array([float(t) for t in tokens], dtype=np.float64)
            except ValueError as exc:
                raise RowStreamError(path, line_no, f"bad number: {exc}") from exc
            if not np.isfinite(row).all():
                raise RowStreamError(path, line_no, "non-finite value")
            yield row


def _iter_rows_binary(path: str) -> Iterator[np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(_ROWS_HEADER.size)
        if len(header) < _ROWS_HEADER.size:
            raise RowStreamError(path, 0, "truncated header")
        magic, d = _ROWS_HEADER.unpack(header)
        if magic != ROWS_MAGIC:
            raise RowStreamError(path, 0, "bad magic, not a binary row stream")
        row_bytes = 8 * d
        if d < 1 or row_bytes > sys.maxsize:
            raise RowStreamError(path, 0, f"bad dimension {d}")
        row_no = 0
        while True:
            # read a row in pieces of at most 1 MiB, so that a bogus d in the
            # header never makes read() ask for more than the stream holds
            parts = []
            left = row_bytes
            while left and (part := fh.read(min(left, 1 << 20))):
                parts.append(part)
                left -= len(part)
            if not parts:
                break
            row_no += 1
            if left:
                raise RowStreamError(path, row_no, "truncated row")
            row = np.frombuffer(b"".join(parts), dtype="<f8").astype(np.float64)
            if not np.isfinite(row).all():
                raise RowStreamError(path, row_no, "non-finite value")
            yield row


def iter_rows(path: str, fmt: Optional[str] = None) -> Iterator[np.ndarray]:
    """Stream rows from a CSV or binary file; ``fmt=None`` sniffs the magic."""
    fmt = fmt or sniff_format(path)
    if fmt == "csv":
        return _iter_rows_csv(path)
    if fmt == "binary":
        return _iter_rows_binary(path)
    raise ValueError(f"unknown format {fmt!r}")


def read_rows(path: str, fmt: Optional[str] = None) -> np.ndarray:
    """Materialize a whole stream; an empty CSV comes back with shape (0, 0)."""
    rows = list(iter_rows(path, fmt))
    if not rows:
        if (fmt or sniff_format(path)) == "binary":
            with open(path, "rb") as fh:
                _, d = _ROWS_HEADER.unpack(fh.read(_ROWS_HEADER.size))
            return np.zeros((0, int(d)))
        return np.zeros((0, 0))
    return np.vstack(rows)


def write_rows(path: str, rows, fmt: str = "csv") -> None:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("rows must be 2-dimensional")
    if fmt == "csv":
        with open(path, "w", encoding="ascii") as fh:
            for row in arr:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_ROWS_HEADER.pack(ROWS_MAGIC, arr.shape[1]))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    else:
        raise ValueError(f"unknown format {fmt!r}")


def save_sketch(path: str, sk: FdSketch) -> None:
    """Write ``sk`` to ``path``; on any failure ``path`` is left as it was."""
    p = sk.params
    # the stored row count carries the lost-mass window width, which a merge
    # can have widened past this sketch's own buffer; pad with zero rows so
    # a reload keeps the same (sound) accounting
    m_out = max(p.buffer_rows, sk.mass_bracket_rows)
    buf = sk._buf
    if m_out > p.buffer_rows:
        buf = np.vstack([buf, np.zeros((m_out - p.buffer_rows, p.d))])
    # write beside the target and rename over it, so a failed write never
    # leaves a truncated file under the target's name
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(
                _SKETCH_HEADER.pack(
                    SKETCH_MAGIC,
                    SKETCH_VERSION,
                    p.k,
                    p.ell,
                    m_out,
                    p.d,
                    sk.rows_seen,
                    p.eps,
                    sk.delta_sum,
                    sk.input_frob_sq,
                )
            )
            fh.write(np.ascontiguousarray(buf, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_sketch(path: str) -> FdSketch:
    with open(path, "rb") as fh:
        header = fh.read(_SKETCH_HEADER.size)
        if len(header) < _SKETCH_HEADER.size:
            raise SketchFormatError(f"{path}: truncated header")
        magic, version, k, ell, m, d, rows_seen, eps, delta, frob = (
            _SKETCH_HEADER.unpack(header)
        )
        if magic != SKETCH_MAGIC:
            raise SketchFormatError(f"{path}: bad magic, not a sketch file")
        if version != SKETCH_VERSION:
            raise SketchFormatError(f"{path}: unsupported version {version}")
        body = fh.read()
    expected = 8 * m * d
    if len(body) != expected:
        raise SketchFormatError(
            f"{path}: buffer holds {len(body)} bytes, expected {expected}"
        )
    if not (1 <= k < ell <= m and d >= 1):
        raise SketchFormatError(f"{path}: inconsistent geometry in header")
    buf = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(m, d)
    if not (np.isfinite([eps, delta, frob]).all() and np.isfinite(buf).all()):
        raise SketchFormatError(f"{path}: non-finite value in header or buffer")
    if eps <= 0.0:
        raise SketchFormatError(f"{path}: eps {eps!r} is not positive")
    if ell != sketch_rows_for(k, eps):
        raise SketchFormatError(f"{path}: ell {ell} does not match k={k}, eps={eps!r}")
    if delta < 0.0 or frob < 0.0:
        raise SketchFormatError(f"{path}: negative delta_sum or input_frob_sq")
    nonzero = buf.any(axis=1)
    nz = int(np.count_nonzero(nonzero))
    if nz == m or nonzero[nz:].any():
        raise SketchFormatError(f"{path}: nonzero rows must come first, then a zero row")
    params = FdParams(k=int(k), eps=float(eps), d=int(d), batch_factor=m / ell,
                      ell=int(ell), buffer_rows=int(m))
    return FdSketch._from_state(params, buf, rows_seen, frob, delta)
