"""File formats: row streams (CSV or binary) and serialized sketches.

Row streams
    CSV: one row per line, exactly d comma-separated finite decimals,
    written with shortest-round-trip repr so CSV and binary carry identical
    bits. Binary: magic ``FDRW``, then d as u64 little-endian, then float64
    little-endian values row-major. ``RowReader`` reads either format once,
    row by row or in blocks (of at most ``BLOCK_BYTES`` unless a row count is
    asked for), and knows d before the first row.

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
import itertools
import math
import os
import struct
import sys
from typing import Iterator, Optional

import numpy as np

from .sketch import FdParams, FdSketch, sketch_rows_for, squared_row_norms

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


# A block of rows holds at most this many bytes (one row, if a row is wider),
# and a binary stream is read in pieces of at most this many.
BLOCK_BYTES = 1 << 20


def block_rows_for(d: int) -> int:
    """Rows in one block of a d-column stream: as many as fit in
    ``BLOCK_BYTES``, and at least one."""
    return max(1, BLOCK_BYTES // (8 * d))


def _read_upto(fh, nbytes: int) -> bytearray:
    """Up to ``nbytes`` from ``fh``, fewer only at the end of the stream.

    The buffer grows by at most ``BLOCK_BYTES`` per read, so a bogus width in
    a header never sizes an allocation beyond what the stream holds.
    """
    buf = bytearray(min(nbytes, BLOCK_BYTES))
    filled = 0
    while True:
        with memoryview(buf)[filled:] as view:
            got = fh.readinto(view)
        if not got:
            break
        filled += got
        if filled == nbytes:
            break
        if filled == len(buf):
            buf.extend(bytes(min(nbytes - filled, BLOCK_BYTES)))
    del buf[filled:]
    return buf


class RowReader:
    """An open row stream (CSV or binary; ``fmt=None`` sniffs the magic) that
    knows its width before its first row.

    ``d`` comes from the header of a binary stream and from the first
    nonblank line of a CSV; an empty CSV has ``d = None``. Iterating yields
    the rows one at a time; ``blocks()`` yields them as (rows, d) float64
    arrays of ``block_rows_for(d)`` rows, or of a given count (fewer in the
    last one). Every array handed out is fresh, never a view of a buffer the
    reader reuses, so callers may keep them. ``rows_read`` counts the rows handed out so far.
    Malformed data raises ``RowStreamError`` with the 1-based line (CSV) or
    row (binary) number; the header of a binary stream is line 0. The file
    is closed once the stream is exhausted, or by ``close()``.
    """

    def __init__(self, path: str, fmt: Optional[str] = None):
        fmt = fmt or sniff_format(path)
        if fmt not in ("csv", "binary"):
            raise ValueError(f"unknown format {fmt!r}")
        self.path = path
        self.fmt = fmt
        self.d: Optional[int] = None
        self.rows_read = 0
        self._rows: Optional[Iterator[np.ndarray]] = None
        self._width_line = 0
        if fmt == "csv":
            self._fh = open(path, "r", encoding="ascii")
        else:
            self._fh = open(path, "rb")
        try:
            (self._open_csv if fmt == "csv" else self._open_binary)()
        except BaseException:
            self._fh.close()
            raise

    def _open_csv(self) -> None:
        self._lines = enumerate(self._fh, start=1)
        for line_no, line in self._lines:
            text = line.strip()
            if text:
                self.d = len(text.split(","))
                self._width_line = line_no
                self._lines = itertools.chain([(line_no, line)], self._lines)
                break

    def _open_binary(self) -> None:
        header = self._fh.read(_ROWS_HEADER.size)
        if len(header) < _ROWS_HEADER.size:
            raise RowStreamError(self.path, 0, "truncated header")
        magic, d = _ROWS_HEADER.unpack(header)
        if magic != ROWS_MAGIC:
            raise RowStreamError(self.path, 0, "bad magic, not a binary row stream")
        if d < 1 or 8 * d > sys.maxsize:
            raise RowStreamError(self.path, 0, f"bad dimension {d}")
        self.d = int(d)

    def check_width(self, d: int) -> None:
        """Reject a stream whose width is known and is not ``d``."""
        if self.d is not None and self.d != d:
            raise RowStreamError(
                self.path, self._width_line, f"stream has {self.d} columns, expected {d}"
            )

    def blocks(self, rows: Optional[int] = None) -> Iterator[np.ndarray]:
        """The remaining rows in blocks of ``rows`` rows, by default
        ``block_rows_for(d)``."""
        if self.d is None:
            return iter(())
        return self._blocks(rows or block_rows_for(self.d))

    def __iter__(self) -> "RowReader":
        return self

    def __next__(self) -> np.ndarray:
        if self._rows is None:
            self._rows = self._blocks(1) if self.d is not None else iter(())
        return next(self._rows)[0]

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "RowReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _blocks(self, size: int) -> Iterator[np.ndarray]:
        try:
            parse = self._csv_blocks if self.fmt == "csv" else self._binary_blocks
            for block in parse(size):
                self.rows_read += block.shape[0]
                yield block
        finally:
            self.close()

    def _check_finite(self, block: np.ndarray, numbers) -> None:
        """Reject the first row of ``block`` with a non-finite value;
        ``numbers[i]`` is the line or row number of row i."""
        if not np.isfinite(block).all():
            bad = int(np.argmin(np.isfinite(block).all(axis=1)))
            raise RowStreamError(self.path, numbers[bad], "non-finite value")

    def _csv_blocks(self, size: int) -> Iterator[np.ndarray]:
        d = self.d
        block, line_nos = np.empty((size, d)), []
        for line_no, line in self._lines:
            text = line.strip()
            if not text:
                continue
            tokens = text.split(",")
            error = None
            if len(tokens) != d:
                error = f"expected {d} values, found {len(tokens)}"
            else:
                try:
                    block[len(line_nos)] = [float(t) for t in tokens]
                except ValueError as exc:
                    error = f"bad number: {exc}"
            if error:
                # a non-finite value on an earlier line is the first error
                self._check_finite(block[: len(line_nos)], line_nos)
                raise RowStreamError(self.path, line_no, error)
            line_nos.append(line_no)
            if len(line_nos) == size:
                self._check_finite(block, line_nos)
                yield block
                block, line_nos = np.empty((size, d)), []
        if line_nos:
            block = block[: len(line_nos)].copy()
            self._check_finite(block, line_nos)
            yield block

    def _binary_blocks(self, size: int) -> Iterator[np.ndarray]:
        d = self.d
        row_bytes = 8 * d
        while True:
            buf = _read_upto(self._fh, size * row_bytes)
            full, part = divmod(len(buf), row_bytes)
            if full:
                block = np.frombuffer(buf, dtype="<f8", count=full * d)
                block = block.astype(np.float64, copy=False).reshape(full, d)
                first = self.rows_read + 1
                self._check_finite(block, range(first, first + full))
                yield block
            if part:
                raise RowStreamError(self.path, self.rows_read + 1, "truncated row")
            if full < size:
                return


def iter_rows(path: str, fmt: Optional[str] = None) -> RowReader:
    """Rows of a stream one at a time; ``fmt=None`` sniffs the magic."""
    return RowReader(path, fmt)


def read_rows(path: str, fmt: Optional[str] = None) -> np.ndarray:
    """Materialize a whole stream; an empty CSV comes back with shape (0, 0)."""
    with RowReader(path, fmt) as rows:
        blocks = list(rows.blocks())
        if not blocks:
            return np.zeros((0, rows.d or 0))
    return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]


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
            # the array's own bytes: no second copy of the buffer
            fh.write(np.ascontiguousarray(buf, dtype="<f8").data)
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
    try:
        # the parameter rule every sketch is built under
        want = sketch_rows_for(k, eps)
    except ValueError as exc:
        raise SketchFormatError(f"{path}: {exc}") from None
    if ell != want:
        raise SketchFormatError(f"{path}: ell {ell} does not match k={k}, eps={eps!r}")
    if delta < 0.0 or frob < 0.0:
        raise SketchFormatError(f"{path}: negative delta_sum or input_frob_sq")
    # the ingest step's rule on the stored rows: finite squared norms, and a
    # finite sum of them (the norms are >= 0, so a finite sum implies both)
    with np.errstate(over="ignore"):
        if not math.isfinite(float(squared_row_norms(buf).sum())):
            raise SketchFormatError(f"{path}: a buffer row's squared norm overflows float64")
    nonzero = buf.any(axis=1)
    nz = int(np.count_nonzero(nonzero))
    if nz == m or nonzero[nz:].any():
        raise SketchFormatError(f"{path}: nonzero rows must come first, then a zero row")
    params = FdParams(k=int(k), eps=float(eps), d=int(d), batch_factor=m / ell,
                      ell=int(ell), buffer_rows=int(m))
    return FdSketch._from_state(params, buf, rows_seen, frob, delta)
