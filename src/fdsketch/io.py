"""File formats: row streams (CSV or binary) and serialized sketches.

Row streams
    CSV: one row per line, exactly d comma-separated finite decimals,
    written with shortest-round-trip repr so CSV and binary carry identical
    bits. Binary: magic ``FDRW``, then d as u64 little-endian, then float64
    little-endian values row-major. ``RowReader`` opens its path once and
    reads it once, row by row or in blocks, and knows d before the first row.
    Every command reads blocks of at most ``block_rows_for(d)`` rows, the one
    block rule: at most ``BLOCK_ROWS`` rows and ``BLOCK_BYTES`` (one row, if a
    row is wider); a caller may ask for fewer, never for more. The format
    is the stream's own: ``peek`` shows the first byte without consuming it,
    ``F`` (the magic's, and no CSV row's) means binary, and any other byte or
    an empty stream means CSV, decoded by a text layer over the same handle.
    So a pipe, such as ``/dev/stdin``, loses no byte to the test.

    A CSV stream is read ``_CSV_CHUNK_CHARS`` characters of whole lines at a
    time, and ``np.loadtxt`` parses each chunk. Both it and ``float()`` round
    through CPython's correctly rounded string-to-double, so the values are
    the same bits. A chunk that numpy rejects, warns about or reads to another
    shape, that holds a non-finite value, or that holds a byte in 0x1c-0x1f
    (which numpy takes as space beside a number and ``float()`` does not)
    goes through the per-line parser instead. That parser accepts what
    ``float()`` accepts and names the first bad line.

    With two or more usable CPUs, a CSV stream that is a regular file with a
    second data chunk (chunks count from the one that holds the first row)
    is parsed on two processes, if the process runs one thread and has
    ``os.fork``. The reader opens the path a second time and forks a worker
    only if that handle is the reader's own file (the same device and
    inode), so a file moved over the path after the reader opened it is
    never read. The worker reads that handle from the start in the same
    chunks and parses every other one; it sends each result down a pipe
    with the chunk's line and character counts. The reader still reads
    every chunk.
    It takes a worker result only when the counts are those of its own
    read, and parses the chunk itself otherwise (a short read, a dead
    worker), so the values, blocks and errors are those of one process. A
    full pipe stops the worker, so it holds one chunk of text and one parsed
    chunk however long the stream is; ``close()`` kills and reaps it.

Sketch record
    Magic ``FDSK``, version u16, then k, ell, m, d, rows_seen as u64 LE,
    then eps, delta_sum, input_frob_sq as f64 LE, then the m*d row-major
    float64 buffer. m is the sketch's own ``buffer_rows``, with no padding,
    so it also sets the lost-mass window ``[ell, m] * delta_sum`` that
    ``error_report`` checks. Loading reproduces the stored values and
    ``params`` bit for bit.

    The buffer holds its nonzero rows first and at least one zero row. At
    any m, m == ell included, they may hold rows not yet shrunk (a sketch
    saved before its buffer first filled holds its rows as streamed), so a
    loaded sketch counts them all as pending. Loading rejects non-finite
    values, eps <= 0, ell != sketch_rows_for(k, eps), a negative delta_sum
    or input_frob_sq, and a buffer that breaks that row layout.
"""
from __future__ import annotations

import contextlib
import gc
import itertools
import math
import os
import signal
import stat
import struct
import sys
import warnings
from io import TextIOWrapper
from typing import Iterator, Optional

import numpy as np

from .sketch import FdParams, FdSketch, _Counters, sketch_rows_for, squared_row_norms

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
        self.message = message


class SketchFormatError(ValueError):
    """Corrupt or unsupported sketch file."""


# A block of rows holds at most this many bytes (one row, if a row is wider),
# and a binary stream is read in pieces of at most this many.
BLOCK_BYTES = 1 << 20

# A block holds at most this many rows: in ``verify`` each block is one BLAS-3
# update of the d x d Gram matrix, as large as a 1 MiB block at d = 1000,
# while at small d the block and its squares stay near the size of the
# sketch's own buffers.
BLOCK_ROWS = 128


# A CSV stream is read in chunks of whole lines of about this many characters.
_CSV_CHUNK_CHARS = 256 << 10

# Characters np.loadtxt skips beside a number and float() rejects there.
_LOADTXT_ONLY = "\x1c\x1d\x1e\x1f"


def block_rows_for(d: int) -> int:
    """Rows in one block of a d-column stream, the one block rule: at most
    ``BLOCK_ROWS``, as many as fit in ``BLOCK_BYTES``, and at least one."""
    return max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 * d)))


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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parse_chunk(path: str, lines: list, first: int, d: int):
    """The rows of ``lines``, the first of which is line ``first`` of
    ``path``, before its first bad line, and the ``RowStreamError`` of that
    line (None if there is none). Each row has ``d`` values."""
    # np.loadtxt skips empty lines; any other line must give one row
    rows = len(lines) - lines.count("\n")
    text = "".join(lines)
    if not any(c in text for c in _LOADTXT_ONLY):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                block = np.loadtxt(lines, delimiter=",", comments=None,
                                   dtype=np.float64, ndmin=2)
        except (ValueError, Warning):
            pass
        else:
            if block.shape == (rows, d) and np.isfinite(block).all():
                return block, None
    return _parse_lines(path, lines, first, d)


def _parse_lines(path: str, lines: list, first: int, d: int):
    """``_parse_chunk`` one line at a time; blank lines are skipped."""
    rows = []
    error = None
    for line_no, line in enumerate(lines, start=first):
        text = line.strip()
        if not text:
            continue
        tokens = text.split(",")
        if len(tokens) != d:
            message = f"expected {d} values, found {len(tokens)}"
        else:
            try:
                row = [float(t) for t in tokens]
            except ValueError as exc:
                message = f"bad number: {exc}"
            else:
                if all(map(math.isfinite, row)):
                    rows.append(row)
                    continue
                message = "non-finite value"
        error = RowStreamError(path, line_no, message)
        break
    return np.array(rows, dtype=np.float64).reshape(len(rows), d), error


# one worker result on the pipe: the chunk's lines and characters, its rows,
# the line of its error (0 if none) and the error message's bytes; then the
# rows as float64 and the message as UTF-8
_WORKER_RESULT = struct.Struct("=5Q")


def _csv_worker(fd: int, path: str, lines_before: int, d: int, out) -> None:
    """The forked worker: read the file open at descriptor ``fd``, from its
    start, in the reader's chunks and parse data chunks 1, 3, 5, ..., where
    data chunk 0 starts after line ``lines_before``; ``path`` names it in
    errors. Write each result to ``out`` and stop after one that holds an
    error. A full pipe blocks the write, so the worker runs ahead of the
    reader by at most what the pipe buffers, and itself holds one chunk of
    text and one parsed chunk."""
    with open(fd, "r", encoding="ascii", errors="surrogateescape") as fh:
        done = 0
        while done < lines_before:
            lines = fh.readlines(_CSV_CHUNK_CHARS)
            if not lines:
                return
            done += len(lines)
        for index in itertools.count():
            lines = fh.readlines(_CSV_CHUNK_CHARS)
            if not lines:
                return
            first = done + 1
            done += len(lines)
            if index % 2 == 0:
                continue
            rows, error = _parse_chunk(path, lines, first, d)
            message = b"" if error is None else error.message.encode("utf-8", "surrogatepass")
            out.write(_WORKER_RESULT.pack(len(lines), sum(map(len, lines)), len(rows),
                                          0 if error is None else error.line, len(message)))
            out.write(np.ascontiguousarray(rows).data)
            out.write(message)
            out.flush()
            if error is not None:
                return


class RowReader:
    """An open row stream, CSV or binary, that knows its width before its
    first row. The path is opened once; ``fmt`` is ``"binary"`` when the
    first byte, read with ``peek``, is ``F``, and ``"csv"`` otherwise.

    ``d`` comes from the header of a binary stream and from the first
    nonblank line of a CSV; an empty CSV has ``d = None``. Iterating yields
    the rows one at a time; ``blocks()`` yields them as (rows, d) float64
    arrays of ``block_rows_for(d)`` rows, or of a smaller given count (fewer
    in the last one). Every array handed out is fresh, never a view of a
    buffer the reader reuses, so callers may keep them. ``rows_read`` counts
    the rows handed out so far. Malformed data raises ``RowStreamError`` with
    the 1-based line (CSV) or row (binary) number; the header of a binary
    stream is line 0. The rows before the first bad one are handed out first,
    in full blocks. The file is closed once the stream is exhausted, or by
    ``close()``.

    A CSV stream is parsed a chunk of lines at a time by ``np.loadtxt``; a
    chunk it does not read cleanly goes line by line, with the same values,
    the same accepted inputs and the same errors as a line-by-line parse.
    From the first block or row on, a forked worker may parse every other
    chunk (see the module notes). It is reaped when the stream is exhausted
    or raises and by ``close()``, so close a reader that is not read to its
    end, or use it in a ``with`` block.
    """

    def __init__(self, path: str):
        self.path = path
        self.d: Optional[int] = None
        self.rows_read = 0
        self._rows: Optional[Iterator[np.ndarray]] = None
        self._width_line = 0
        self._worker: Optional[tuple] = None
        self._fh = open(path, "rb")
        try:
            # peek consumes nothing: a pipe loses no byte
            self.fmt = "binary" if self._fh.peek(1)[:1] == ROWS_MAGIC[:1] else "csv"
            if self.fmt == "csv":
                self._fh = TextIOWrapper(self._fh, encoding="ascii", errors="surrogateescape")
                self._open_csv()
            else:
                self._open_binary()
        except BaseException:
            self._fh.close()
            raise

    def _open_csv(self) -> None:
        # chunks read but not yet parsed, data chunks parsed so far, the
        # parsed rows not yet handed out, and the error that follows them
        self._ahead: list = []
        self._lines_done = 0
        self._taken = 0
        self._carry = np.empty((0, 0))
        self._error: Optional[RowStreamError] = None
        while lines := self._fh.readlines(_CSV_CHUNK_CHARS):
            for line_no, line in enumerate(lines, start=self._lines_done + 1):
                text = line.strip()
                if text:
                    self.d = len(text.split(","))
                    self._width_line = line_no
                    self._ahead = [lines]
                    return
            self._lines_done += len(lines)

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
        """The remaining rows in blocks of ``block_rows_for(d)`` rows, or of
        ``rows`` if that is fewer: a caller can lower the rule, never raise it."""
        if self.d is None:
            return iter(())
        size = block_rows_for(self.d)
        return self._blocks(min(rows, size) if rows else size)

    def __iter__(self) -> "RowReader":
        return self

    def __next__(self) -> np.ndarray:
        if self._rows is None:
            self._rows = self._blocks(1) if self.d is not None else iter(())
        return next(self._rows)[0]

    def close(self) -> None:
        self._fh.close()
        self._stop_worker()

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

    def _check_finite(self, block: np.ndarray, first: int) -> None:
        """Reject the first row of ``block`` with a non-finite value; the
        block's first row is row ``first`` of the stream."""
        if not np.isfinite(block).all():
            bad = int(np.argmin(np.isfinite(block).all(axis=1)))
            raise RowStreamError(self.path, first + bad, "non-finite value")

    def _csv_blocks(self, size: int) -> Iterator[np.ndarray]:
        d = self.d
        block, filled = np.empty((size, d)), 0
        while len(self._carry) or self._parse_next_chunk():
            take = min(size - filled, len(self._carry))
            block[filled : filled + take] = self._carry[:take]
            self._carry = self._carry[take:]
            filled += take
            if filled == size:
                yield block
                block, filled = np.empty((size, d)), 0
        if filled:
            yield block[:filled].copy()

    def _parse_next_chunk(self) -> bool:
        """Parse chunks until one holds a row; raise the error that follows
        the rows already parsed, and return False at the end of the stream.
        The worker's parse of an odd data chunk is taken if it has one."""
        while not len(self._carry):
            if self._error is not None:
                raise self._error
            if not self._taken:
                self._start_worker()
            lines = self._ahead.pop(0) if self._ahead else self._fh.readlines(_CSV_CHUNK_CHARS)
            if not lines:
                return False
            first = self._lines_done + 1
            self._lines_done += len(lines)
            parsed = self._worker_result(lines) if self._worker and self._taken % 2 else None
            self._taken += 1
            self._carry, self._error = parsed or _parse_chunk(self.path, lines, first, self.d)
        return True

    def _start_worker(self) -> None:
        """Read the second data chunk ahead; if there is one and the stream
        is a regular file, fork a worker on a second CPU. The worker reads
        a second handle, opened here from the path and kept only if it is
        the reader's own file (device and inode): a file moved over the path
        since the reader opened it gets no worker."""
        second = self._fh.readlines(_CSV_CHUNK_CHARS)
        if not second:
            return
        self._ahead.append(second)
        threads = sys.modules.get("threading")
        mine = os.fstat(self._fh.fileno())
        if not (hasattr(os, "fork") and _usable_cpus() >= 2
                and (threads is None or threads.active_count() == 1)
                and stat.S_ISREG(mine.st_mode)):
            return
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return
        try:
            theirs = os.fstat(fd)
            if (theirs.st_dev, theirs.st_ino) != (mine.st_dev, mine.st_ino):
                return
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                return
            if pid == 0:
                code = 1
                try:
                    os.close(rfd)
                    # a collection would write to every inherited object's page
                    gc.disable()
                    with open(wfd, "wb") as out:
                        _csv_worker(fd, self.path, self._lines_done, self.d, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            self._worker = (pid, open(rfd, "rb", buffering=0))
        finally:
            os.close(fd)

    def _worker_result(self, lines: list):
        """The worker's (rows, error) for ``lines``, or None, and no worker
        from then on, if it sends none whose line and character counts are
        those of ``lines``."""
        pipe = self._worker[1]
        head = _read_upto(pipe, _WORKER_RESULT.size)
        if len(head) == _WORKER_RESULT.size:
            n_lines, chars, n_rows, error_line, size = _WORKER_RESULT.unpack(head)
            values = n_rows * self.d
            if (n_lines, chars) == (len(lines), sum(map(len, lines))):
                body = _read_upto(pipe, 8 * values + size)
                if len(body) == 8 * values + size:
                    rows = np.frombuffer(body, np.float64, values).reshape(n_rows, self.d)
                    error = None
                    if error_line:
                        message = body[8 * values :].decode("utf-8", "surrogatepass")
                        error = RowStreamError(self.path, error_line, message)
                    return rows, error
        self._stop_worker()
        return None

    def _stop_worker(self) -> None:
        if self._worker is not None:
            pid, pipe = self._worker
            self._worker = None
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)

    def _binary_blocks(self, size: int) -> Iterator[np.ndarray]:
        d = self.d
        row_bytes = 8 * d
        while True:
            buf = _read_upto(self._fh, size * row_bytes)
            full, part = divmod(len(buf), row_bytes)
            if full:
                block = np.frombuffer(buf, dtype="<f8", count=full * d)
                block = block.astype(np.float64, copy=False).reshape(full, d)
                self._check_finite(block, self.rows_read + 1)
                yield block
            if part:
                raise RowStreamError(self.path, self.rows_read + 1, "truncated row")
            if full < size:
                return


def iter_rows(path: str) -> RowReader:
    """Rows of a stream one at a time."""
    return RowReader(path)


def read_rows(path: str) -> np.ndarray:
    """Materialize a whole stream; an empty CSV comes back with shape (0, 0)."""
    with RowReader(path) as rows:
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
    """Write ``sk`` to ``path``; on any failure ``path`` is left as it was.

    A ``rows_seen`` that the u64 field cannot hold (a merge of sketches
    whose counts sum past it) raises ``ValueError`` before anything is
    written.
    """
    p = sk.params
    if sk.rows_seen >= 2**64:
        raise ValueError(f"rows_seen {sk.rows_seen} does not fit the sketch file's u64 field")
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
                    p.buffer_rows,
                    p.d,
                    sk.rows_seen,
                    p.eps,
                    sk.delta_sum,
                    sk.input_frob_sq,
                )
            )
            # the array's own bytes: no second copy of the buffer
            fh.write(np.ascontiguousarray(sk._buf, dtype="<f8").data)
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
        if not (1 <= k < ell <= m and d >= 1):
            raise SketchFormatError(f"{path}: inconsistent geometry in header")
        # one byte past the buffer tells a long file without reading all of it
        expected = 8 * m * d
        body = _read_upto(fh, expected + 1)
    if len(body) != expected:
        held = len(body) if len(body) < expected else f"more than {expected}"
        raise SketchFormatError(f"{path}: buffer holds {held} bytes, expected {expected}")
    buf = np.frombuffer(body, dtype="<f8").astype(np.float64, copy=False).reshape(m, d)
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
    return FdSketch._from_state(params, buf[:nz], _Counters(rows_seen, frob, delta))
