"""``RowReader``'s chunked CSV parse against a line-by-line parse.

``RowReader`` parses a CSV stream a chunk of lines at a time with
``np.loadtxt`` and sends a chunk it does not read cleanly through its
per-line parser. ``oracles.LineCsvReader`` parses every line with ``float()``.
On any stream, with chunks small enough that their edges fall anywhere, the
two must hand out the same width, the same blocks and rows bit for bit, the
same ``rows_read``, and then the same error (message and line) or none,
whether or not a forked worker parses every other chunk.
"""
import os
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdsketch.io as fio
from fdsketch.cli import main
from fdsketch.io import RowReader, RowStreamError, read_rows, write_rows
from oracles import LineCsvReader

# what float() and np.loadtxt both read, and what only float() reads
_GOOD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6e}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17G}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1_0", "-0", ".5", "5.", "+1", "1E5", "0e0", "-.0e-0", "007",
                     "4.9e-324", "2.4703282292062328e-324", "1.7976931348623158e308"]),
)
# non-finite values, and what float() rejects
_BAD_NUMBERS = st.sampled_from(
    ["inf", "-Infinity", "nan", "NaN", "1e999", "-1e400", "0x1p3", "1d5", "", "1__0",
     "1\x1c2", "1\x1d", "\x1e1", "\x1f", "1 2", "+-1", "1e", ".", "e5", "1.5j", "\xff",
     "1\x00", "\x80"]
)
# float() takes ASCII whitespace around a number; str.strip() takes 0x1c-0x1f
# at the ends of a line as well
_SPACE = st.sampled_from(["", "", "", " ", "\t", "  ", "\x0b", "\x0c", " \t"])
_JUNK = st.text(alphabet="0123456789+-.eE,_ \t\x00\x0b\x0c\x1c\x1d\x1e\x1f\x80\xff\rinfaxp",
                max_size=12)
_ENDS = st.sampled_from(["\n"] * 8 + ["\r\n", "\r"])


_GOOD = st.tuples(_SPACE, _GOOD_NUMBERS, _SPACE).map("".join)
_BAD = st.tuples(_SPACE, _BAD_NUMBERS, _SPACE).map("".join)
_BLANK = st.sampled_from(["", "", "", " ", "\t", "\x1c", " \x0c ", "\x1f\x1e"])
# one field of a row spoiled: a character in 0x1c-0x1f beside its number,
# or a non-finite value in its place
_SPOIL = st.sampled_from(["{}" + c for c in fio._LOADTXT_ONLY]
                         + [c + "{}" for c in fio._LOADTXT_ONLY]
                         + ["inf", "-inf", "nan", "1e999", "-1e400"])


def _lines(d: int):
    """Strategies for the good lines of a d-column stream (rows and blank
    lines) and for its bad lines (bad numbers, other widths, a spoiled
    field, junk)."""
    row = st.lists(_GOOD, min_size=d, max_size=d).map(",".join)
    spoiled = st.tuples(st.lists(_GOOD, min_size=d, max_size=d), st.integers(0, d - 1),
                        _SPOIL).map(lambda t: ",".join(t[2].format(f) if i == t[1] else f
                                                        for i, f in enumerate(t[0])))
    bad = st.one_of(
        st.lists(st.one_of(_GOOD, _BAD), min_size=d, max_size=d).map(",".join),
        st.lists(_GOOD, min_size=1, max_size=6).filter(lambda f: len(f) != d).map(",".join),
        spoiled,
        spoiled,
        _JUNK,
    )
    return st.one_of(row, row, row, row, row, _BLANK), bad


_LINES = {d: _lines(d) for d in range(1, 5)}


@st.composite
def streams(draw):
    """CSV text as bytes: mostly good lines of width d, and up to two bad
    lines at random places."""
    good, bad = _LINES[draw(st.integers(1, 4))]
    lines = draw(st.lists(good, min_size=1, max_size=16))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    ends = [draw(_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(a + b for a, b in zip(lines, ends)).encode("latin-1")


def _outputs(reader, size: int, rows_first: int) -> list:
    """What ``reader`` hands out: ``rows_first`` single rows, then blocks of
    ``size`` rows, up to the end of the stream or its first error."""
    out = [reader.d]
    try:
        for _ in range(rows_first):
            row = next(reader, None)
            if row is None:
                return out + ["end", reader.rows_read]
            out.append(("row", row.shape, row.tobytes()))
        for block in reader.blocks(size):
            out.append(("block", block.shape, block.tobytes()))
    except ValueError as exc:
        # the reference raises plain ValueErrors
        assert isinstance(exc, RowStreamError) or isinstance(reader, LineCsvReader)
        return out + [("error", str(exc)), reader.rows_read]
    return out + ["end", reader.rows_read]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    data=streams(),
    chunk=st.sampled_from([1, 2, 5, 11, 17, 29, 48, fio._CSV_CHUNK_CHARS]),
    size=st.sampled_from([1, 2, 3, 5, 1000]),
    rows_first=st.sampled_from([0, 0, 1, 3]),
    cpus=st.sampled_from([1, 2]),
)
def test_chunked_reader_matches_line_parser(tmp_path_factory, data, chunk, size, rows_first,
                                            cpus):
    path = str(tmp_path_factory.getbasetemp() / "stream.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    expected = _outputs(LineCsvReader(path), size, rows_first)
    # one CPU: the reader parses every chunk; two: a worker parses every other
    with mock.patch.object(fio, "_CSV_CHUNK_CHARS", chunk), \
            mock.patch.object(fio, "_usable_cpus", lambda: cpus):
        with RowReader(path) as reader:
            got = _outputs(reader, size, rows_first)
    assert got == expected


def test_clean_stream_never_goes_line_by_line(tmp_path, monkeypatch):
    # repr-written rows of every magnitude, subnormals included, over many
    # chunks: each chunk is one np.loadtxt call, and the bits round-trip
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3000, 7)) * 10.0 ** rng.integers(-320, 300, size=(3000, 7))
    path = str(tmp_path / "rows.csv")
    write_rows(path, rows, "csv")
    monkeypatch.setattr(fio, "_CSV_CHUNK_CHARS", 4096)
    monkeypatch.setattr(fio, "_parse_lines", None)
    with RowReader(path) as reader:
        got = np.concatenate(list(reader.blocks(97)))
    assert got.tobytes() == rows.tobytes()


# -- the forked worker ----------------------------------------------------------
#
# With two usable CPUs, a regular file and a second data chunk, a worker
# process parses data chunks 1, 3, 5, ... and the reader parses the others.
# Each case compares the reader with the reference and counts the chunks the
# reader parsed itself; the conftest fixture fails any case that leaves a
# child process behind.

_CHUNK = 4096


def _stream(tmp_path, n=3000, d=7, seed=5):
    """A repr-written CSV stream of ``n`` rows over many ``_CHUNK`` chunks."""
    rows = np.random.default_rng(seed).normal(size=(n, d))
    path = str(tmp_path / "rows.csv")
    write_rows(path, rows, "csv")
    return path


def _chunk_firsts(path: str) -> list:
    """The first line number of each ``_CHUNK`` chunk of ``path``."""
    firsts, done = [], 0
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        while lines := fh.readlines(_CHUNK):
            firsts.append(done + 1)
            done += len(lines)
    return firsts


def _spoil_line(path: str, line: int, text: str) -> None:
    with open(path) as fh:
        lines = fh.readlines()
    lines[line - 1] = text + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


@pytest.fixture
def reader_on(monkeypatch):
    """Two usable CPUs and ``_CHUNK`` chunks; returns the first line of each
    chunk the reader parsed itself, as the reader sees them."""
    monkeypatch.setattr(fio, "_CSV_CHUNK_CHARS", _CHUNK)
    monkeypatch.setattr(fio, "_usable_cpus", lambda: 2)
    parsed = []
    parse = fio._parse_chunk

    def spy(path, lines, first, d):
        parsed.append(first)
        return parse(path, lines, first, d)

    monkeypatch.setattr(fio, "_parse_chunk", spy)
    return parsed


def _read_both(path: str, size: int = 97, rows_first: int = 2) -> list:
    expected = _outputs(LineCsvReader(path), size, rows_first)
    with RowReader(path) as reader:
        got = _outputs(reader, size, rows_first)
    assert got == expected
    return got


def test_worker_parses_every_other_chunk(tmp_path, reader_on):
    path = _stream(tmp_path)
    firsts = _chunk_firsts(path)
    assert len(firsts) > 10
    assert _read_both(path)[-2:] == ["end", 3000]
    assert reader_on == firsts[0::2]


def test_worker_after_blank_chunks(tmp_path, reader_on):
    # data chunk 0 is the first chunk with a row; parity counts from it
    path = _stream(tmp_path)
    with open(path) as fh:
        body = fh.read()
    with open(path, "w") as fh:
        fh.write("\n" * (3 * _CHUNK) + body)
    firsts = _chunk_firsts(path)
    _read_both(path)
    # the chunk that holds the first row, line 3 * _CHUNK + 1
    start = max(i for i, first in enumerate(firsts) if first <= 3 * _CHUNK + 1)
    assert start > 0
    assert reader_on == firsts[start::2]


@pytest.mark.parametrize("case", ["one cpu", "one chunk", "fifo", "second thread"])
def test_worker_off(tmp_path, reader_on, monkeypatch, case):
    path = _stream(tmp_path, n=20 if case == "one chunk" else 3000)
    firsts = _chunk_firsts(path)
    assert len(firsts) == 1 if case == "one chunk" else len(firsts) > 10
    def fork():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "fork", fork)
    if case == "one cpu":
        monkeypatch.setattr(fio, "_usable_cpus", lambda: 1)
    if case == "second thread":
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            _read_both(path)
        finally:
            done.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
    elif case == "fifo":
        fifo = str(tmp_path / "rows.fifo")
        os.mkfifo(fifo)
        expected = _outputs(LineCsvReader(path), 97, 2)
        # a writer process: a thread would turn the worker off on its own
        writer = subprocess.Popen([sys.executable, "-c",
                                   "import shutil, sys; shutil.copyfileobj("
                                   "open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))",
                                   path, fifo])
        try:
            # typed from its first byte, which the parse then reads too
            with RowReader(fifo) as reader:
                assert reader.fmt == "csv"
                got = _outputs(reader, 97, 2)
        finally:
            assert writer.wait(timeout=60) == 0
        assert got == expected
    else:
        _read_both(path)
    assert reader_on == firsts


@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
@pytest.mark.parametrize("bad", ["1,2", "1,2,3,4,5,6,x", "1,2,3,4,5,6,inf"])
def test_bad_first_line_of_a_chunk(tmp_path, reader_on, chunk, bad):
    # chunks 1 and 3 are the worker's, 2 and 4 the reader's
    path = _stream(tmp_path)
    _spoil_line(path, _chunk_firsts(path)[chunk], bad)
    firsts = _chunk_firsts(path)
    got = _read_both(path)
    assert got[-2][0] == "error"
    assert f":{firsts[chunk]}: " in got[-2][1]
    assert reader_on == firsts[0 : chunk + 1 : 2]


@pytest.mark.parametrize("rows", [1, 400, 1500])
def test_close_mid_stream(tmp_path, reader_on, rows):
    path = _stream(tmp_path)
    expected = read_rows(path)
    reader = RowReader(path)
    got = [next(reader) for _ in range(rows)]
    reader.close()
    assert np.array(got).tobytes() == expected[:rows].tobytes()
    assert reader._worker is None


@pytest.mark.parametrize("cpus", [1, 2])
def test_consumer_exception_in_sketch(tmp_path, reader_on, monkeypatch, capsys, cpus):
    # a row whose squared norm overflows, well past the first chunks: the
    # sketch raises while the worker is running, and the CLI's output is the
    # serial reader's
    monkeypatch.setattr(fio, "_usable_cpus", lambda: cpus)
    path = _stream(tmp_path)
    _spoil_line(path, 2000, ",".join(["1e200"] * 7))
    out = str(tmp_path / "s.fdsk")
    rc = main(["sketch", "--input", path, "--k", "2", "--eps", "0.5", "--out", out])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == "parameter error: row's squared norm overflows the running |A|_F^2\n"
    assert not os.path.exists(out)
    # the reader stopped mid-stream, having parsed every chunk or every other
    firsts = _chunk_firsts(path)
    assert 1 < len(reader_on) < len(firsts) / cpus
    assert reader_on == firsts[0 : cpus * len(reader_on) : cpus]


def _same_shape(path: str, seed: int) -> None:
    """3000 x 7 values in [1, 2) at 18 digits: every line has one length."""
    rows = np.random.default_rng(seed).uniform(1.0, 2.0, size=(3000, 7))
    np.savetxt(path, rows, fmt="%.18e", delimiter=",")


@pytest.mark.parametrize("case", ["worker dies", "path replaced", "path replaced, same shape"])
def test_reader_parses_what_the_worker_does_not_send(tmp_path, reader_on, monkeypatch, case):
    # a worker that dies sends no result whose counts match the reader's
    # chunk, and a file moved over the path after the reader opened it gets
    # no worker, even one whose lines have the counts of the reader's own;
    # the reader parses itself every chunk the worker does not send
    path = _stream(tmp_path)
    if case == "path replaced, same shape":
        _same_shape(path, 5)
    expected = _outputs(LineCsvReader(path), 97, 2)
    firsts = _chunk_firsts(path)
    if case == "worker dies":
        def die(*args):
            raise RuntimeError("worker died")

        monkeypatch.setattr(fio, "_csv_worker", die)
    with RowReader(path) as reader:
        if case.startswith("path replaced"):
            # the reader holds the old file open; the path names the new one
            other = str(tmp_path / "other.csv")
            if case == "path replaced":
                write_rows(other, np.ones((3000, 7)), "csv")
            else:
                _same_shape(other, 6)
            os.replace(other, path)
        assert _outputs(reader, 97, 2) == expected
    assert reader_on == firsts


def test_failed_fork_parses_every_chunk_and_leaks_no_descriptor(tmp_path, reader_on,
                                                                monkeypatch):
    path = _stream(tmp_path)
    firsts = _chunk_firsts(path)

    def fork():
        raise OSError("no process left")

    monkeypatch.setattr(os, "fork", fork)
    before = len(os.listdir("/proc/self/fd"))
    _read_both(path)
    assert len(os.listdir("/proc/self/fd")) == before
    assert reader_on == firsts


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert fio._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fio._usable_cpus() == 1
