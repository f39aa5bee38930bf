"""``RowReader``'s chunked CSV parse against a line-by-line parse.

``RowReader`` parses a CSV stream a chunk of lines at a time with
``np.loadtxt`` and sends a chunk it does not read cleanly through its
per-line parser. ``oracles.LineCsvReader`` parses every line with ``float()``.
On any stream, with chunks small enough that their edges fall anywhere, the
two must hand out the same width, the same blocks and rows bit for bit, the
same ``rows_read``, and then the same error (message and line) or none.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import fdsketch.io as fio
from fdsketch.io import RowReader, RowStreamError, write_rows
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
)
def test_chunked_reader_matches_line_parser(tmp_path_factory, data, chunk, size, rows_first):
    path = str(tmp_path_factory.getbasetemp() / "stream.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    expected = _outputs(LineCsvReader(path), size, rows_first)
    with mock.patch.object(fio, "_CSV_CHUNK_CHARS", chunk):
        with RowReader(path, "csv") as reader:
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
    monkeypatch.setattr(RowReader, "_parse_lines", None)
    with RowReader(path) as reader:
        got = np.concatenate(list(reader.blocks(97)))
    assert got.tobytes() == rows.tobytes()
