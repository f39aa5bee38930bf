"""Properties of the command line over generated files, run in-process.

Every file ``sketch`` or ``merge`` writes with accepted arguments loads and
verifies; a mutated sketch file or row file ends every command that reads it
with a documented exit code and at most one line on stderr, never with an
exception out of ``main``.
"""
import contextlib
import functools
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fdsketch.cli import main
from fdsketch.io import save_sketch, write_rows
from fdsketch.sketch import FdSketch

# a numpy warning would be stderr lines of its own in a real process
pytestmark = [pytest.mark.filterwarnings("ignore:sketch rows"),
              pytest.mark.filterwarnings("error::RuntimeWarning")]


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def _exits_cleanly(rc: int, err: str) -> None:
    """A documented exit code, and at most one stderr line: the error of a
    failed command, or the row-count warning of ``verify``."""
    assert rc in (0, 1, 2, 3), (rc, err)
    lines = err.count("\n")
    assert (lines == 1 if rc in (2, 3) else lines <= 1), err
    assert err == "" or err.endswith("\n"), err
    assert "Traceback" not in err


# -- files the commands write -------------------------------------------------


@st.composite
def _streams(draw, d: int):
    """A row stream of width d: up to 12 rows, whose entries span 300 decades
    overall (each row is scaled by its own power of ten), with zero rows."""
    n = draw(st.integers(0, 12))
    rows = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-100, 100)))
    exponents = draw(hnp.arrays(np.int64, (n, 1), elements=st.integers(-160, 140)))
    return rows * 10.0 ** exponents.astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(_streams(d), _streams(d))),
    st.integers(1, 3),
    st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    st.tuples(st.floats(1.0, 4.0), st.floats(1.0, 4.0)),
    st.tuples(st.sampled_from(["csv", "binary"]), st.sampled_from(["csv", "binary"])),
)
def test_every_file_sketch_and_merge_write_loads_and_verifies(streams, k, eps, cs, fmts):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sketches = []
        for i, (rows, c, fmt) in enumerate(zip(streams, cs, fmts)):
            # an empty CSV has no width; its binary twin keeps d
            fmt = fmt if len(rows) else "binary"
            stream, out = work / f"rows{i}.{fmt}", work / f"s{i}.fdsk"
            write_rows(str(stream), rows, fmt)
            rc, _, err = _cli("sketch", "--input", stream, "--k", k, "--eps", eps,
                              "--c", c, "--out", out)
            assert (rc, err) == (0, "")
            rc, _, err = _cli("verify", "--input", stream, "--sketch", out)
            assert (rc, err) == (0, "")
            sketches.append(out)
        whole = work / "rows.bin"
        write_rows(str(whole), np.concatenate(streams), "binary")
        merged = work / "merged.fdsk"
        rc, _, err = _cli("merge", *sketches, "--out", merged)
        assert (rc, err) == (0, "")
        rc, _, err = _cli("verify", "--input", whole, "--sketch", merged)
        assert (rc, err) == (0, "")
        # a merged file merges again
        rc, _, err = _cli("merge", merged, sketches[0], "--out", work / "again.fdsk")
        assert (rc, err) == (0, "")


# -- mutated files ------------------------------------------------------------

# 8-byte words a corrupted field might hold: counts at and past every limit,
# and the float values that break a rule (sign, zero, subnormal, non-finite)
_WORDS = (
    [struct.pack("<Q", v) for v in (0, 1, 2, 3, 4, 7, 2**32, 2**63, 2**64 - 1)]
    + [struct.pack("<d", v) for v in (0.0, -0.0, -1.0, 0.5, 5e-324, 8.3e-317, 1e200,
                                      1.8e308, math.inf, -math.inf, math.nan)]
)


@st.composite
def _mutations(draw, data: bytes, fields: int, keep: int) -> bytes:
    """``data`` after one to three edits: an overwritten byte, an 8-byte word
    written over a field (the 8-byte fields start at offset ``fields``) or
    anywhere, a cut that keeps at least ``keep`` bytes, or an added tail."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["byte", "word", "cut", "tail"]))
        if kind == "byte" and buf:
            buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
        elif kind == "word" and len(buf) >= fields + 8:
            if draw(st.booleans()):
                at = fields + 8 * draw(st.integers(0, (len(buf) - fields) // 8 - 1))
            else:
                at = draw(st.integers(0, len(buf) - 8))
            buf[at:at + 8] = draw(st.sampled_from(_WORDS))
        elif kind == "cut" and len(buf) > keep:
            del buf[draw(st.integers(keep, len(buf))):]
        else:
            buf += draw(st.binary(min_size=1, max_size=24))
    return bytes(buf)


_ROWS = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0], [0.0, 4.0, 2.0],
                  [-1.5, 1.0, 1.0], [2.0, 2.0, -3.0]])


@functools.lru_cache(maxsize=None)
def _good_files() -> dict[str, bytes]:
    """A 5x3 stream as CSV and binary, and its sketch at k=1, eps=0.5."""
    sk = FdSketch(k=1, eps=0.5, d=3)
    sk.extend(_ROWS)
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in (("rows.csv", lambda p: write_rows(p, _ROWS, "csv")),
                            ("rows.bin", lambda p: write_rows(p, _ROWS, "binary")),
                            ("s.fdsk", lambda p: save_sketch(p, sk))):
            path = str(Path(tmp) / name)
            write(path)
            files[name] = Path(path).read_bytes()
    return files


def _write_good_files(work: Path) -> None:
    for name, data in _good_files().items():
        (work / name).write_bytes(data)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_mutated_sketch_file_exits_cleanly(data):
    # k, ell, m, d, rows_seen, eps, delta_sum, input_frob_sq and the body
    # follow the 4-byte magic and the 2-byte version
    bad = data.draw(_mutations(_good_files()["s.fdsk"], fields=6, keep=0))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_good_files(work)
        (work / "bad.fdsk").write_bytes(bad)
        for argv in (
            ["verify", "--input", work / "rows.csv", "--sketch", work / "bad.fdsk"],
            ["merge", work / "bad.fdsk", work / "s.fdsk", "--out", work / "m.fdsk"],
            ["merge", work / "s.fdsk", work / "bad.fdsk", "--out", work / "m.fdsk"],
        ):
            rc, _, err = _cli(*argv)
            _exits_cleanly(rc, err)


def test_a_row_count_past_the_u64_field_fails_the_merge_cleanly(tmp_path):
    # rows_seen follows the magic, the version and the four u64 fields k,
    # ell, m, d; at 2^64 - 1 a merge of the file with itself counts past it
    data = bytearray(_good_files()["s.fdsk"])
    data[38:46] = struct.pack("<Q", 2**64 - 1)
    bad = tmp_path / "bad.fdsk"
    bad.write_bytes(bytes(data))
    rc, out, err = _cli("merge", bad, bad, "--out", tmp_path / "m.fdsk")
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1 and "does not fit the sketch file's u64 field" in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.fdsk"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["rows.csv", "rows.bin"]), st.data())
def test_a_mutated_row_file_exits_cleanly(name, data):
    # a binary stream's width follows its 4-byte magic. A cut keeps a byte of
    # its body: an empty stream of a corrupted width W is valid, and its
    # sketch is 8 * m * W bytes of zeros
    fields, keep = (0, 0) if name == "rows.csv" else (4, 13)
    bad = data.draw(_mutations(_good_files()[name], fields=fields, keep=keep))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_good_files(work)
        (work / "bad").write_bytes(bad)
        for argv in (
            ["sketch", "--input", work / "bad", "--k", "1", "--eps", "0.5",
             "--out", work / "b.fdsk"],
            ["verify", "--input", work / "bad", "--sketch", work / "s.fdsk"],
        ):
            rc, _, err = _cli(*argv)
            _exits_cleanly(rc, err)
