import json
import struct
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import fdsketch.io as fio
import fdsketch.cli as cli
from fdsketch.cli import main
from fdsketch.io import (
    RowStreamError,
    SketchFormatError,
    iter_rows,
    load_sketch,
    read_rows,
    save_sketch,
    sniff_format,
    write_rows,
)
from fdsketch.heavy_hitters import error_certificate
from fdsketch.sketch import FdSketch, error_report
from fdsketch.verify import zipf_item_stream
from oracles import mg_linear_oracle

TRICKY = np.array(
    [
        [0.1, -0.0, 1e-300],
        [2.0 / 3.0, 5e-324, -123456789.123456789],
        [1.7976931348623157e308, -2.2250738585072014e-308, 3.141592653589793],
    ]
)


# -- row stream files ---------------------------------------------------------


def test_csv_round_trip_is_bit_exact(tmp_path):
    path = str(tmp_path / "rows.csv")
    write_rows(path, TRICKY, "csv")
    back = read_rows(path)
    assert back.tobytes() == TRICKY.tobytes()


def test_binary_round_trip_is_bit_exact(tmp_path):
    path = str(tmp_path / "rows.bin")
    write_rows(path, TRICKY, "binary")
    back = read_rows(path)
    assert back.tobytes() == TRICKY.tobytes()


def test_sniff_format(tmp_path):
    c = str(tmp_path / "a.csv")
    b = str(tmp_path / "a.bin")
    write_rows(c, np.eye(2), "csv")
    write_rows(b, np.eye(2), "binary")
    assert sniff_format(c) == "csv"
    assert sniff_format(b) == "binary"


def test_csv_skips_blank_lines(tmp_path):
    path = str(tmp_path / "rows.csv")
    path_obj = tmp_path / "rows.csv"
    path_obj.write_text("1.0,2.0\n\n\n3.0,4.0\n")
    assert_array_equal(read_rows(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_reports_line_numbers(tmp_path):
    path_obj = tmp_path / "rows.csv"
    path_obj.write_text("1.0,2.0\n\n3.0\n")
    with pytest.raises(RowStreamError, match=r"rows\.csv:3: expected 2 values"):
        read_rows(str(path_obj))
    path_obj.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(RowStreamError, match=r":2: bad number"):
        read_rows(str(path_obj))
    path_obj.write_text("1.0,2.0\n3.0,nan\n")
    with pytest.raises(RowStreamError, match=r":2: non-finite"):
        read_rows(str(path_obj))
    path_obj.write_text("inf,2.0\n")
    with pytest.raises(RowStreamError, match=r":1: non-finite"):
        read_rows(str(path_obj))


def test_binary_error_cases(tmp_path):
    path_obj = tmp_path / "rows.bin"
    path_obj.write_bytes(b"FDRW" + struct.pack("<Q", 2) + b"\x00" * 12)
    with pytest.raises(RowStreamError, match="truncated row"):
        read_rows(str(path_obj), "binary")
    path_obj.write_bytes(b"NOPE" + struct.pack("<Q", 2))
    with pytest.raises(RowStreamError, match="bad magic"):
        read_rows(str(path_obj), "binary")
    path_obj.write_bytes(b"FDRW" + struct.pack("<Q", 0))
    with pytest.raises(RowStreamError, match="bad dimension"):
        read_rows(str(path_obj), "binary")
    path_obj.write_bytes(b"FD")
    with pytest.raises(RowStreamError, match="truncated header"):
        read_rows(str(path_obj), "binary")


def test_empty_streams(tmp_path):
    c = tmp_path / "empty.csv"
    c.write_text("")
    assert read_rows(str(c)).shape == (0, 0)
    b = str(tmp_path / "empty.bin")
    write_rows(b, np.zeros((0, 4)), "binary")
    assert read_rows(str(b)).shape == (0, 4)


def test_reader_knows_its_width_before_the_first_row(tmp_path):
    c = tmp_path / "rows.csv"
    c.write_text("\n\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    b = str(tmp_path / "rows.bin")
    write_rows(b, np.ones((2, 3)), "binary")
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    for path, d in ((str(c), 3), (b, 3), (str(empty), None)):
        with fio.RowReader(path) as rows:
            assert rows.d == d and rows.rows_read == 0
    with fio.RowReader(str(c)) as rows:
        with pytest.raises(RowStreamError, match=r"rows\.csv:3: stream has 3 columns, expected 2"):
            rows.check_width(2)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_reader_blocks_are_fresh_and_sized(tmp_path, fmt):
    d = 300
    size = fio.block_rows_for(d)
    assert size == fio.BLOCK_BYTES // (8 * d)
    rows = np.random.default_rng(20).normal(size=(2 * size + 3, d))
    path = str(tmp_path / f"rows.{fmt}")
    write_rows(path, rows, fmt)
    with fio.RowReader(path) as stream:
        blocks = list(stream.blocks())
        assert stream.rows_read == rows.shape[0]
    assert [len(b) for b in blocks] == [size, size, 3]
    assert np.concatenate(blocks).tobytes() == rows.tobytes()
    assert not np.shares_memory(blocks[0], blocks[1])
    assert all(b.flags.writeable for b in blocks)


def test_csv_reports_the_first_bad_line_of_a_block(tmp_path):
    # rows are checked for finiteness a block at a time; an earlier
    # non-finite row still wins over a later malformed one
    path_obj = tmp_path / "rows.csv"
    path_obj.write_text("1.0,2.0\n\n3.0,inf\n4.0,oops\n")
    with pytest.raises(RowStreamError, match=r":3: non-finite"):
        read_rows(str(path_obj))
    path_obj.write_text("1.0,2.0\nnan,1.0\n4.0\n")
    with pytest.raises(RowStreamError, match=r":2: non-finite"):
        read_rows(str(path_obj))


def test_reader_reads_rows_wider_than_a_block_in_pieces(tmp_path, monkeypatch):
    # with 64-byte pieces a 160-byte row fills its block over three reads
    monkeypatch.setattr(fio, "BLOCK_BYTES", 64)
    rows = np.arange(60.0).reshape(3, 20)
    path = str(tmp_path / "rows.bin")
    write_rows(path, rows, "binary")
    with fio.RowReader(path) as stream:
        blocks = list(stream.blocks())
    assert [b.shape for b in blocks] == [(1, 20)] * 3
    assert np.concatenate(blocks).tobytes() == rows.tobytes()
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 100)
    with pytest.raises(RowStreamError, match=r":4: truncated row"):
        read_rows(path)


def test_write_rows_validation(tmp_path):
    with pytest.raises(ValueError, match="2-dimensional"):
        write_rows(str(tmp_path / "x.csv"), np.ones(3))
    with pytest.raises(ValueError, match="unknown format"):
        write_rows(str(tmp_path / "x.csv"), np.ones((1, 3)), "parquet")
    with pytest.raises(ValueError, match="unknown format"):
        iter_rows(str(tmp_path / "x.csv"), "parquet")


# -- sketch files -------------------------------------------------------------


def _stream_sketch(rows, **kw):
    kw.setdefault("k", 2)
    kw.setdefault("eps", 0.5)
    sk = FdSketch(d=rows.shape[1], **kw)
    sk.extend(rows)
    return sk


def test_sketch_round_trip_preserves_every_bit(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(45, 9))
    sk = _stream_sketch(rows)
    path = str(tmp_path / "a.fdsk")
    save_sketch(path, sk)
    back = load_sketch(path)
    assert back.params == sk.params
    assert back.rows_seen == sk.rows_seen
    assert back.delta_sum == sk.delta_sum
    assert back.input_frob_sq == sk.input_frob_sq
    assert_array_equal(back._buf, sk._buf)
    assert back.mass_bracket_rows == sk.mass_bracket_rows
    assert error_report(rows, back).all_ok


def test_sketch_resave_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    sk = _stream_sketch(rng.normal(size=(30, 7)), batch_factor=2.0)
    p1 = tmp_path / "a.fdsk"
    p2 = tmp_path / "b.fdsk"
    save_sketch(str(p1), sk)
    save_sketch(str(p2), load_sketch(str(p1)))
    assert p1.read_bytes() == p2.read_bytes()


def test_midfill_batched_sketch_survives_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(13, 6))
    sk = _stream_sketch(rows, k=1, eps=1.0, batch_factor=3.0)
    assert sk._pending > 0
    path = str(tmp_path / "mid.fdsk")
    save_sketch(path, sk)
    back = load_sketch(path)
    assert_array_equal(back.query(), sk.copy().query())
    assert error_report(rows, back).all_ok


def test_per_row_sketch_saved_before_its_buffer_fills(tmp_path):
    # with one trigger a per-row buffer holds its first rows unshrunk; the
    # reloaded sketch must count them as pending, as the saved one does
    rows = np.random.default_rng(2).normal(size=(2, 6))
    sk = _stream_sketch(rows, k=2, eps=1.0)
    assert sk.buffer_rows == sk.ell == 4
    assert sk._pending == 2
    path = str(tmp_path / "mid.fdsk")
    save_sketch(path, sk)
    back = load_sketch(path)
    assert back._pending == 2
    assert_array_equal(back.query(), sk.copy().query())
    assert error_report(rows, back).all_ok


def test_mixed_merge_bracket_survives_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(40, 6))
    s1 = _stream_sketch(rows[:20], k=1, eps=0.5)
    s2 = _stream_sketch(rows[20:], k=1, eps=0.5, batch_factor=3.0)
    merged = s1.merge(s2)
    path = str(tmp_path / "m.fdsk")
    save_sketch(path, merged)
    back = load_sketch(path)
    assert back.mass_bracket_rows == s2.buffer_rows
    assert error_report(rows, back).all_ok


def test_empty_sketch_round_trip(tmp_path):
    sk = FdSketch(k=1, eps=0.5, d=4)
    path = str(tmp_path / "empty.fdsk")
    save_sketch(path, sk)
    back = load_sketch(path)
    assert back.rows_seen == 0
    assert back.input_frob_sq == 0.0
    assert_array_equal(back.query(), np.zeros((sk.ell, 4)))


def test_failed_save_leaves_the_old_file_and_no_stray_file(tmp_path, monkeypatch):
    path = tmp_path / "s.fdsk"
    save_sketch(str(path), _stream_sketch(np.eye(8)))
    old = path.read_bytes()

    class HalfWrite:
        """A file that takes the header, then fails on the buffer."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError("disk full")
            return self.fh.write(data)

    monkeypatch.setattr(fio, "open", lambda *a: HalfWrite(open(*a)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_sketch(str(path), _stream_sketch(2.0 * np.eye(8)))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["s.fdsk"]


def test_sketch_file_corruption_detected(tmp_path):
    path_obj = tmp_path / "bad.fdsk"
    header = struct.Struct("<4sH5Q3d")
    good = header.pack(b"FDSK", 1, 1, 3, 3, 2, 5, 0.5, 0.0, 10.0)
    path_obj.write_bytes(b"XXXX" + good[4:] + b"\x00" * 48)
    with pytest.raises(SketchFormatError, match="bad magic"):
        load_sketch(str(path_obj))
    path_obj.write_bytes(header.pack(b"FDSK", 9, 1, 3, 3, 2, 5, 0.5, 0.0, 10.0) + b"\x00" * 48)
    with pytest.raises(SketchFormatError, match="unsupported version"):
        load_sketch(str(path_obj))
    path_obj.write_bytes(good + b"\x00" * 40)
    with pytest.raises(SketchFormatError, match="expected 48"):
        load_sketch(str(path_obj))
    path_obj.write_bytes(header.pack(b"FDSK", 1, 3, 3, 3, 2, 5, 0.5, 0.0, 10.0) + b"\x00" * 48)
    with pytest.raises(SketchFormatError, match="inconsistent geometry"):
        load_sketch(str(path_obj))
    path_obj.write_bytes(good[:10])
    with pytest.raises(SketchFormatError, match="truncated header"):
        load_sketch(str(path_obj))
    # well-sized records whose values no sketch can hold: (k, ell, eps,
    # delta_sum, input_frob_sq) and a 3x2 body, one row per list entry
    row = [1.0, 2.0]
    zero = [0.0, 0.0]
    for fields, body, match in (
        ((1, 3, 0.5, 0.0, 10.0), [[np.nan, 1.0], zero, zero], "non-finite"),
        ((1, 3, 0.5, 0.0, 10.0), [row, [np.inf, 0.0], zero], "non-finite"),
        ((1, 3, -1.0, 0.0, 10.0), [zero] * 3, "eps"),
        ((1, 3, 0.0, 0.0, 10.0), [zero] * 3, "eps"),
        ((1, 3, np.nan, 0.0, 10.0), [zero] * 3, "non-finite"),
        ((1, 3, np.inf, 0.0, 10.0), [zero] * 3, "non-finite"),
        ((1, 3, 1.0, 0.0, 10.0), [zero] * 3, "ell"),
        ((1, 3, 0.5, np.nan, 10.0), [zero] * 3, "non-finite"),
        ((1, 3, 0.5, 0.0, np.inf), [zero] * 3, "non-finite"),
        ((1, 3, 0.5, -1.0, 10.0), [zero] * 3, "negative"),
        ((1, 3, 0.5, 0.0, -10.0), [zero] * 3, "negative"),
        ((1, 3, 0.5, 0.0, 10.0), [zero, row, zero], "zero row"),
        ((1, 3, 0.5, 0.0, 10.0), [row, zero, row], "zero row"),
        ((1, 3, 0.5, 0.0, 10.0), [row, row, row], "zero row"),
    ):
        k, ell, eps, delta, frob = fields
        path_obj.write_bytes(
            header.pack(b"FDSK", 1, k, ell, 3, 2, 5, eps, delta, frob)
            + np.asarray(body, dtype="<f8").tobytes()
        )
        with pytest.raises(SketchFormatError, match=match):
            load_sketch(str(path_obj))


# -- command line -------------------------------------------------------------


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_sketch_then_verify(tmp_path, capsys):
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(50, 8))
    stream = str(tmp_path / "rows.csv")
    out = str(tmp_path / "s.fdsk")
    write_rows(stream, rows, "csv")
    rc, text, _ = _run(capsys, "sketch", "--input", stream, "--k", "2",
                       "--eps", "0.5", "--out", out)
    assert rc == 0
    info = json.loads(text)
    assert info["rows"] == 50 and info["ell"] == 6
    rc, text, err = _run(capsys, "verify", "--input", stream, "--sketch", out)
    assert rc == 0
    report = json.loads(text)
    assert report["all_pass"] is True
    assert set(report["bounds"]) == {
        "eq1_upper", "eq1_lower", "lemma4_identity", "lemma5", "lemma6",
        "lemma7_low", "lemma7_high", "lemma8_low", "lemma8_high",
    }
    assert err == ""


def test_cli_payload_keys_and_order(tmp_path, capsys):
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(20, 4))
    stream = str(tmp_path / "rows.csv")
    write_rows(stream, rows, "csv")
    a = str(tmp_path / "a.fdsk")
    m = str(tmp_path / "m.fdsk")
    rc, text, _ = _run(capsys, "sketch", "--input", stream, "--k", "1",
                       "--eps", "0.5", "--out", a)
    assert rc == 0
    assert list(json.loads(text)) == [
        "command", "out", "k", "eps", "ell", "buffer_rows", "d", "rows",
        "delta_sum", "input_frob_sq",
    ]
    rc, text, _ = _run(capsys, "merge", a, a, "--out", m)
    assert rc == 0
    assert list(json.loads(text)) == [
        "command", "out", "k", "eps", "ell", "d", "rows", "delta_sum",
        "input_frob_sq",
    ]
    rc, text, _ = _run(capsys, "verify", "--input", stream, "--sketch", a)
    assert rc == 0
    payload = json.loads(text)
    assert list(payload) == ["command", "bounds", "all_pass", "report"]
    assert list(payload["report"]) == [
        "rows", "ell", "buffer_rows", "frob_a_sq", "frob_q_sq", "frob_qk_sq",
        "delta_sum", "max_dir_gap", "min_dir_gap", "frob_identity_residual",
        "proj_err_ratio", "rank_k_residual_sq", "rank_k_mass_sq",
        "qk_norm_bounds", "topk_window_applicable",
    ]
    assert len(payload["report"]["qk_norm_bounds"]) == 2


def test_cli_binary_header_with_huge_dimension_exits_two(tmp_path, capsys):
    # the claimed row width must never size a read: 2**60 overflows it, 2**40
    # would ask for 8 TiB; the short body makes both a malformed stream
    sk = str(tmp_path / "s.fdsk")
    save_sketch(sk, FdSketch(k=1, eps=0.5, d=8))
    bogus = tmp_path / "huge.bin"
    for d, body in ((2**60, b""), (2**60, b"\x00" * 64), (2**40, b"\x00" * 64)):
        bogus.write_bytes(b"FDRW" + struct.pack("<Q", d) + body)
        rc, _, err = _run(capsys, "sketch", "--input", str(bogus), "--k", "1",
                          "--eps", "0.5", "--out", str(tmp_path / "o.fdsk"))
        assert rc == 2, err
        assert err.startswith("input error")
        rc, _, err = _run(capsys, "verify", "--input", str(bogus), "--sketch", sk)
        assert rc == 2, err
        assert err.startswith("input error")


def test_cli_empty_binary_stream_with_unallocatable_width_exits_two(tmp_path, capsys):
    # 2**50 columns ask for a 27 PiB buffer, which fails at once; never test
    # a smaller width here, which an overcommitting kernel could grant
    bogus = tmp_path / "wide.bin"
    bogus.write_bytes(b"FDRW" + struct.pack("<Q", 2**50))
    out = tmp_path / "o.fdsk"
    rc, text, err = _run(capsys, "sketch", "--input", str(bogus), "--k", "1",
                         "--eps", "0.5", "--out", str(out))
    assert rc == 2
    assert text == ""
    assert err.startswith("parameter error: out of memory") and err.count("\n") == 1
    assert not out.exists()


def test_cli_verify_checks_the_width_of_an_empty_binary_stream(tmp_path, capsys):
    sk = str(tmp_path / "s.fdsk")
    save_sketch(sk, FdSketch(k=1, eps=1.0, d=2))
    empty7 = str(tmp_path / "empty7.bin")
    write_rows(empty7, np.zeros((0, 7)), "binary")
    rc, _, err = _run(capsys, "verify", "--input", empty7, "--sketch", sk)
    assert rc == 2
    assert "7 columns" in err
    # an empty CSV carries no width, and an empty binary stream of the right
    # width matches, so both audit the empty sketch
    empty_csv = tmp_path / "empty.csv"
    empty_csv.write_text("")
    empty2 = str(tmp_path / "empty2.bin")
    write_rows(empty2, np.zeros((0, 2)), "binary")
    for stream in (str(empty_csv), empty2):
        rc, text, _ = _run(capsys, "verify", "--input", stream, "--sketch", sk)
        assert rc == 0
        assert json.loads(text)["all_pass"] is True


def test_cli_verify_checks_a_huge_width_before_allocating(tmp_path, capsys):
    # a d x d accumulator for 2**50 columns could never be allocated; the
    # width check against the sketch rejects the stream before any is tried
    sk = str(tmp_path / "s.fdsk")
    save_sketch(sk, FdSketch(k=1, eps=1.0, d=2))
    bogus = tmp_path / "wide.bin"
    for body in (b"", b"\x00" * 64):
        bogus.write_bytes(b"FDRW" + struct.pack("<Q", 2**50) + body)
        rc, text, err = _run(capsys, "verify", "--input", str(bogus), "--sketch", sk)
        assert rc == 2
        assert text == ""
        assert err == f"input error: {bogus}:0: stream has {2**50} columns, expected 2\n"


def test_cli_verify_writes_strict_json_for_an_infinite_ratio(tmp_path, capsys):
    # Q_k = (0, 0, 5) misses the stream's only row (3, 4, 0): the projection
    # keeps none of |A|_F^2 = 25 while |A - A_1|_F^2 is 0, so the ratio is
    # infinite, which JSON has no number for
    stream = str(tmp_path / "row.csv")
    write_rows(stream, [[3.0, 4.0, 0.0]], "csv")
    sk = FdSketch(k=1, eps=0.5, d=3)
    sk.append([0.0, 0.0, 5.0])
    assert (sk.rows_seen, sk.input_frob_sq) == (1, 25.0)
    path = str(tmp_path / "s.fdsk")
    save_sketch(path, sk)

    def reject(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    for flags in ((), ("--json",)):
        rc, text, _ = _run(capsys, "verify", "--input", stream, "--sketch", path, *flags)
        assert rc == 1
        payload = json.loads(text, parse_constant=reject)
        assert payload["report"]["proj_err_ratio"] is None
        assert payload["bounds"]["lemma6"] is False


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_cli_verify_at_block_boundaries(tmp_path, capsys, fmt, offset):
    d = 1000
    n = fio.block_rows_for(d) + offset
    rows = np.random.default_rng(21).normal(size=(n, d)) * np.logspace(0, -3, d)
    stream = str(tmp_path / f"rows.{fmt}")
    write_rows(stream, rows, fmt)
    sk = FdSketch(k=3, eps=0.5, d=d, batch_factor=2.0)
    sk.extend(rows)
    path = str(tmp_path / "s.fdsk")
    save_sketch(path, sk)
    one = error_report(rows, sk)
    with fio.RowReader(stream) as reader:
        streamed = error_report(reader.blocks(), sk)
        assert reader.rows_read == n
    tol = 1e-12 * one.frob_a_sq
    for field in ("frob_a_sq", "max_dir_gap", "min_dir_gap", "rank_k_residual_sq",
                  "rank_k_mass_sq", "proj_residual_sq"):
        assert abs(getattr(streamed, field) - getattr(one, field)) <= tol, field
    rc, text, err = _run(capsys, "verify", "--input", stream, "--sketch", path, "--json")
    assert rc == 0 and err == ""
    assert json.loads(text)["report"]["frob_a_sq"] == streamed.frob_a_sq


def test_cli_verify_reports_are_identical_for_csv_and_binary(tmp_path, capsys):
    d = 400
    rows = np.random.default_rng(22).normal(size=(2 * fio.block_rows_for(d) + 5, d))
    sk = FdSketch(k=2, eps=0.5, d=d, batch_factor=2.0)
    sk.extend(rows)
    path = str(tmp_path / "s.fdsk")
    save_sketch(path, sk)
    texts = []
    for fmt in ("csv", "binary"):
        stream = str(tmp_path / f"rows.{fmt}")
        write_rows(stream, rows, fmt)
        rc, text, _ = _run(capsys, "verify", "--input", stream, "--sketch", path)
        assert rc == 0
        texts.append(text)
    assert texts[0] == texts[1]


def test_cli_verify_reports_a_bad_row_after_the_first_block(tmp_path, capsys):
    d = 200
    size = fio.block_rows_for(d)
    rows = np.random.default_rng(23).normal(size=(size + 4, d))
    sk = FdSketch(k=1, eps=0.5, d=d)
    sk.extend(rows)
    path = str(tmp_path / "s.fdsk")
    save_sketch(path, sk)
    good = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    bad_row = ",".join(["1.0"] * (d - 1) + ["oops"]) + "\n"
    csv_in = tmp_path / "rows.csv"
    # two blank lines first: line numbers run two ahead of row numbers
    csv_in.write_text("\n\n" + good + bad_row)
    rc, text, err = _run(capsys, "verify", "--input", str(csv_in), "--sketch", path)
    assert rc == 2 and text == ""
    assert f"rows.csv:{size + 7}: bad number" in err
    bin_in = tmp_path / "rows.bin"
    write_rows(str(bin_in), rows, "binary")
    with open(bin_in, "ab") as fh:
        fh.write(b"\x00" * 12)
    rc, text, err = _run(capsys, "verify", "--input", str(bin_in), "--sketch", path)
    assert rc == 2 and text == ""
    assert f"rows.bin:{size + 5}: truncated row" in err


def test_cli_merge_rejects_overflowing_input_mass(tmp_path, capsys):
    paths = []
    for i, row in enumerate(([1e154, 0.0], [0.0, 1e154])):
        sk = FdSketch(k=1, eps=1.0, d=2)
        sk.append(row)
        paths.append(str(tmp_path / f"{i}.fdsk"))
        save_sketch(paths[-1], sk)
    out = tmp_path / "m.fdsk"
    rc, text, err = _run(capsys, "merge", *paths, "--out", str(out))
    assert rc == 2
    assert text == ""
    assert "overflows" in err
    assert not out.exists()


def test_cli_csv_and_binary_streams_give_identical_sketch_files(tmp_path, capsys):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(33, 5))
    csv_in = str(tmp_path / "rows.csv")
    bin_in = str(tmp_path / "rows.bin")
    write_rows(csv_in, rows, "csv")
    write_rows(bin_in, rows, "binary")
    out_c = tmp_path / "c.fdsk"
    out_b = tmp_path / "b.fdsk"
    for src, dst in ((csv_in, out_c), (bin_in, out_b)):
        rc, _, _ = _run(capsys, "sketch", "--input", src, "--k", "1",
                        "--eps", "0.5", "--out", str(dst))
        assert rc == 0
    assert out_c.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@pytest.mark.parametrize("c", ["1", "2"])
def test_cli_sketch_equals_library_extend_of_read_rows(tmp_path, capsys, fmt, c):
    # the CLI feeds buffer_rows-row blocks; the library gets one block
    rng = np.random.default_rng(25)
    rows = rng.normal(size=(203, 4)) @ rng.normal(size=(4, 11))
    rows[rng.random(203) < 0.1] = 0.0
    stream = str(tmp_path / f"rows.{fmt}")
    write_rows(stream, rows, fmt)
    out = tmp_path / "cli.fdsk"
    rc, _, _ = _run(capsys, "sketch", "--input", stream, "--k", "2", "--eps", "0.5",
                    "--c", c, "--out", str(out))
    assert rc == 0
    sk = FdSketch(k=2, eps=0.5, d=11, batch_factor=float(c))
    sk.extend(read_rows(stream))
    lib = tmp_path / "lib.fdsk"
    save_sketch(str(lib), sk)
    assert out.read_bytes() == lib.read_bytes()


def test_cli_merge_and_verify_combined(tmp_path, capsys):
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(60, 6))
    files = {}
    for name, chunk in (("one", rows[:30]), ("two", rows[30:]), ("all", rows)):
        p = str(tmp_path / f"{name}.csv")
        write_rows(p, chunk, "csv")
        files[name] = p
    sk1 = str(tmp_path / "one.fdsk")
    sk2 = str(tmp_path / "two.fdsk")
    merged = str(tmp_path / "merged.fdsk")
    for src, dst in ((files["one"], sk1), (files["two"], sk2)):
        assert _run(capsys, "sketch", "--input", src, "--k", "2", "--eps", "0.5",
                    "--out", dst)[0] == 0
    rc, text, _ = _run(capsys, "merge", sk1, sk2, "--out", merged)
    assert rc == 0
    assert json.loads(text)["rows"] == 60
    rc, text, _ = _run(capsys, "verify", "--input", files["all"], "--sketch", merged)
    assert rc == 0
    assert json.loads(text)["all_pass"] is True


def test_cli_merge_rejects_mismatched_sketches(tmp_path, capsys):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(20, 8))
    stream = str(tmp_path / "rows.csv")
    write_rows(stream, rows, "csv")
    a = str(tmp_path / "a.fdsk")
    b = str(tmp_path / "b.fdsk")
    _run(capsys, "sketch", "--input", stream, "--k", "1", "--eps", "0.5", "--out", a)
    _run(capsys, "sketch", "--input", stream, "--k", "2", "--eps", "0.5", "--out", b)
    rc, _, err = _run(capsys, "merge", a, b, "--out", str(tmp_path / "m.fdsk"))
    assert rc == 2
    assert "cannot merge" in err


def test_cli_verify_flags_a_doctored_sketch(tmp_path, capsys):
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(40, 5))
    stream = str(tmp_path / "rows.csv")
    out = str(tmp_path / "s.fdsk")
    write_rows(stream, rows, "csv")
    _run(capsys, "sketch", "--input", stream, "--k", "1", "--eps", "0.5", "--out", out)
    sk = load_sketch(out)
    sk._buf *= 5.0
    save_sketch(out, sk)
    rc, text, _ = _run(capsys, "verify", "--input", stream, "--sketch", out)
    assert rc == 1
    report = json.loads(text)
    assert report["all_pass"] is False
    assert report["bounds"]["eq1_lower"] is False
    assert report["bounds"]["lemma4_identity"] is False


@pytest.mark.filterwarnings("ignore:sketch rows")
@pytest.mark.parametrize("c", ["1", "2"])
def test_cli_verify_passes_a_stream_whose_mass_is_subnormal(tmp_path, capsys, c):
    # |A|_F^2 = 5e-323: relative tolerances round to 0 in gradual underflow
    stream = str(tmp_path / "rows.bin")
    out = str(tmp_path / "s.fdsk")
    write_rows(stream, np.full((2, 1), 4.72347721e-162), "binary")
    rc, _, _ = _run(capsys, "sketch", "--input", stream, "--k", "1", "--eps", "0.5",
                    "--c", c, "--out", out)
    assert rc == 0
    rc, text, _ = _run(capsys, "verify", "--input", stream, "--sketch", out)
    assert rc == 0
    assert json.loads(text)["all_pass"] is True


def test_cli_verify_warns_on_row_count_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(25, 4))
    stream = str(tmp_path / "rows.csv")
    short = str(tmp_path / "short.csv")
    out = str(tmp_path / "s.fdsk")
    write_rows(stream, rows, "csv")
    write_rows(short, rows[:-3], "csv")
    _run(capsys, "sketch", "--input", stream, "--k", "1", "--eps", "0.5", "--out", out)
    rc, _, err = _run(capsys, "verify", "--input", short, "--sketch", out)
    assert "warning: stream has 22 rows" in err
    assert rc in (0, 1)


def test_cli_malformed_csv_exits_two(tmp_path, capsys):
    stream = tmp_path / "rows.csv"
    stream.write_text("1.0,2.0\n3.0\n")
    rc, _, err = _run(capsys, "sketch", "--input", str(stream), "--k", "1",
                      "--eps", "1.0", "--out", str(tmp_path / "s.fdsk"))
    assert rc == 2
    assert err.startswith("input error: ") and ":2:" in err


def test_cli_missing_file_exits_three(tmp_path, capsys):
    rc, _, err = _run(capsys, "sketch", "--input", str(tmp_path / "nope.csv"),
                      "--k", "1", "--eps", "1.0", "--out", str(tmp_path / "s.fdsk"))
    assert rc == 3
    assert "io error" in err


@pytest.mark.filterwarnings("ignore:sketch rows")
def test_cli_empty_csv_stream_makes_an_empty_sketch(tmp_path, capsys):
    stream = tmp_path / "empty.csv"
    stream.write_text("")
    out = str(tmp_path / "s.fdsk")
    rc, text, _ = _run(capsys, "sketch", "--input", str(stream), "--k", "1",
                       "--eps", "1.0", "--out", out)
    assert rc == 0
    info = json.loads(text)
    assert info["rows"] == 0 and info["d"] == 1
    assert load_sketch(out).rows_seen == 0


def test_cli_hh_with_certificate(tmp_path, capsys):
    stream = tmp_path / "items.txt"
    stream.write_text("".join(f"{x}\n" for x in [1, 2, 1, 3, 1, 1, 2]))
    rc, text, _ = _run(capsys, "hh", "--input", str(stream), "--k", "2",
                       "--eps", "0.5")
    assert rc == 0
    payload = json.loads(text)
    assert payload["ell"] == 6
    assert payload["n"] == 7
    assert payload["items"][0] == {"item": 1, "estimate": 4}
    cert = payload["certificate"]
    assert cert["decrement_bound_ok"] and cert["topk_mass_bound_ok"]


def test_cli_hh_parameter_errors(tmp_path, capsys):
    stream = tmp_path / "items.txt"
    stream.write_text("1\n2\n")
    rc, _, err = _run(capsys, "hh", "--input", str(stream))
    assert rc == 2
    assert "need --ell" in err
    stream.write_text("1\npotato\n")
    rc, _, err = _run(capsys, "hh", "--input", str(stream), "--ell", "3")
    assert rc == 2
    assert "bad item id" in err


@pytest.mark.parametrize("args", [("--ell", "3", "--k", "5"), ("--ell", "3", "--k", "3"),
                                  ("--ell", "3", "--k", "0")])
def test_cli_hh_rejects_a_k_without_certificate_before_reading(tmp_path, capsys, args):
    # the input does not exist: an exit 3 would mean the stream was opened
    rc, text, err = _run(capsys, "hh", "--input", str(tmp_path / "missing.txt"), *args)
    assert rc == 2
    assert text == ""
    assert err.startswith("parameter error: --k ")


def test_cli_hh_without_k_keeps_no_histogram(tmp_path, capsys):
    import tracemalloc

    items = np.random.default_rng(26).permutation(100_000).tolist()
    stream = tmp_path / "items.txt"
    stream.write_text("".join(f"{x}\n" for x in items))
    tracemalloc.start()
    try:
        histogram = Counter(items)
        hist_peak = tracemalloc.get_traced_memory()[0]
        del histogram
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rc, text, _ = _run(capsys, "hh", "--input", str(stream), "--ell", "16", "--json")
        hh_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert json.loads(text)["n"] == 100_000
    assert hh_peak < hist_peak / 10


def test_cli_hh_bad_item_names_its_line_after_blank_lines(tmp_path, capsys):
    stream = tmp_path / "items.txt"
    stream.write_text("1\n\n\npotato\n")
    rc, text, err = _run(capsys, "hh", "--input", str(stream), "--ell", "3")
    assert rc == 2
    assert text == ""
    assert "items.txt:4:" in err


def _hh_oracle_text(items, ell, k=None) -> str:
    """What ``hh`` prints for ``items``: the linear-scan summary's report."""
    oracle = mg_linear_oracle(items, ell)
    expected = {
        "command": "hh",
        "ell": ell,
        "n": len(items),
        "decrements": oracle.decrement_total,
        "items": [
            {"item": label, "estimate": count}
            for label, count in sorted(oracle.items().items(),
                                       key=lambda kv: (-kv[1], kv[0]))
        ],
    }
    if k is not None:
        cert = error_certificate(oracle, Counter(items), k)
        expected["certificate"] = {
            name: getattr(cert, name)
            for name in ("k", "decrements", "top_k_mass", "top_k_mass_est",
                         "residual_mass", "max_item_gap", "decrement_bound_ok",
                         "topk_mass_bound_ok")
        }
    return json.dumps(expected, indent=2) + "\n"


def test_cli_hh_report_matches_linear_scan_oracle(tmp_path, capsys):
    items = zipf_item_stream(5000, universe=400, seed=7, exponent=1.1).tolist()
    stream = tmp_path / "items.txt"
    stream.write_text("".join(f"{x}\n" for x in items))
    ell, k = 32, 4
    rc, text, _ = _run(capsys, "hh", "--input", str(stream), "--ell", str(ell),
                       "--k", str(k))
    assert rc == 0
    assert mg_linear_oracle(items, ell).decrement_total > 0
    assert text == _hh_oracle_text(items, ell, k)


def test_cli_hh_reads_chunks_as_it_read_lines(tmp_path, capsys):
    # blank and whitespace-only lines sprinkled over many read chunks send
    # some chunks down the line-by-line path and leave others on the fast one
    items = zipf_item_stream(30000, universe=2000, seed=41, exponent=1.1).tolist()
    assert 5 * len(items) > 8 * cli._HH_CHUNK_CHARS
    rng = np.random.default_rng(42)
    lines = [f"{x}\n" for x in items]
    clean, sprinkled = tmp_path / "clean.txt", tmp_path / "sprinkled.txt"
    clean.write_text("".join(lines))
    for at in sorted(rng.choice(len(lines), size=25, replace=False), reverse=True):
        lines.insert(at, str(rng.choice(["\n", "  \n", "\t \n"])))
    sprinkled.write_text("".join(lines))
    for args, k in ((("--ell", "64", "--k", "5"), 5), (("--ell", "64"), None)):
        outputs = []
        for stream in (clean, sprinkled):
            rc, text, _ = _run(capsys, "hh", "--input", str(stream), *args)
            assert rc == 0
            outputs.append(text)
        assert outputs[0] == outputs[1] == _hh_oracle_text(items, 64, k)


@pytest.mark.parametrize("body", [
    "3\n1\n3\n2\n",
    "3\r\n1\r\n3\r\n2\r\n",
    "3\n1\n3\n2",
    "3\r1\r3\r2\r",
    "\n 3 \n\t\n1\t\n\n3\n  2",
    # str.strip() removes these separators; int() alone does not
    "\x1c3\x1f\n1\n3\n2\n",
])
def test_cli_hh_line_ends_and_blank_lines(tmp_path, capsys, body):
    stream = tmp_path / "items.txt"
    stream.write_bytes(body.encode("ascii"))
    rc, text, _ = _run(capsys, "hh", "--input", str(stream), "--ell", "2", "--k", "1")
    assert rc == 0
    assert text == _hh_oracle_text([3, 1, 3, 2], 2, 1)


@pytest.mark.parametrize("blank_at", [None, 10])
def test_cli_hh_bad_item_past_the_first_chunk_names_its_line(tmp_path, capsys, blank_at):
    lines = [f"{i}\n" for i in range(100000, 105000)]
    lines[4320] = "12x4\n"
    if blank_at is not None:
        lines[blank_at - 1] = "\n"
    assert len("".join(lines[:4320])) > cli._HH_CHUNK_CHARS
    stream = tmp_path / "items.txt"
    stream.write_text("".join(lines))
    rc, text, err = _run(capsys, "hh", "--input", str(stream), "--ell", "8")
    assert rc == 2
    assert text == ""
    assert err == f"{stream}:4321: bad item id '12x4'\n"


def test_cli_adversary_writes_stream_and_ratios(tmp_path, capsys):
    out = str(tmp_path / "adv.csv")
    rc, text, _ = _run(capsys, "adversary", "--k", "1", "--d", "2", "--n", "100",
                       "--out", out)
    assert rc == 0
    payload = json.loads(text)
    assert payload["incremental_pca_ratio"] >= 10.0
    assert payload["sketch_ratio"] <= 2.0 + 1e-9
    rows = read_rows(out)
    assert rows.shape == (100, 2)
    assert rows[0, 0] == 10.0 and rows[-1, 1] == 5.0


def test_cli_no_sparse_fd_scan(tmp_path, capsys):
    rc, text, _ = _run(capsys, "no-sparse-fd", "--ell", "4", "--c", "1.0",
                       "--step", "0.05")
    assert rc == 0
    payload = json.loads(text)
    assert payload["grid"]["empty"] is True
    assert payload["grid"]["witness"] is None
    assert abs(payload["residual_min"] - 1.25) < 1e-9
    rc, text, _ = _run(capsys, "no-sparse-fd", "--ell", "4", "--c", "0.5",
                       "--step", "0.5")
    assert rc == 0
    payload = json.loads(text)
    assert payload["grid"]["empty"] is False
    assert payload["grid"]["witness"] is not None


def test_cli_compact_json_flag(tmp_path, capsys):
    stream = str(tmp_path / "rows.csv")
    write_rows(stream, np.eye(3), "csv")
    out = str(tmp_path / "s.fdsk")
    rc, text, _ = _run(capsys, "sketch", "--input", stream, "--k", "1",
                       "--eps", "0.5", "--out", out, "--json")
    assert rc == 0
    assert text.count("\n") == 1
    json.loads(text)


def test_module_entry_point_runs(tmp_path):
    stream = tmp_path / "rows.csv"
    write_rows(str(stream), np.eye(3), "csv")
    out = tmp_path / "s.fdsk"
    proc = subprocess.run(
        [sys.executable, "-m", "fdsketch", "sketch", "--input", str(stream),
         "--k", "1", "--eps", "0.5", "--out", str(out), "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rows"] == 3
    assert out.exists()


# -- one parameter rule, and stored rows checked at load ----------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"eps": np.inf}, "eps must be finite"),
        ({"eps": np.nan}, "eps must be finite"),
        ({"eps": 8.3e-317}, "overflows"),
        ({"batch_factor": np.inf}, "batch_factor must be finite"),
        ({"batch_factor": 1e308}, "overflows"),
    ],
)
def test_constructor_rejects_parameters_no_file_can_hold(kwargs, message):
    args = {"k": 2, "eps": 0.5, "d": 5, **kwargs}
    with pytest.raises(ValueError, match=message):
        FdSketch(**args)


def _assert_clean_exit_two(rc, out, err, message):
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "option, message",
    [("--c", "parameter error: batch_factor must be finite"),
     ("--eps", "parameter error: eps must be finite")],
)
def test_cli_sketch_rejects_an_infinite_parameter(tmp_path, capsys, option, message):
    stream = str(tmp_path / "rows.csv")
    out = str(tmp_path / "s.fdsk")
    write_rows(stream, np.ones((4, 3)), "csv")
    argv = {"--k": "2", "--eps": "0.5", "--c": "1"}
    argv[option] = "inf"
    flags = [item for pair in argv.items() for item in pair]
    _assert_clean_exit_two(*_run(capsys, "sketch", "--input", stream, *flags, "--out", out),
                           message)
    assert not (tmp_path / "s.fdsk").exists()


def _sketch_file(tmp_path, rows):
    stream = str(tmp_path / "rows.bin")
    path = str(tmp_path / "s.fdsk")
    write_rows(stream, rows, "binary")
    sk = FdSketch(k=2, eps=0.5, d=rows.shape[1])
    sk.extend(rows)
    save_sketch(path, sk)
    return stream, path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["verify", "merge"])
def test_cli_rejects_a_sketch_file_with_a_subnormal_eps(tmp_path, capsys, command):
    rows = np.random.default_rng(40).normal(size=(20, 8))
    stream, good = _sketch_file(tmp_path, rows)
    blob = bytearray((tmp_path / "s.fdsk").read_bytes())
    header = struct.Struct("<4sH5Q3d")
    fields = list(header.unpack_from(blob))
    assert fields[2:4] == [2, 6]  # k, ell
    fields[7] = 8.3e-317
    header.pack_into(blob, 0, *fields)
    (tmp_path / "bad.fdsk").write_bytes(bytes(blob))
    bad = str(tmp_path / "bad.fdsk")
    with pytest.raises(SketchFormatError, match="overflows"):
        load_sketch(bad)
    argv = (["verify", "--input", stream, "--sketch", bad] if command == "verify"
            else ["merge", bad, good, "--out", str(tmp_path / "m.fdsk")])
    _assert_clean_exit_two(*_run(capsys, *argv), "input error:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["verify", "merge"])
def test_cli_rejects_a_stored_row_whose_squared_norm_overflows(tmp_path, capsys, command):
    rows = np.random.default_rng(41).normal(size=(20, 8))
    stream, good = _sketch_file(tmp_path, rows)
    blob = bytearray((tmp_path / "s.fdsk").read_bytes())
    # the first body entry: finite, but its row's squared norm is not
    struct.pack_into("<d", blob, struct.calcsize("<4sH5Q3d"), 1e200)
    (tmp_path / "bad.fdsk").write_bytes(bytes(blob))
    bad = str(tmp_path / "bad.fdsk")
    with pytest.raises(SketchFormatError, match="squared norm overflows"):
        load_sketch(bad)
    argv = (["verify", "--input", stream, "--sketch", bad] if command == "verify"
            else ["merge", bad, good, "--out", str(tmp_path / "m.fdsk")])
    _assert_clean_exit_two(*_run(capsys, *argv), "squared norm overflows")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["sketch", "verify"])
def test_cli_rejects_a_stream_row_whose_squared_norm_overflows(tmp_path, capsys, command):
    rows = np.random.default_rng(42).normal(size=(20, 8))
    _, good = _sketch_file(tmp_path, rows)
    rows[7, 3] = 1e200
    stream = str(tmp_path / "bad.bin")
    write_rows(stream, rows, "binary")
    argv = (["verify", "--input", stream, "--sketch", good] if command == "verify"
            else ["sketch", "--input", stream, "--k", "2", "--eps", "0.5",
                  "--out", str(tmp_path / "b.fdsk")])
    _assert_clean_exit_two(*_run(capsys, *argv), "squared norm overflows")
