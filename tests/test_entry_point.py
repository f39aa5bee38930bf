"""The process entry: ``python -m fdsketch`` and the ``fdsketch`` script.

Each command runs as its own process with stdout sent to a file, and ends
through ``cli.run``: the exit code, a complete stdout and a one-line stderr
must come out as ``main`` made them. The edge cases of the exit path run
in-process against a stubbed ``os._exit``.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdsketch.__main__ as entry
import fdsketch.cli as cli
from fdsketch.io import load_sketch, read_rows, save_sketch, write_rows
from fdsketch.sketch import FdSketch

REPO = Path(__file__).resolve().parent.parent


def _fdsketch(tmp_path, *argv):
    """Run ``python -m fdsketch ARGV`` with stdout to a file; the exit code,
    stdout and stderr."""
    out = tmp_path / "stdout.txt"
    with open(out, "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "fdsketch", *argv],
                              stdout=fh, stderr=subprocess.PIPE, text=True)
    return proc.returncode, out.read_text(), proc.stderr


def _one_line(text: str) -> bool:
    return text.endswith("\n") and text.count("\n") == 1


@pytest.fixture
def stream(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(str(path), np.random.default_rng(8).normal(size=(40, 5)), "csv")
    return path


def test_sketch_exits_zero_with_its_whole_report(tmp_path, stream):
    out = tmp_path / "s.fdsk"
    rc, text, err = _fdsketch(tmp_path, "sketch", "--input", str(stream), "--k", "1",
                              "--eps", "0.5", "--out", str(out))
    assert (rc, err) == (0, "")
    assert text.endswith("}\n")
    assert json.loads(text)["rows"] == 40
    assert load_sketch(str(out)).rows_seen == 40


def test_help_exits_zero_with_the_whole_text(tmp_path):
    rc, text, err = _fdsketch(tmp_path, "--help")
    assert (rc, err) == (0, "")
    assert text.startswith("usage: fdsketch [-h]")
    assert text.endswith("show this help message and exit\n")


def test_verify_of_a_doctored_sketch_exits_one(tmp_path, stream):
    out = tmp_path / "s.fdsk"
    sk = FdSketch(k=1, eps=0.5, d=5)
    sk.extend(read_rows(str(stream)))
    sk._buf *= 5.0
    save_sketch(str(out), sk)
    rc, text, err = _fdsketch(tmp_path, "verify", "--input", str(stream),
                              "--sketch", str(out))
    assert (rc, err) == (1, "")
    assert json.loads(text)["all_pass"] is False


def test_malformed_csv_exits_two_with_one_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    rc, text, err = _fdsketch(tmp_path, "sketch", "--input", str(bad), "--k", "1",
                              "--eps", "1.0", "--out", str(tmp_path / "s.fdsk"))
    assert (rc, text) == (2, "")
    assert _one_line(err) and err.startswith("input error: ")


def test_usage_error_exits_two_with_one_error_line(tmp_path):
    rc, text, err = _fdsketch(tmp_path, "sketch", "--k", "1")
    assert (rc, text) == (2, "")
    assert err.startswith("usage: fdsketch sketch")
    lines = err.splitlines()
    assert lines[-1].startswith("fdsketch sketch: error: the following arguments are required")
    assert sum("error:" in line for line in lines) == 1


def test_missing_input_exits_three_with_one_line(tmp_path):
    rc, text, err = _fdsketch(tmp_path, "sketch", "--input", str(tmp_path / "nope.csv"),
                              "--k", "1", "--eps", "1.0", "--out", str(tmp_path / "s.fdsk"))
    assert (rc, text) == (3, "")
    assert _one_line(err) and err.startswith("io error: ")


def test_closed_stdout_still_exits_zero(tmp_path, stream):
    # started with fd 1 closed, the interpreter sets sys.stdout to None
    out = tmp_path / "s.fdsk"
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "fdsketch", "sketch",
         "--input", str(stream), "--k", "1", "--eps", "0.5", "--out", str(out)],
        stderr=subprocess.PIPE, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert load_sketch(str(out)).rows_seen == 40


def test_closed_pipe_ends_through_the_interpreter_exit(tmp_path):
    # buffered stdout, so the help text meets the closed pipe in run's flush
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "fdsketch", "--help"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # the reader is gone long before the process has imported argparse
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 120
    assert err.splitlines()[-1] == "BrokenPipeError: [Errno 32] Broken pipe"


# -- the exit path in-process, with os._exit stubbed --------------------------


class _Exited(Exception):
    pass


class _Stream:
    def __init__(self, error=None):
        self.error = error
        self.flushed = False

    def flush(self):
        if self.error:
            raise self.error
        self.flushed = True


@pytest.fixture
def exits(monkeypatch):
    """The codes ``run`` passes to ``os._exit``, which here raises ``_Exited``."""
    codes = []

    def fake_exit(code):
        codes.append(code)
        raise _Exited

    monkeypatch.setattr(os, "_exit", fake_exit)
    return codes


def test_run_flushes_both_streams_then_exits_with_mains_code(monkeypatch, exits):
    out, err = _Stream(), _Stream()
    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    with pytest.raises(_Exited):
        cli.run()
    assert exits == [3]
    assert out.flushed and err.flushed


def test_run_skips_a_stream_that_is_none(monkeypatch, exits):
    err = _Stream()
    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", err)
    with pytest.raises(_Exited):
        cli.run()
    assert exits == [0]
    assert err.flushed


def test_run_leaves_a_failed_flush_to_the_interpreter_exit(monkeypatch, exits):
    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(sys, "stdout", _Stream(BrokenPipeError(32, "Broken pipe")))
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 1
    assert exits == []


def test_run_passes_on_a_systemexit_without_an_int_code(monkeypatch, exits):
    def message_exit():
        raise SystemExit("stop")

    monkeypatch.setattr(cli, "main", message_exit)
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == "stop"
    assert exits == []


def test_console_script_is_the_module_entry():
    text = (REPO / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^fdsketch\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    module, name = target.groups()
    __import__(module)
    fn = getattr(sys.modules[module], name)
    assert callable(fn)
    assert fn is entry.run is cli.run
