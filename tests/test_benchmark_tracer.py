"""The benchmark's traced run patches fdsketch names from outside.

``perfbench/spans.py`` replaces functions and methods of the package by
name; a name that is removed or renamed makes the traced benchmark die with
an AttributeError. This loads the tracer from its file, installs it against
the package and uninstalls it, without editing it.
"""
import importlib.util
from pathlib import Path

import numpy as np

import fdsketch.cli as fcli
import fdsketch.heavy_hitters as fhh
import fdsketch.io as fio
import fdsketch.sketch as fsk

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    owners = (fio, fsk, fsk.FdSketch, fcli, fhh, fhh.MgSummary)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        patched = {attr for owner, attr, _ in tracer._undo}
        assert {"iter_rows", "read_rows", "error_report", "svd_thin", "best_rank_k",
                "project_rowspace", "directional_norm_gap"} <= patched
        assert fcli.error_report is not before[3]["error_report"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_traced_cli_sketch_writes_the_same_sketch(tmp_path, capsys):
    # the tracer hands back a plain generator from ``iter_rows``; the sketch
    # command must not depend on what that name returns
    rows = np.random.default_rng(27).normal(size=(70, 9))
    stream = str(tmp_path / "rows.bin")
    fio.write_rows(stream, rows, "binary")
    argv = ["sketch", "--input", stream, "--k", "2", "--eps", "0.5", "--json"]
    assert fcli.main(argv + ["--out", str(tmp_path / "plain.fdsk")]) == 0
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert fcli.main(argv + ["--out", str(tmp_path / "traced.fdsk")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (tmp_path / "plain.fdsk").read_bytes() == (tmp_path / "traced.fdsk").read_bytes()
    assert any(name == "sketch.compress" for _, _, name, _, _ in tracer.spans)
