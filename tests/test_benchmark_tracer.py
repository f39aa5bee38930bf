"""The benchmark's traced run patches fdsketch names from outside.

``perfbench/spans.py`` replaces functions and methods of the package by
name; a name that is removed or renamed makes the traced benchmark die with
an AttributeError. This loads the tracer from its file, installs it against
the package and uninstalls it, without editing it.
"""
import importlib.util
from pathlib import Path

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
