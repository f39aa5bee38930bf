"""Span tracing of fdsketch from outside the package.

``Tracer.install`` replaces public functions and methods of ``fdsketch.io``,
``fdsketch.sketch``, ``fdsketch.linalg`` (as bound inside ``sketch``),
``fdsketch.heavy_hitters`` and ``fdsketch.cli`` with wrappers that record one
span per call: id, parent id, name, start and end on the monotonic clock.
Spans stay in memory until ``record`` hands them over to be written out
once. A few counts are recorded at the same call boundaries. ``uninstall`` restores the originals,
so the benchmark process can trace one round and run the next one untraced.

Run as a script, it executes one traced ``fdsketch`` command:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json -- sketch --input ...
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

_clock = time.monotonic


class Tracer:
    """Span and count recorder for one process; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[tuple[int, str]] = [(0, "")]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0]
        self._stack.append((sid, name))
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _iterate(self, name, it):
        while True:
            try:
                row = self.call(name, next, it)
            except StopIteration:
                return
            self.count("io.parse_rows")
            yield row

    def _patch(self, owner, attr, make_wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def _timed(self, name):
        def make(fn):
            return lambda *a, **k: self.call(name, fn, *a, **k)
        return make

    def install(self) -> None:
        import fdsketch.cli as fcli
        import fdsketch.heavy_hitters as fhh
        import fdsketch.io as fio
        import fdsketch.sketch as fsk

        def iter_rows(fn):
            def wrapper(path, fmt=None):
                it = fn(path, fmt)
                # read_rows is timed as one span; per-row spans are kept for
                # the streaming ingest path only
                if self._stack[-1][1] == "io.read_rows":
                    return it
                return self._iterate("io.parse", it)
            return wrapper

        def save_sketch(fn):
            def wrapper(path, sk):
                self.call("io.save_sketch", fn, path, sk)
                self.count("io.sketch_bytes", os.path.getsize(path))
            return wrapper

        def compress(fn):
            def wrapper(sk):
                delta = self.call("sketch.compress", fn, sk)
                # a buffer of rank below ell yields a round-off delta, not 0
                if delta > 1e-12 * sk.input_frob_sq:
                    self.count("sketch.compress_useful")
                return delta
            return wrapper

        def svd_thin(fn):
            def wrapper(a):
                self.count("linalg.svd_thin_rows", len(a))
                return self.call("linalg.svd_thin", fn, a)
            return wrapper

        def update(fn):
            def wrapper(summary, item):
                before = summary.decrement_total
                self.call("heavy_hitters.update", fn, summary, item)
                if summary.decrement_total != before:
                    self.count("heavy_hitters.decrements")
            return wrapper

        self._patch(fio, "iter_rows", iter_rows)
        self._patch(fio, "read_rows", self._timed("io.read_rows"))
        self._patch(fio, "save_sketch", save_sketch)
        self._patch(fio, "load_sketch", self._timed("io.load_sketch"))
        self._patch(fsk.FdSketch, "append", self._timed("sketch.append"))
        self._patch(fsk.FdSketch, "compress", compress)
        self._patch(fsk.FdSketch, "merge", self._timed("sketch.merge"))
        # cli and sketch bind these names at import, so both bindings are wrapped
        for module in (fsk, fcli):
            self._patch(module, "error_report", self._timed("sketch.error_report"))
        # the factorizations as ``sketch`` calls them: svd_thin inside compress,
        # the three oracles inside error_report
        self._patch(fsk, "svd_thin", svd_thin)
        for name in ("best_rank_k", "project_rowspace", "directional_norm_gap"):
            self._patch(fsk, name, self._timed("linalg." + name))
        self._patch(fhh.MgSummary, "update", update)
        for module in (fhh, fcli):
            self._patch(
                module, "error_certificate",
                self._timed("heavy_hitters.error_certificate"),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def record(self, **extra) -> dict:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans],
            "counts": self.counts,
            **extra,
        }


def layer_totals(records) -> dict[str, float]:
    """Sum span totals, self times, call counts and counts over records.

    Keys: ``<span>.total_s``, ``<span>.self_s``, ``<span>.calls`` and every
    count by its own name. Self time is a span's duration minus the time its
    direct children cover.
    """
    out: dict[str, float] = {}
    for rec in records:
        names = rec["names"]
        spans = rec["spans"]
        child: dict[int, float] = {}
        for _, parent, _, t0, t1 in spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for sid, _, ni, t0, t1 in spans:
            name = names[ni]
            dur = t1 - t0
            out[name + ".total_s"] = out.get(name + ".total_s", 0.0) + dur
            out[name + ".self_s"] = (
                out.get(name + ".self_s", 0.0) + dur - child.get(sid, 0.0)
            )
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        for key, n in rec["counts"].items():
            out[key] = out.get(key, 0) + n
    return out


def _main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- COMMAND [ARGS...]", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    import fdsketch.cli

    tracer = Tracer()
    tracer.install()
    t_main = _clock()
    try:
        code = tracer.call("cli." + cli_argv[0], fdsketch.cli.main, cli_argv)
    finally:
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(tracer.record(t_main=t_main), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
