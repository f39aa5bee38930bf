"""Seeded inputs and the rounds of the four benchmark workloads.

A round runs, one at a time, every user-facing step of its workload: the
``fdsketch`` CLI processes through a ``Session`` and the library calls in
this process. ``check`` then judges every output of the round with
``checks``; a verdict is kept per output digest, so an output repeated by
a later round is not judged twice.
"""
from __future__ import annotations

import hashlib
import json
import struct
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import fdsketch.heavy_hitters as fhh
import fdsketch.io as fio
import fdsketch.sketch as fsk

from checks import (
    SKETCH_HEADER,
    ItemsRef,
    MatrixRef,
    check_hh,
    check_sketch,
    check_sketch_file,
    check_verify,
    parse_sketch,
)
from spans import Tracer

# a hung command is killed after CLI_TIMEOUT_S, and no command may run past
# RUN_DEADLINE_S after the run starts, so a run ends well within 3 minutes
CLI_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 150.0


# -- inputs ----------------------------------------------------------------

def write_binary(path: Path, a: np.ndarray) -> None:
    """Binary row stream: ``FDRW``, d as u64 LE, row-major f64 LE."""
    with open(path, "wb") as fh:
        fh.write(b"FDRW" + struct.pack("<Q", a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def write_csv(path: Path, a: np.ndarray) -> None:
    # repr is the shortest round-trip form, so the CSV carries A's exact bits
    with open(path, "w", encoding="ascii") as fh:
        for row in a.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def low_rank_plus_noise(rng, n, d, rank, top, bottom, noise):
    """Rows near a rank-``rank`` subspace with component scales from
    ``top`` down to ``bottom``, plus i.i.d. Gaussian noise of scale ``noise``."""
    basis = rng.standard_normal((rank, d))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    coef = rng.standard_normal((n, rank)) * np.geomspace(top, bottom, rank)
    return coef @ basis + noise * rng.standard_normal((n, d))


def ill_scaled(rng, n, d):
    """Rows whose covariance spectrum decays over 6 decades in a random
    basis, rescaled so that row norms spread evenly over 4 decades."""
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rows = (rng.standard_normal((n, d)) * np.logspace(0.0, -6.0, d)) @ rotation.T
    norms = 10.0 ** rng.permutation(np.linspace(-2.0, 2.0, n))
    return rows * (norms / np.linalg.norm(rows, axis=1))[:, None]


def zipf_items(rng, n, labels, exponent):
    """``n`` draws from a Zipf(exponent) law over ``labels`` random ids."""
    ids = rng.choice(10**6, size=labels, replace=False)
    p = np.arange(1, labels + 1, dtype=np.float64) ** -exponent
    return ids[rng.choice(labels, size=n, p=p / p.sum())].tolist()


# -- running steps ---------------------------------------------------------

class Round:
    """One round: wall time and peak RSS per step, op counts, span records
    (traced rounds) and the verdict of the checks."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.walls: dict[str, float] = {}
        self.rss: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []
        self.startup_s = 0.0
        self.fails: list[str] = []
        self.quality: dict[str, float] = {}

    def add(self, step: str, wall: float, rss: float | None, ok: bool) -> None:
        self.walls[step] = self.walls.get(step, 0.0) + wall
        if rss is not None:
            self.rss[step] = max(self.rss.get(step, 0.0), rss)
        self.attempted += 1
        self.failed += not ok


class Session:
    """Runs the steps of a round, untraced or traced."""

    def __init__(self, launcher, work: Path, python: str, trace_script: Path):
        self.launcher = launcher
        self.work = work
        self.python = python
        self.trace_script = trace_script
        self.round: Round | None = None
        self._tracer: Tracer | None = None
        self._n = 0
        self._rounds = 0
        self._deadline = time.monotonic() + RUN_DEADLINE_S

    def begin(self, traced: bool) -> None:
        self._rounds += 1
        self.round = Round(traced)
        self._tracer = Tracer() if traced else None

    def end(self) -> Round:
        rnd = self.round
        if self._tracer is not None:
            rnd.records.append(self._tracer.record(run_id=self._rounds))
        self.round = self._tracer = None
        return rnd

    def _paths(self) -> tuple[Path, Path, Path]:
        """Fresh stdout, stderr and span-file paths for one process."""
        self._n += 1
        return tuple(self.work / f"p{self._n}.{ext}" for ext in ("out", "err", "spans"))

    def _launch(self, argv: list[str], out: Path, err: Path) -> tuple[dict, str]:
        timeout = min(CLI_TIMEOUT_S, max(1.0, self._deadline - time.monotonic()))
        reply = self.launcher.run(argv, out, err, timeout)
        return reply, out.read_text(errors="replace")

    def call(self, args: list[str]) -> tuple[dict, str]:
        """Run ``fdsketch ARGS`` outside any round; the launcher's reply
        (``code``, ``wall_s``, ...) and the command's stdout."""
        out, err, _ = self._paths()
        return self._launch([self.python, "-m", "fdsketch", *args], out, err)

    def cli(self, step: str, args: list[str]) -> tuple[int, str]:
        """Run ``fdsketch ARGS`` as a timed step of the current round."""
        rnd = self.round
        out, err, spans = self._paths()
        argv = [self.python, "-m", "fdsketch", *args]
        if rnd.traced:
            argv = [self.python, str(self.trace_script), str(spans), "--", *args]
        reply, text = self._launch(argv, out, err)
        rnd.add(step, reply["wall_s"], reply["rss_mib"], reply["code"] == 0)
        if reply["code"] != 0:
            sys.stderr.write(f"fdsketch {' '.join(args)}: exit {reply['code']}\n")
            sys.stderr.write(err.read_text(errors="replace")[-2000:])
        if rnd.traced and spans.is_file():
            rec = json.loads(spans.read_text())
            rec["run_id"] = self._rounds
            rnd.startup_s += rec["t_main"] - reply["t_spawn"]
            rnd.records.append(rec)
        return reply["code"], text

    def lib(self, step: str, fn):
        """Run ``fn()`` in this process as a timed step; None if it raised."""
        rnd = self.round
        if self._tracer is not None:
            self._tracer.install()
        result, ok = None, True
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, the run goes on
            ok = False
            traceback.print_exc()
        wall = time.perf_counter() - t0
        if self._tracer is not None:
            self._tracer.uninstall()
        rnd.add(step, wall, None, ok)
        return result


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# -- workloads -------------------------------------------------------------

class MatrixWorkload:
    """``sketch`` per shard, a merge tree when sharded, ``verify`` on the
    whole stream, and ``FdSketch.extend`` over the whole stream."""

    ingest_step = "sketch"

    def __init__(self, *, fmt, n, d, k, eps, ell, c, shards, make, extend_passes=1):
        self.fmt, self.n, self.d = fmt, n, d
        # passes over the stream per round, so the extend step runs about
        # as long as the CLI steps
        self.extend_passes = extend_passes
        self.k, self.eps, self.ell, self.c = k, eps, ell, c
        self.shards = shards
        self.make = make
        # buffer rows, as the sketch's documentation defines them
        self.buffer_rows = max(int(np.ceil(c * ell)), ell)
        self._verdicts: dict[str, tuple] = {}

    def prepare(self, rng, work: Path) -> None:
        self.work = work
        self.a = self.make(rng, self.n, self.d)
        self.ref = MatrixRef(self.a, self.k)
        self.stream = work / f"stream.{self.fmt}"
        (write_csv if self.fmt == "csv" else write_binary)(self.stream, self.a)
        if self.shards == 1:
            self.parts = [(self.stream, self.ref)]
        else:
            self.parts = []
            for i, rows in enumerate(np.array_split(self.a, self.shards)):
                path = work / f"shard{i:02d}.bin"
                write_binary(path, rows)
                self.parts.append((path, MatrixRef(rows, self.k)))
        # let lazy imports and BLAS thread start-up finish before timing; a
        # failure here recurs, and is counted, in the timed steps
        try:
            self._extend(self.a[: 2 * self.buffer_rows])
        except Exception:
            pass

    def _extend(self, a):
        sk = fsk.FdSketch(self.k, self.eps, self.d, batch_factor=self.c)
        sk.extend(a)
        return sk, sk.query()

    def _merge_tree(self, paths: list[Path]) -> Path:
        level, depth = list(paths), 0
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                out = self.work / f"merge{depth}-{i // 2}.fdsk"
                merged = fio.load_sketch(str(level[i])).merge(fio.load_sketch(str(level[i + 1])))
                fio.save_sketch(str(out), merged)
                nxt.append(out)
            level, depth = nxt, depth + 1
        return level[0]

    def round(self, s: Session) -> dict:
        sketches, parts = [], []
        for i, (path, _) in enumerate(self.parts):
            out = self.work / f"part{i:02d}.fdsk"
            code, _ = s.cli("sketch", ["sketch", "--input", str(path), "--k", str(self.k),
                                       "--eps", repr(self.eps), "--c", repr(self.c),
                                       "--out", str(out), "--json"])
            sketches.append(out)
            parts.append(out.read_bytes() if code == 0 else None)
        final = sketches[0] if parts[0] is not None else None
        if self.shards > 1:
            final = s.lib("merge_tree", lambda: self._merge_tree(sketches))
        code, text = s.cli("verify", ["verify", "--input", str(self.stream),
                                      "--sketch", str(final), "--json"])
        extended = [s.lib("extend", lambda: self._extend(self.a))
                    for _ in range(self.extend_passes)]
        # None marks the output of a failed operation; it is counted in
        # ``failed`` and not judged
        return {
            "parts": parts,
            "final": None if final is None else final.read_bytes(),
            "verify": None if final is None else (code, _json_or_none(text)),
            "extend": extended,
        }

    def _judge(self, key: str, fn):
        if key not in self._verdicts:
            self._verdicts[key] = fn()
        return self._verdicts[key]

    def check(self, out: dict) -> tuple[list[str], dict]:
        geometry = {"k": self.k, "eps": self.eps, "ell": self.ell}
        fails = []
        if self.shards > 1:
            for i, (blob, (_, ref)) in enumerate(zip(out["parts"], self.parts)):
                if blob is None:
                    continue
                f, _ = self._judge(f"part{i}" + _digest(blob),
                                   lambda: check_sketch_file(ref, blob, **geometry))
                fails += [f"shard {i} sketch: {m}" for m in f]
        blob, quality = out["final"], {}
        if blob is not None:
            f, quality = self._judge("final" + _digest(blob),
                                     lambda: check_sketch_file(self.ref, blob, **geometry))
            fails += [f"final sketch: {m}" for m in f]
            fails += [f"verify: {m}" for m in check_verify(*out["verify"])]
        for result in out["extend"]:
            if result is None:
                continue
            sk, q = result
            rec = dict(rows_seen=sk.rows_seen, frob=sk.input_frob_sq, delta=sk.delta_sum)
            key = _digest(q.tobytes(), repr(sorted(rec.items())).encode())
            f, _ = self._judge("extend" + key, lambda: check_sketch(
                self.ref, eps=self.eps, ell=self.ell, window_rows=self.buffer_rows,
                q=q, **rec))
            fails += [f"extend: {m}" for m in f]
        return fails, quality


class ItemsWorkload:
    """``fdsketch hh`` over an item stream, and ``MgSummary.extend``."""

    ingest_step = "hh"

    def __init__(self, *, n, labels, exponent, ell, k):
        self.n, self.labels, self.exponent = n, labels, exponent
        self.extend_passes = 1
        self.ell, self.k = ell, k

    def prepare(self, rng, work: Path) -> None:
        self.items = zipf_items(rng, self.n, self.labels, self.exponent)
        self.ref = ItemsRef(self.items)
        self.path = work / "items.txt"
        self.path.write_text("\n".join(map(str, self.items)) + "\n", encoding="ascii")
        try:  # warm-up, as for the matrix workloads
            self._extend(self.items[:10000])
        except Exception:
            pass

    def _extend(self, items):
        summary = fhh.MgSummary(self.ell)
        summary.extend(items)
        return summary

    def round(self, s: Session) -> dict:
        code, text = s.cli("hh", ["hh", "--input", str(self.path), "--ell", str(self.ell),
                                  "--k", str(self.k), "--json"])
        summary = s.lib("extend", lambda: self._extend(self.items))
        return {"hh": (code, _json_or_none(text)), "extend": summary}

    def check(self, out: dict) -> tuple[list[str], dict]:
        fails, quality = [], {}
        code, report = out["hh"]
        if code == 0:
            if report is None:
                fails.append("hh: output is not JSON")
            else:
                f, quality = check_hh(self.ref, report, ell=self.ell, k=self.k)
                fails += [f"hh: {m}" for m in f]
        summary = out["extend"]
        if summary is not None:
            report = {"n": summary.n_processed, "decrements": summary.decrement_total,
                      "items": [{"item": lab, "estimate": c}
                                for lab, c in summary.items().items()]}
            f, _ = check_hh(self.ref, report, ell=self.ell, k=self.k)
            fails += [f"extend: {m}" for m in f]
        return fails, quality


WORKLOADS = {
    "wide-dense": lambda: MatrixWorkload(
        fmt="bin", n=600, d=1000, k=10, eps=0.5, ell=30, c=1.0, shards=1,
        make=lambda rng, n, d: low_rank_plus_noise(rng, n, d, 10, 10.0, 2.0, 0.1)),
    "narrow-csv": lambda: MatrixWorkload(
        fmt="csv", n=10000, d=100, k=5, eps=0.5, ell=15, c=2.0, shards=1, extend_passes=3,
        make=lambda rng, n, d: low_rank_plus_noise(rng, n, d, 5, 5.0, 1.0, 0.3)),
    "shard-merge": lambda: MatrixWorkload(
        fmt="bin", n=512, d=1000, k=10, eps=0.5, ell=30, c=1.0, shards=16, extend_passes=2,
        make=ill_scaled),
    "items-zipf": lambda: ItemsWorkload(
        n=200000, labels=4000, exponent=1.1, ell=128, k=8),
}


# -- self-test of the checks -----------------------------------------------

def self_test(s: Session, work: Path) -> list[str]:
    """Plant one wrong output per check at tiny sizes; each must be rejected,
    and the unaltered outputs must pass. Returns what went wrong."""
    problems = []

    def expect(label: str, fails: list[str], rejected: bool) -> None:
        if bool(fails) != rejected:
            problems.append(f"self-test {label}: expected "
                            f"{'rejection' if rejected else 'pass'}, got {fails or 'pass'}")

    rng = np.random.default_rng(2013)
    a = low_rank_plus_noise(rng, 40, 12, 3, 5.0, 1.0, 0.1)
    k, eps, ell = 2, 0.5, 6
    ref = MatrixRef(a, k)
    stream, dropped, sketch = work / "st.bin", work / "st-dropped.bin", work / "st.fdsk"
    write_binary(stream, a)
    write_binary(dropped, a[1:])
    s.call(["sketch", "--input", str(stream), "--k", str(k), "--eps", repr(eps),
            "--out", str(sketch), "--json"])
    blob = sketch.read_bytes() if sketch.is_file() else b""
    unaltered = check_sketch_file(ref, blob, k=k, eps=eps, ell=ell)[0]
    expect("unaltered sketch", unaltered, False)
    if not unaltered:  # plants are only meaningful on a passing output
        rec = parse_sketch(blob)
        head = [b"FDSK", 1, rec["k"], rec["ell"], rec["m"], rec["d"], rec["rows_seen"],
                rec["eps"], rec["delta"], rec["frob"]]
        body = rec["body"].astype("<f8").tobytes()
        scaled = SKETCH_HEADER.pack(*head) + (rec["body"] * 1.01).astype("<f8").tobytes()
        expect("Q scaled by 1.01", check_sketch_file(ref, scaled, k=k, eps=eps, ell=ell)[0], True)
        head[6] += 1
        wrong_rows = SKETCH_HEADER.pack(*head) + body
        expect("wrong rows_seen",
               check_sketch_file(ref, wrong_rows, k=k, eps=eps, ell=ell)[0], True)
    for label, path, rejected in (("verify", stream, False),
                                  ("verify, one row dropped", dropped, True)):
        reply, text = s.call(["verify", "--input", str(path), "--sketch", str(sketch), "--json"])
        expect(label, check_verify(reply["code"], _json_or_none(text)), rejected)

    items = zipf_items(rng, 500, 30, 1.1)
    path = work / "st-items.txt"
    path.write_text("\n".join(map(str, items)) + "\n", encoding="ascii")
    reply, text = s.call(["hh", "--input", str(path), "--ell", "4", "--k", "2", "--json"])
    report = _json_or_none(text)
    if reply["code"] != 0 or report is None or not report["items"]:
        problems.append(f"self-test hh: exited {reply['code']}")
        return problems
    iref = ItemsRef(items)
    expect("unaltered hh", check_hh(iref, report, ell=4, k=2)[0], False)
    report["items"][0]["estimate"] += 1
    expect("hh estimate raised by one", check_hh(iref, report, ell=4, k=2)[0], True)
    return problems
