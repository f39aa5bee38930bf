"""Command-line front end.

Subcommands: sketch, merge, verify, hh, adversary, no-sparse-fd. Every
report goes to stdout as JSON (indented by default, compact with --json).
Exit codes: 0 success, 1 verification found a violated bound, 2 malformed
input or parameters (including a size that cannot be allocated), 3 file I/O
failure.

A command loads only what it runs. At import this module loads argparse,
json, ``bounds`` and ``heavy_hitters``, none of which loads numpy or
``dataclasses``; that is all ``hh`` and ``--help`` load. ``sketch``, ``merge``
and ``verify`` import ``io`` (and with it numpy, ``linalg`` and ``sketch``)
when they start, and ``adversary`` and ``no-sparse-fd`` import
``counterexamples``. ``error_report`` and ``error_certificate`` are still
bound here at import (from numpy-free modules), so a tracer can wrap them by
name.

``main`` is the in-process API: it returns the exit code and never ends the
process. ``run`` is the process entry of both ``fdsketch`` and
``python -m fdsketch``: it calls ``main``, flushes stdout and stderr, and
ends with ``os._exit``. Every file a command writes is closed before
``main`` returns, so the interpreter's own exit would only tear down the
loaded modules, 15-25 ms once numpy is loaded, in every process of a
shard-and-merge pipeline. If a flush fails, the interpreter's exit takes
over and reports it. ``os._exit`` also skips ``atexit`` hooks, so profile or
trace ``main`` in-process, as ``perfbench/spans.py`` does, not
``python -m fdsketch``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from .bounds import error_report, sketch_rows_for
from .heavy_hitters import MgSummary, error_certificate

if TYPE_CHECKING:
    from .sketch import FdSketch

# size hint, in characters, of one ``readlines`` chunk of an hh item stream.
# 4 KiB to 64 KiB parse 200k ids equally fast; a chunk's lines and ints are
# all hh holds of the stream at once, and from 16 KiB on they outweigh a
# tenth of the histogram of 100k distinct ids
_HH_CHUNK_CHARS = 8 << 10


# ErrorReport fields in verify's "report", after "rows"; each keeps its name
_VERIFY_REPORT_FIELDS = (
    "ell", "buffer_rows", "frob_a_sq", "frob_q_sq", "frob_qk_sq", "delta_sum",
    "max_dir_gap", "min_dir_gap", "frob_identity_residual", "proj_err_ratio",
    "rank_k_residual_sq", "rank_k_mass_sq", "qk_norm_bounds",
    "topk_window_applicable",
)


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _emit(payload: dict, compact: bool) -> None:
    """Print ``payload`` as strict JSON: a non-finite value is written as null."""
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    print(json.dumps(_finite_or_null(payload), allow_nan=False, **layout))


def _sketch_payload(command: str, out: str, sk: FdSketch, geometry: Sequence[str]) -> dict:
    """The report of a command that writes a sketch file."""
    payload = {"command": command, "out": out}
    payload.update((name, getattr(sk, name)) for name in geometry)
    payload.update(rows=sk.rows_seen, delta_sum=sk.delta_sum, input_frob_sq=sk.input_frob_sq)
    return payload


def _cmd_sketch(args) -> int:
    import numpy as np

    from . import io as fio
    from .sketch import FdParams, FdSketch

    with fio.RowReader(args.input, args.format) as stream:
        # an empty CSV carries no width; d=1 by convention
        params = FdParams.create(args.k, args.eps, stream.d or 1, args.c)
        blocks = stream.blocks(params.buffer_rows)
        # read a block before the width sizes the buffer, so a bogus width
        # over a short body fails as malformed input, not as an allocation
        first = list(itertools.islice(blocks, 1))
        sk = FdSketch._from_state(params, np.zeros((params.buffer_rows, params.d)), 0, 0.0, 0.0)
        for block in itertools.chain(first, blocks):
            sk.extend(block)
    fio.save_sketch(args.out, sk)
    geometry = ("k", "eps", "ell", "buffer_rows", "d")
    _emit(_sketch_payload("sketch", args.out, sk, geometry), args.json)
    return 0


def _cmd_merge(args) -> int:
    from . import io as fio

    left = fio.load_sketch(args.in1)
    right = fio.load_sketch(args.in2)
    merged = left.merge(right)
    fio.save_sketch(args.out, merged)
    _emit(_sketch_payload("merge", args.out, merged, ("k", "eps", "ell", "d")), args.json)
    return 0


def _cmd_verify(args) -> int:
    from . import io as fio

    sk = fio.load_sketch(args.sketch)
    with fio.RowReader(args.input, args.format) as rows:
        # before error_report allocates its d x d accumulator
        rows.check_width(sk.d)
        report = error_report(rows.blocks(), sk)
    if rows.rows_read != sk.rows_seen:
        print(
            f"warning: stream has {rows.rows_read} rows but the sketch "
            f"processed {sk.rows_seen}",
            file=sys.stderr,
        )
    summary = {"rows": report.rows_seen}
    summary.update((name, getattr(report, name)) for name in _VERIFY_REPORT_FIELDS)
    _emit(
        {
            "command": "verify",
            "bounds": report.bounds(),
            "all_pass": report.all_ok,
            "report": summary,
        },
        args.json,
    )
    return 0 if report.all_ok else 1


def _cmd_hh(args) -> int:
    if args.ell is not None:
        ell = args.ell
    elif args.k is not None and args.eps is not None:
        ell = sketch_rows_for(args.k, args.eps)
    else:
        print("hh: need --ell, or both --k and --eps", file=sys.stderr)
        return 2
    if args.k is not None and not 0 < args.k < ell:
        raise ValueError(f"--k {args.k} must satisfy 0 < k < ell = {ell} for a certificate")
    summary = MgSummary(ell)
    # the exact histogram grows with the distinct labels; only --k needs it
    exact: Optional[Counter[int]] = Counter() if args.k is not None else None
    with open(args.input, "r", encoding="ascii") as fh:
        lines_done = 0
        while lines := fh.readlines(_HH_CHUNK_CHARS):
            try:
                # int() ignores the whitespace around an id, line end included
                items = list(map(int, lines))
            except ValueError:
                # a blank line, a bad id or a separator only str.strip()
                # removes (such as \x1c): this chunk goes line by line
                items = []
                for line_no, line in enumerate(lines, start=lines_done + 1):
                    text = line.strip()
                    if not text:
                        continue
                    try:
                        items.append(int(text))
                    except ValueError:
                        print(f"{args.input}:{line_no}: bad item id {text!r}",
                              file=sys.stderr)
                        return 2
            lines_done += len(lines)
            summary.extend(items)
            if exact is not None:
                exact.update(items)
    payload: dict = {
        "command": "hh",
        "ell": ell,
        "n": summary.n_processed,
        "decrements": summary.decrement_total,
        "items": [
            {"item": label, "estimate": count}
            for label, count in sorted(
                summary.items().items(), key=lambda kv: (-kv[1], kv[0])
            )
        ],
    }
    if exact is not None:
        cert = error_certificate(summary, exact, args.k)
        payload["certificate"] = {
            "k": cert.k,
            "decrements": cert.decrements,
            "top_k_mass": cert.top_k_mass,
            "top_k_mass_est": cert.top_k_mass_est,
            "residual_mass": cert.residual_mass,
            "max_item_gap": cert.max_item_gap,
            "decrement_bound_ok": cert.decrement_bound_ok,
            "topk_mass_bound_ok": cert.topk_mass_bound_ok,
        }
    _emit(payload, args.json)
    return 0


def _cmd_adversary(args) -> int:
    from . import io as fio
    from .counterexamples import compare_on_adversary, gen_adversary

    rows = gen_adversary(args.k, args.d, args.n)
    fio.write_rows(args.out, rows, args.format or "csv")
    comparison = compare_on_adversary(args.k, args.d, args.n, eps=args.eps)
    comparison["command"] = "adversary"
    comparison["out"] = args.out
    _emit(comparison, args.json)
    return 0


def _cmd_no_sparse_fd(args) -> int:
    from .counterexamples import (
        SparseFdInstance,
        orthogonal_residual_min,
        sparse_feasibility_grid,
    )

    d = args.d if args.d is not None else args.ell + 1
    inst = SparseFdInstance(ell=args.ell, d=d)
    grid = sparse_feasibility_grid(args.ell, args.c, step=args.step)
    resid, argmin = orthogonal_residual_min(inst.matrix)
    _emit(
        {
            "command": "no-sparse-fd",
            "ell": args.ell,
            "d": d,
            "c": args.c,
            "threshold_c": grid.threshold_c,
            "grid": {
                "step": grid.step,
                "points_checked": grid.points_checked,
                "feasible_count": grid.feasible_count,
                "empty": grid.empty,
                "witness": list(grid.witness) if grid.witness else None,
            },
            "residual_min": resid,
            "residual_argmin": argmin,
        },
        args.json,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fdsketch",
        description="streaming matrix sketching with deterministic error bounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sketch", help="sketch a row stream into a sketch file")
    p.add_argument("--input", required=True, help="row stream (CSV or binary)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0, help="buffer batch factor")
    p.add_argument("--out", required=True, help="sketch file to write")
    p.add_argument("--format", choices=("csv", "binary"), default=None)
    p.add_argument("--json", action="store_true", help="compact JSON output")
    p.set_defaults(fn=_cmd_sketch)

    p = sub.add_parser("merge", help="merge two sketch files")
    p.add_argument("in1")
    p.add_argument("in2")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser("verify", help="audit a sketch against its stream")
    p.add_argument("--input", required=True)
    p.add_argument("--sketch", required=True)
    p.add_argument("--format", choices=("csv", "binary"), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hh", help="heavy hitters over an integer item stream")
    p.add_argument("--input", required=True, help="newline-delimited item ids")
    p.add_argument("--ell", type=int, default=None, help="counter capacity")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_hh)

    p = sub.add_parser("adversary", help="write the truncation-defeating stream")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "binary"), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_adversary)

    p = sub.add_parser(
        "no-sparse-fd", help="feasibility scan for sparse shrink updates"
    )
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_no_sparse_fd)

    return ap


def _input_errors() -> tuple:
    """The malformed-input errors of ``io``, or none if no command loaded it
    (then none of them can have been raised)."""
    fio = sys.modules.get(__package__ + ".io")
    return (fio.RowStreamError, fio.SketchFormatError) if fio else ()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) and return its
    exit code; a usage error or ``--help`` raises argparse's ``SystemExit``."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _input_errors() as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # e.g. a binary header whose width sizes a buffer no machine holds
        print(f"parameter error: out of memory: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """End the process with the exit code of ``main()`` on ``sys.argv``,
    through ``os._exit`` once stdout and stderr are flushed.

    An argparse exit (``--help``, a usage error) ends with its own code. A
    standard stream that is None (the process started with that descriptor
    closed) is skipped. A flush that fails, such as one into a pipe whose
    reader has gone, leaves the exit to the interpreter, which reports the
    failure and exits 120, as Python does when it cannot flush stdout.
    """
    try:
        code = main()
    except SystemExit as exc:
        # argparse ends --help with 0 and a usage error with 2
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
