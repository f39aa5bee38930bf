"""Command-line front end.

Subcommands: sketch, merge, verify, hh, adversary, no-sparse-fd. Every
report goes to stdout as JSON (indented by default, compact with --json).
Exit codes: 0 success, 1 verification found a violated bound, 2 malformed
input or parameters (including a size that cannot be allocated), 3 file I/O
failure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import io as fio
from .counterexamples import (
    SparseFdInstance,
    compare_on_adversary,
    gen_adversary,
    orthogonal_residual_min,
    sparse_feasibility_grid,
)
from .heavy_hitters import MgSummary, error_certificate
from .sketch import FdParams, FdSketch, error_report, sketch_rows_for


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
    left = fio.load_sketch(args.in1)
    right = fio.load_sketch(args.in2)
    merged = left.merge(right)
    fio.save_sketch(args.out, merged)
    _emit(_sketch_payload("merge", args.out, merged, ("k", "eps", "ell", "d")), args.json)
    return 0


def _cmd_verify(args) -> int:
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
    exact: Optional[dict[int, int]] = {} if args.k is not None else None
    with open(args.input, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                item = int(text)
            except ValueError:
                print(f"{args.input}:{line_no}: bad item id {text!r}", file=sys.stderr)
                return 2
            summary.update(item)
            if exact is not None:
                exact[item] = exact.get(item, 0) + 1
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
    rows = gen_adversary(args.k, args.d, args.n)
    fio.write_rows(args.out, rows, args.format or "csv")
    comparison = compare_on_adversary(args.k, args.d, args.n, eps=args.eps)
    comparison["command"] = "adversary"
    comparison["out"] = args.out
    _emit(comparison, args.json)
    return 0


def _cmd_no_sparse_fd(args) -> int:
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except fio.RowStreamError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except fio.SketchFormatError as exc:
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


if __name__ == "__main__":
    raise SystemExit(main())
