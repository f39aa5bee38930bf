"""Bound-verification harness: stream, sketch, then audit every guarantee.

A trial materializes a seeded random matrix row by row, streams it into a
sketch, and evaluates the full error report against the exact matrix. The
summary is plain JSON so external tooling can key on it:

    {"trials": [{"config": {...}, "bounds": {...}, "pass": true,
                 "millis": 12.3}, ...], "all_pass": true}

Bound keys inside each trial are fixed wire names (eq1_upper, eq1_lower,
lemma4_identity, lemma5, lemma6, lemma7_low, lemma7_high, lemma8_low,
lemma8_high). Every ``IDENTITY_CHECK_EVERY`` rows, and after the last, the
trial also checks the lost mass against an exactly accumulated ``|A|_F^2``:
pending rows are held exactly, so at every batch factor
``ell * Delta <= |A|_F^2 - |Q|_F^2 <= m * Delta``, which at ``m == ell`` is the
per-row identity; and ``Delta`` must never decrease. Either failing fails
``lemma4_identity``.

Running ``python -m fdsketch.verify`` executes a default grid and exits 1
if any bound fails, or 2 with one stderr line on a bad argument. A warning
raised by a run that completes, such as a grid whose sketch rows exceed d,
is printed as one ``warning: ...`` stderr line, as ``fdsketch`` prints it.
"""
from __future__ import annotations

import dataclasses
import math
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import _lost_mass_outside
from .counterexamples import gen_adversary
from .linalg import SvdError, frob_sq
from .sketch import IDENTITY_REL_TOL, ErrorReport, FdSketch, error_report

DISTRIBUTIONS = ("gaussian", "low-rank-plus-noise", "adversarial", "zipf-rows")

# rows between two mid-stream checks of the mass window
IDENTITY_CHECK_EVERY = 10

# the batch factors of the default grid: the per-row variant and the wider
# buffer of the O(d ell) variant
GRID_BATCH_FACTORS = (1.0, 2.0)


@dataclass(frozen=True)
class TrialConfig:
    """One harness trial: stream shape, sketch knobs, generator choice."""

    n: int
    d: int
    k: int
    eps: float
    c: float = 1.0
    seed: int = 0
    distribution: str = "gaussian"

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}, "
                f"expected one of {DISTRIBUTIONS}"
            )
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")


def generate_rows(cfg: TrialConfig) -> np.ndarray:
    """Materialize the trial matrix; identical bits for identical configs."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.distribution == "gaussian":
        return rng.normal(size=(cfg.n, cfg.d))
    if cfg.distribution == "low-rank-plus-noise":
        # rank-k signal with singular values 10k, 10(k-1), ..., 10 plus
        # small dense noise; built to satisfy the top-k dominance precondition
        k = min(cfg.k, cfg.d, cfg.n)
        gu = rng.normal(size=(cfg.n, k))
        gv = rng.normal(size=(cfg.d, k))
        u, _ = np.linalg.qr(gu)
        v, _ = np.linalg.qr(gv)
        sigma = 10.0 * np.arange(k, 0, -1)
        return (u * sigma) @ v.T + 0.1 * rng.normal(size=(cfg.n, cfg.d))
    if cfg.distribution == "adversarial":
        # deterministic construction; the seed is deliberately unused
        k = min(cfg.k, cfg.d - 1)
        return gen_adversary(max(k, 1), cfg.d, cfg.n)
    # zipf-rows: heavy repetition of a small pool of directions
    pool = rng.normal(size=(2 * cfg.k + 3, cfg.d))
    ranks = np.arange(1, pool.shape[0] + 1, dtype=np.float64)
    p = (1.0 / ranks) / (1.0 / ranks).sum()
    idx = rng.choice(pool.shape[0], size=cfg.n, p=p)
    return pool[idx]


def zipf_item_stream(
    n: int, universe: int, seed: int, exponent: float = 1.0
) -> np.ndarray:
    """Integer item stream with Zipf-like label frequencies (for the
    heavy-hitters checks)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    p = ranks**-exponent
    p /= p.sum()
    return rng.choice(universe, size=n, p=p)


@dataclass(frozen=True)
class TrialOutcome:
    config: TrialConfig
    report: Optional[ErrorReport]
    bounds: dict[str, bool]
    passed: bool
    inconclusive: bool
    millis: float
    worst_identity_residual: float
    delta_monotone: bool

    def to_json_dict(self) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "bounds": dict(self.bounds),
            "pass": self.passed,
            "millis": self.millis,
        }


def run_trial(cfg: TrialConfig) -> TrialOutcome:
    """Stream one trial and audit it. Never raises on bound failure; an
    oracle factorization failure marks the trial inconclusive (and failed).

    ``worst_identity_residual`` is the largest mid-stream distance of the
    lost mass outside ``[ell, m] * Delta``, relative to ``|A|_F^2``: 0.0
    inside the window, and ``|lost - ell * Delta|`` at ``m == ell``."""
    start = time.perf_counter()
    rows = generate_rows(cfg)
    sk = FdSketch(k=cfg.k, eps=cfg.eps, d=cfg.d, batch_factor=cfg.c)

    norm_acc: list[float] = []
    worst_resid = 0.0
    identity_ok = True
    monotone = True
    last_delta = 0.0
    for i, row in enumerate(rows, start=1):
        sk.append(row)
        norm_acc.append(math.fsum(row * row))
        if i % IDENTITY_CHECK_EVERY == 0 or i == rows.shape[0]:
            exact = math.fsum(norm_acc)
            lost = exact - frob_sq(sk._buf)
            delta = sk.delta_sum
            resid = _lost_mass_outside(lost, delta, sk.ell, sk.buffer_rows)
            rel = resid / exact if exact else resid
            worst_resid = max(worst_resid, rel)
            if resid > IDENTITY_REL_TOL * exact:
                identity_ok = False
            if delta < last_delta:
                monotone = False
            last_delta = delta

    try:
        report = error_report(rows, sk)
    except SvdError:
        report, bounds = None, {}
    else:
        bounds = report.bounds()
        # the mid-stream window and Delta's growth count with the identity
        bounds["lemma4_identity"] = bounds["lemma4_identity"] and identity_ok and monotone
    return TrialOutcome(
        config=cfg,
        report=report,
        bounds=bounds,
        passed=report is not None and all(bounds.values()),
        inconclusive=report is None,
        millis=(time.perf_counter() - start) * 1e3,
        worst_identity_residual=worst_resid,
        delta_monotone=monotone,
    )


def run_suite(configs: Iterable[TrialConfig]) -> dict:
    """Run every config and build the JSON-ready summary."""
    outcomes = [run_trial(cfg) for cfg in configs]
    return {
        "trials": [o.to_json_dict() for o in outcomes],
        "all_pass": all(o.passed for o in outcomes),
    }


def default_grid(
    n: int = 300,
    d: int = 64,
    seeds: Sequence[int] = (0, 1),
) -> list[TrialConfig]:
    """The standard desk-scale grid: k x eps x distribution x seed x batch
    factor (``GRID_BATCH_FACTORS``). The default d = 64 exceeds every ell of
    the grid (at most 55), so every trial shrinks and checks the shrinkage
    bounds."""
    grid = []
    for k in (1, 3, 5):
        for eps in (0.1, 0.25, 0.5):
            for dist in DISTRIBUTIONS:
                for seed in seeds:
                    for c in GRID_BATCH_FACTORS:
                        grid.append(
                            TrialConfig(
                                n=n, d=d, k=k, eps=eps, c=c, seed=seed,
                                distribution=dist,
                            )
                        )
    return grid


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    from .cli import _emit, _show_warning

    ap = argparse.ArgumentParser(
        prog="python -m fdsketch.verify",
        description="run the default verification grid and report JSON",
    )
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--d", type=int, default=64)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--json", action="store_true", help="compact single-line JSON")
    args = ap.parse_args(argv)
    # held back until the run succeeds, so a bad argument prints one line
    with warnings.catch_warnings(record=True) as caught:
        try:
            summary = run_suite(default_grid(n=args.n, d=args.d, seeds=args.seeds))
        except ValueError as exc:
            # exit 1 means a violated bound; bad arguments exit 2, as in fdsketch
            print(f"parameter error: {exc}", file=sys.stderr)
            return 2
    for w in caught:
        _show_warning(w.message, w.category, w.filename, w.lineno)
    _emit(summary, args.json)
    return 0 if summary["all_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
