"""Whole-library acceptance checks.

One test per shipped guarantee. Each prints a single ``[criterion NN]``
PASS/FAIL line (visible with ``pytest -s``, and in the captured output of any
failure) and then asserts. Tolerances are stated inline and are never loosened
to make a line turn green: a red line means the printed guarantee is not met
as stated.
"""

import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oracles import exact_frob_sq, jacobi_eigh, project_rows_oracle
from fdsketch.counterexamples import (
    SparseFdInstance,
    compare_on_adversary,
    orthogonal_residual_min,
    sparse_fd_check,
    sparse_feasibility_grid,
)
from fdsketch.heavy_hitters import MgSummary, error_certificate
from fdsketch.io import iter_rows, load_sketch, save_sketch, write_rows
from fdsketch.sketch import FdSketch
from fdsketch.verify import TrialConfig, generate_rows, zipf_item_stream

K_GRID = (1, 3, 5)
EPS_GRID = (0.1, 0.25, 0.5)
SEEDS = (0, 1, 2)
N_ROWS = 200
DIM = 20
OTHER_DISTS = ("low-rank-plus-noise", "adversarial", "zipf-rows")
SLACK = 1e-9
IDENTITY_TOL = 1e-8


def _criterion(num: int, ok: bool, desc: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag} {desc}", flush=True)
    assert ok, f"criterion {num:02d}: {desc}"


def _gap_extremes(rows: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Largest and smallest eigenvalue of A^T A - Q^T Q, via the rotation
    oracle rather than anything from the library under test."""
    g = rows.T @ rows - q.T @ q
    g = 0.5 * (g + g.T)
    w, _ = jacobi_eigh(g)
    return float(w[0]), float(w[-1])


def _head_mass(rows: np.ndarray, k: int) -> float:
    g = rows.T @ rows
    w, _ = jacobi_eigh(0.5 * (g + g.T))
    return float(np.maximum(w[:k], 0.0).sum())


def _new_sketch(cfg: TrialConfig) -> FdSketch:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="sketch rows")
        return FdSketch(k=cfg.k, eps=cfg.eps, d=cfg.d, batch_factor=cfg.c)


@dataclass
class Trial:
    cfg: TrialConfig
    rows: np.ndarray
    sketch: FdSketch
    fp: float
    max_gap: float
    min_gap: float
    worst_identity: float
    head: float
    tail: float
    qk_mass: float
    proj_resid: float


def _run_trial(cfg: TrialConfig) -> Trial:
    rows = generate_rows(cfg)
    sk = _new_sketch(cfg)
    row_sq: list[float] = []
    worst = 0.0
    for i, row in enumerate(rows, 1):
        sk.append(row)
        row_sq.append(math.fsum(float(x) * float(x) for x in row))
        if cfg.c == 1.0 and (i % 10 == 0 or i == cfg.n):
            cp = sk.copy()
            lost = math.fsum(row_sq) - exact_frob_sq(cp.query())
            prefix = math.fsum(row_sq)
            resid = abs(lost - cp.ell * cp.delta_sum) / max(prefix, 1.0)
            worst = max(worst, resid)
    q = sk.query()
    qk = sk.query_topk()
    fp = exact_frob_sq(rows)
    max_gap, min_gap = _gap_extremes(rows, q)
    head = _head_mass(rows, cfg.k)
    proj = project_rows_oracle(rows, qk)
    return Trial(
        cfg=cfg,
        rows=rows,
        sketch=sk,
        fp=fp,
        max_gap=max_gap,
        min_gap=min_gap,
        worst_identity=worst,
        head=head,
        tail=fp - head,
        qk_mass=exact_frob_sq(qk),
        proj_resid=exact_frob_sq(rows - proj),
    )


@pytest.fixture(scope="module")
def gaussian_trials():
    t0 = time.perf_counter()
    out = [
        _run_trial(TrialConfig(n=N_ROWS, d=DIM, k=k, eps=eps, seed=seed))
        for k in K_GRID
        for eps in EPS_GRID
        for seed in SEEDS
    ]
    elapsed = time.perf_counter() - t0
    return out, elapsed


@pytest.fixture(scope="module")
def other_trials():
    return [
        _run_trial(
            TrialConfig(n=N_ROWS, d=DIM, k=k, eps=eps, seed=0, distribution=dist)
        )
        for dist in OTHER_DISTS
        for k in K_GRID
        for eps in EPS_GRID
    ]


def _window_ok(t: Trial) -> bool:
    slack = SLACK * t.fp
    return t.min_gap >= -slack and t.max_gap <= t.fp / t.sketch.ell + slack


def _shrink_budget_ok(t: Trial) -> bool:
    p = t.sketch.params
    return t.sketch.delta_sum <= t.tail / (p.ell - p.k) + SLACK * t.fp


def _proj_ok(t: Trial) -> bool:
    return t.proj_resid <= (1.0 + t.cfg.eps) * t.tail + SLACK * t.fp


def _sandwich_ok(t: Trial) -> bool:
    lost_k = t.fp - t.qk_mass
    return (
        t.tail - SLACK * t.fp <= lost_k
        and lost_k <= (1.0 + t.cfg.eps) * t.tail + SLACK * t.fp
    )


def test_c01_directional_gap_window(gaussian_trials):
    trials, elapsed = gaussian_trials
    ok = all(_window_ok(t) for t in trials) and elapsed < 30.0
    _criterion(
        1, ok,
        f"eigenvalues of AtA-QtQ in [-1e-9*fp, fp/ell + 1e-9*fp] on "
        f"{len(trials)} gaussian trials, built in {elapsed:.1f}s (budget 30s)",
    )


def test_c02_mass_identity_checkpoints(gaussian_trials, other_trials):
    trials = gaussian_trials[0] + other_trials
    worst = max(t.worst_identity for t in trials)
    _criterion(
        2, worst <= IDENTITY_TOL,
        f"|fp - ||Q||^2 - ell*delta| <= 1e-8*fp at every 10-row checkpoint "
        f"on {len(trials)} trials (worst {worst:.2e})",
    )


def test_c03_shrink_total_vs_tail(gaussian_trials, other_trials):
    trials = gaussian_trials[0] + other_trials
    ok = all(_shrink_budget_ok(t) for t in trials)
    _criterion(
        3, ok,
        f"delta <= tail_k/(ell-k) + 1e-9*fp on {len(trials)} trials",
    )


def test_c04_projection_bound(gaussian_trials, other_trials):
    trials = gaussian_trials[0] + other_trials
    ok = all(_proj_ok(t) for t in trials)
    headroom = max(
        t.proj_resid / ((1.0 + t.cfg.eps) * t.tail)
        for t in trials
        if t.tail > 0
    )
    _criterion(
        4, ok,
        f"proj residual <= (1+eps)*tail on {len(trials)} trials "
        f"(worst observed ratio/(1+eps) {headroom:.3f})",
    )


def test_c05_sandwich(gaussian_trials, other_trials):
    trials = gaussian_trials[0] + other_trials
    ok = all(_sandwich_ok(t) for t in trials)
    _criterion(
        5, ok,
        f"tail <= fp - ||Q_k||^2 <= (1+eps)*tail on {len(trials)} trials",
    )


def test_c06_topk_energy_window(other_trials):
    lrpn = [t for t in other_trials if t.cfg.distribution == "low-rank-plus-noise"]
    applicable = [t for t in lrpn if t.tail <= t.head]
    window = all(
        (1.0 - t.cfg.eps) * t.head - SLACK * t.fp
        <= t.qk_mass
        <= t.head + SLACK * t.fp
        for t in applicable
    )
    ok = len(applicable) > 0 and window
    _criterion(
        6, ok,
        f"(1-eps)*head <= ||Q_k||^2 <= head on dominant-spectrum trials "
        f"({len(applicable)}/{len(lrpn)} applicable)",
    )


def test_c07_batched_variant(gaussian_trials):
    ok = True
    for c in (2.0, 4.0):
        for base in gaussian_trials[0]:
            cfg = TrialConfig(
                n=N_ROWS, d=DIM, k=base.cfg.k, eps=base.cfg.eps,
                seed=base.cfg.seed, c=c,
            )
            t = _run_trial(cfg)
            sk = t.sketch
            lost = t.fp - exact_frob_sq(sk.query())
            bracket = (
                sk.ell * sk.delta_sum - IDENTITY_TOL * t.fp
                <= lost
                <= sk.buffer_rows * sk.delta_sum + IDENTITY_TOL * t.fp
            )
            ok = ok and _window_ok(t) and _shrink_budget_ok(t) and _proj_ok(t)
            ok = ok and _sandwich_ok(t) and bracket
    _criterion(
        7, ok,
        "buffered variant (c in {2,4}) keeps the gap window, shrink budget, "
        "projection and sandwich bounds, with ell*delta <= lost <= m*delta",
    )


def test_c08_sharded_merge(gaussian_trials):
    ok = True
    for t in gaussian_trials[0]:
        for shards in (2, 4):
            parts = np.array_split(t.rows, shards)
            sketches = []
            for part in parts:
                sk = _new_sketch(t.cfg)
                sk.extend(part)
                sketches.append(sk)
            while len(sketches) > 1:
                sketches = [
                    a.merge(b) for a, b in zip(sketches[::2], sketches[1::2])
                ]
            merged = sketches[0]
            max_gap, min_gap = _gap_extremes(t.rows, merged.query())
            slack = SLACK * t.fp
            ok = ok and min_gap >= -slack
            ok = ok and max_gap <= t.fp / merged.ell + slack
    _criterion(
        8, ok,
        "tree-merged 2-shard and 4-shard sketches keep the directional gap "
        "window against the full stream (27 configs)",
    )


def test_c09_counter_summary_audit():
    n, universe, k = 1000, 100, 2
    ok = True
    for seed in range(10):
        stream = zipf_item_stream(n, universe, seed)
        hist = Counter(int(x) for x in stream)
        f_k = sum(c for _, c in hist.most_common(k))
        r_k = n - f_k
        for eps in (0.25, 0.5):
            ell = math.ceil(k + k / eps)
            mg = MgSummary(ell)
            mg.extend(int(x) for x in stream)
            r = mg.decrement_total
            gaps = [hist.get(j, 0) - mg.estimate(j) for j in range(universe)]
            ok = ok and all(0 <= g <= r for g in gaps)
            ok = ok and r * (ell - k) <= r_k
            top = hist.most_common(k)
            f_k_est = sum(mg.estimate(j) for j, _ in top)
            ok = ok and f_k - f_k_est <= eps * r_k
            cert = error_certificate(mg, hist, k)
            ok = ok and cert.decrement_bound_ok and cert.topk_mass_bound_ok

            ell_item = math.ceil(k + 1 / eps)
            mg2 = MgSummary(ell_item)
            mg2.extend(int(x) for x in stream)
            per_item = [hist.get(j, 0) - mg2.estimate(j) for j in range(universe)]
            ok = ok and all(g <= eps * r_k for g in per_item)
    _criterion(
        9, ok,
        "counter summaries on 10 zipf streams meet the decrement, top-k mass "
        "and per-item frequency bounds at exact integer thresholds",
    )


def test_c10_truncation_heuristic_separation():
    res = compare_on_adversary(k=1, d=2, n=100, eps=1.0)
    rows = generate_rows(TrialConfig(n=100, d=2, k=1, eps=1.0, distribution="adversarial"))
    fp = exact_frob_sq(rows)
    opt_oracle = fp - _head_mass(rows, 1)
    ok = abs(res["optimal_rank_k_err"] - opt_oracle) <= SLACK * fp
    ok = ok and abs(res["incremental_pca_err"] - 2475.0) <= 1e-9
    ok = ok and res["incremental_pca_ratio"] >= 10.0
    ok = ok and res["sketch_ratio"] <= 2.0 + SLACK
    _criterion(
        10, ok,
        f"rank-truncation streaming loses by {res['incremental_pca_ratio']:.2f}x "
        f"on the planted stream while the sketch stays at "
        f"{res['sketch_ratio']:.2f}x (<= 1+eps = 2)",
    )


def test_c11_no_sparse_reweighting():
    grid_ok = all(
        sparse_feasibility_grid(4, c).empty for c in (0.75, 1.0, 2.0)
    )
    boundary = sparse_feasibility_grid(4, 0.5)
    zero = sparse_fd_check(SparseFdInstance(4, 5), [0.0, 0.0, 0.0], c=0.5)
    grid_ok = grid_ok and not boundary.empty and zero.jointly_satisfied
    # the same at every ell of the residual check below: nothing feasible
    # above 2/ell, and a grid witness at 2/ell that the direct check accepts
    for ell in range(3, 11):
        above = (2.0 / ell + 0.1, 1.0, 2.0)
        grid_ok = grid_ok and all(sparse_feasibility_grid(ell, c).empty for c in above)
        at = sparse_feasibility_grid(ell, 2.0 / ell)
        grid_ok = grid_ok and at.witness is not None and sparse_fd_check(
            SparseFdInstance(ell, ell + 1), at.witness, c=2.0 / ell
        ).jointly_satisfied

    # Closed form of the one-row removal residual. Row j is e_1 + e_{j+1}
    # with squared norm 2. The other m = ell - 1 rows have Gram matrix
    # I + 11^T, and the removed row has inner product 1 with each of them,
    # so its mass inside their span is 1^T (I + 11^T)^{-1} 1 = m / (1 + m)
    # (Sherman-Morrison). The surviving rows lie in their own span and leave
    # nothing, so the residual is 2 - (ell - 1)/ell = 1 + 1/ell. The unit
    # value is only the nominal per-removal charge (delta = 1.0 in
    # sparse_fd_check), not the residual itself.
    worst = 0.0
    resid_ok = True
    for ell in range(3, 11):
        inst = SparseFdInstance(ell, ell + 1)
        m = ell - 1
        expected = 2.0 - m / (1.0 + m)
        val, _ = orthogonal_residual_min(inst.matrix, inst.weights)
        worst = max(worst, abs(val - expected))
        resid_ok = resid_ok and abs(val - expected) <= 1e-12
    _criterion(
        11, grid_ok and resid_ok,
        f"reweighting grid empty at c in {{0.75,1,2}} with boundary witness "
        f"at c=0.5, and for ell 3..10 empty at c in {{2/ell+0.1,1,2}} with a "
        f"jointly feasible witness at c=2/ell: {grid_ok}; removal residual "
        f"within (1 + 1/ell) +/- 1e-12 for ell 3..10: {resid_ok} (worst "
        f"deviation {worst:.3e})",
    )


def test_c12_serialization_parity(tmp_path):
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(60, 8))
    sk = FdSketch(k=2, eps=0.5, d=8)
    sk.extend(rows)
    p1 = tmp_path / "a.fdsk"
    p2 = tmp_path / "b.fdsk"
    save_sketch(str(p1), sk)
    back = load_sketch(str(p1))
    save_sketch(str(p2), back)
    ok = p1.read_bytes() == p2.read_bytes()
    ok = ok and back.params == sk.params and back.delta_sum == sk.delta_sum
    ok = ok and back.input_frob_sq == sk.input_frob_sq
    ok = ok and np.array_equal(back._buf, sk._buf)

    csv_in = tmp_path / "rows.csv"
    bin_in = tmp_path / "rows.bin"
    write_rows(str(csv_in), rows, "csv")
    write_rows(str(bin_in), rows, "binary")
    outs = []
    for src in (csv_in, bin_in):
        sk2 = FdSketch(k=2, eps=0.5, d=8)
        for row in iter_rows(str(src)):
            sk2.append(row)
        dst = tmp_path / (src.name + ".fdsk")
        save_sketch(str(dst), sk2)
        outs.append(dst.read_bytes())
    ok = ok and outs[0] == outs[1]
    _criterion(
        12, ok,
        "sketch files round-trip bit-identically and csv/binary streams of "
        "the same rows produce byte-identical sketches",
    )
