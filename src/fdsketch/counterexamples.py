"""Executable counterexamples: where naive alternatives break.

Two constructions live here. The first is an adversarial stream for
incremental rank-k truncation ("keep the best rank-k fit after every row"):
a head of k slightly-separated strong directions followed by a long run of
identical medium rows in a fresh direction. The truncation discards the new
direction every single time, so its final projection error is the entire
tail mass, while the shrinkage sketch with eps = 1 stays within a factor 2
of optimal.

The second shows why no shrinkage rule that only rescales existing rows can
spend a constant fraction of the removal budget per step: on a matrix whose
rows all share one coordinate ("hard instance"), losing at least c*ell*delta
of Frobenius mass (P1) and at most delta in every direction (P2) are jointly
impossible once c > 2/ell. The checker evaluates both predicates numerically
for any re-weighting. Both depend on the re-weighting only through its sum,
so the feasible points of a grid of re-weightings are those whose index sum
lies in one interval, and a closed-form count over that interval shows the
feasible set empty above 2/ell, for any ell.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_matrix, frob_sq, project_rowspace, svd_thin

_TOL = 1e-9


def gen_adversary(
    k: int, d: int, n: int, sigma_k: float = 10.0, tail_norm: float = 5.0
) -> np.ndarray:
    """Adversarial stream: k head rows, then n - k identical tail rows.

    Head row j (1-based) is (sigma_k + k - j) * e_j, so the head spectrum
    decreases down to exactly ``sigma_k``. Tail rows are ``tail_norm *
    e_{k+1}``, orthogonal to the whole head and strictly weaker than any
    head row, which is what makes per-row truncation drop them forever.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if d <= k:
        raise ValueError("need d >= k + 1 for the tail direction")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < tail_norm < sigma_k:
        raise ValueError("need 0 < tail_norm < sigma_k")
    rows = np.zeros((n, d))
    head = min(n, k)
    for j in range(head):
        rows[j, j] = sigma_k + (k - 1 - j)
    rows[head:, k] = tail_norm
    return rows


def incremental_pca(rows, k: int) -> np.ndarray:
    """Maintain the best rank-k fit after every row; returns the k-row state.

    State is the k-by-d matrix diag(s_k) @ V_k.T of the truncated SVD of
    [state; new_row]. This is the natural "just keep the top k" streaming
    heuristic the adversarial stream defeats.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mat = as_matrix(rows)
    d = mat.shape[1]
    state = np.zeros((0, d))
    for row in mat:
        stacked = np.vstack([state, row[None, :]])
        f = svd_thin(stacked)
        r = min(k, int((f.s > 0).sum()))
        state = f.s[:r, None] * f.v.T[:r]
    if state.shape[0] < k:
        state = np.vstack([state, np.zeros((k - state.shape[0], d))])
    return state


def projection_error_sq(a, basis_rows) -> float:
    """Squared Frobenius mass of ``a`` left outside the row space given."""
    arr = as_matrix(a)
    return frob_sq(arr - project_rowspace(arr, basis_rows))


def compare_on_adversary(k: int, d: int, n: int, eps: float = 1.0) -> dict:
    """Run the truncation heuristic and the sketch on the same adversarial
    stream and report both projection errors against the exact optimum."""
    from .linalg import best_rank_k
    from .sketch import FdSketch

    rows = gen_adversary(k, d, n)
    ipca_state = incremental_pca(rows, k)
    sk = FdSketch(k=k, eps=eps, d=d)
    sk.extend(rows)
    opt = frob_sq(rows - best_rank_k(rows, k))
    ipca_err = projection_error_sq(rows, ipca_state)
    fd_err = projection_error_sq(rows, sk.query_topk())
    tail_mass = frob_sq(rows[min(n, k):])
    return {
        "k": k,
        "d": d,
        "n": n,
        "eps": eps,
        "optimal_rank_k_err": opt,
        "incremental_pca_err": ipca_err,
        "sketch_err": fd_err,
        "incremental_pca_ratio": ipca_err / opt if opt else float("inf"),
        "sketch_ratio": fd_err / opt if opt else float("inf"),
        "tail_mass": tail_mass,
    }


@dataclass(frozen=True)
class SparseFdInstance:
    """The shared-coordinate hard instance: row j is e_1 + e_{j+1}.

    Removing any one row leaves a squared residual of exactly 1 + 1/ell:
    the other ell - 1 rows have Gram matrix I + 11^T and the removed row has
    inner product 1 with each, so of its squared norm 2 only
    1^T (I + 11^T)^{-1} 1 = (ell - 1)/ell lies in their span.
    """

    ell: int
    d: int

    def __post_init__(self):
        if self.ell < 2:
            raise ValueError("ell must be >= 2")
        if self.d <= self.ell:
            raise ValueError("need d > ell")

    @property
    def matrix(self) -> np.ndarray:
        q = np.zeros((self.ell, self.d))
        q[:, 0] = 1.0
        q[np.arange(self.ell), np.arange(1, self.ell + 1)] = 1.0
        return q

    @property
    def weights(self) -> np.ndarray:
        """Row norms; every row has squared norm exactly 2."""
        return np.full(self.ell, np.sqrt(2.0))

    @property
    def removal_residual(self) -> float:
        """The squared residual 1 + 1/ell of removing any one row, which
        ``orthogonal_residual_min`` finds by one projection per row; by
        symmetry every row attains it."""
        return 1.0 + 1.0 / self.ell


def orthogonal_residual_min(q, weights: Optional[np.ndarray] = None) -> tuple[float, int]:
    """Smallest squared residual of Q against Q with one row removed.

    For each row index j, projects every row of Q onto the row space of Q
    minus row j and measures the squared Frobenius mass left over; returns
    the minimum and its index. ``weights`` optionally rescales row i to
    ``weights[i] * row_i / |row_i|`` before measuring.

    On ``SparseFdInstance`` (with or without its own ``weights``) every
    one-row removal leaves exactly 1 + 1/ell, so that is the minimum.
    """
    qm = as_matrix(q, name="q")
    if qm.shape[0] < 2:
        raise ValueError("need at least two rows")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size != qm.shape[0]:
            raise ValueError("one weight per row required")
        norms = np.sqrt((qm**2).sum(axis=1))
        if np.any(norms == 0):
            raise ValueError("cannot re-weight a zero row")
        qm = (w / norms)[:, None] * qm
    best_val = float("inf")
    best_idx = -1
    for j in range(qm.shape[0]):
        rest = np.delete(qm, j, axis=0)
        val = frob_sq(qm - project_rowspace(qm, rest))
        if val < best_val:
            best_val = val
            best_idx = j
    return best_val, best_idx


@dataclass(frozen=True)
class SparseFdReport:
    """Outcome of testing one re-weighting against the two requirements."""

    ell: int
    c: float
    delta: float
    removed_row: int
    sum_alpha: float
    frob_before: float
    frob_after: float
    dir_before: float
    dir_after: float
    feasible: bool
    p1_satisfied: bool
    p2_satisfied: bool
    jointly_satisfied: bool
    threshold_c: float


def sparse_fd_check(
    instance: SparseFdInstance,
    alphas,
    c: float,
    delta: Optional[float] = 1.0,
    removed_row: Optional[int] = None,
    direction: Optional[np.ndarray] = None,
) -> SparseFdReport:
    """Test one candidate update (remove a row, rescale the rest) on the
    hard instance.

    ``alphas`` holds ell - 1 reductions of squared row weights for the
    surviving rows in order. P1 asks that total squared mass drops by at
    least ``c * ell * delta``; P2 asks that no direction loses more than
    ``delta`` (checked along ``direction``, default e_1, where the instance
    is tightest). ``delta`` defaults to 1.0, the nominal per-removal charge
    for this construction. It is a normalisation, not the measured cost of a
    removal, which is 1 + 1/ell (``instance.removal_residual``); pass None
    to charge that exact residual instead. Joint satisfiability
    happens exactly when c <= 2/ell under either charge: P1 and P2 reduce to
    c*ell*delta - 2 <= sum(alpha) <= 2*delta - 2, whose ends meet at
    c = 2/ell for every delta > 0.
    """
    ell, d = instance.ell, instance.d
    a = np.asarray(alphas, dtype=np.float64).reshape(-1)
    if a.size != ell - 1:
        raise ValueError(f"expected {ell - 1} alphas, got {a.size}")
    if removed_row is None:
        removed_row = ell - 1
    if not 0 <= removed_row < ell:
        raise ValueError("removed_row out of range")
    q = instance.matrix
    w_sq = (q**2).sum(axis=1)
    delta_val = instance.removal_residual if delta is None else float(delta)

    if direction is None:
        x = np.zeros(d)
        x[0] = 1.0
    else:
        x = np.asarray(direction, dtype=np.float64).reshape(-1)
        if x.size != d:
            raise ValueError("direction has wrong dimension")
        nrm = float(np.sqrt(x @ x))
        if nrm == 0:
            raise ValueError("direction must be nonzero")
        x = x / nrm

    survivors = np.delete(np.arange(ell), removed_row)
    new_w_sq = w_sq[survivors] - a
    feasible = bool(np.all(new_w_sq >= -_TOL))
    scale = np.sqrt(np.maximum(new_w_sq, 0.0) / w_sq[survivors])
    q_hat = scale[:, None] * q[survivors]

    frob_before = frob_sq(q)
    frob_after = frob_sq(q_hat)
    dir_before = float(((q @ x) ** 2).sum())
    dir_after = float(((q_hat @ x) ** 2).sum())

    p1 = frob_after <= frob_before - c * ell * delta_val + _TOL
    p2 = dir_before <= dir_after + delta_val + _TOL
    return SparseFdReport(
        ell=ell,
        c=float(c),
        delta=delta_val,
        removed_row=removed_row,
        sum_alpha=float(a.sum()),
        frob_before=frob_before,
        frob_after=frob_after,
        dir_before=dir_before,
        dir_after=dir_after,
        feasible=feasible,
        p1_satisfied=p1,
        p2_satisfied=p2,
        jointly_satisfied=feasible and p1 and p2,
        threshold_c=2.0 / ell,
    )


@dataclass(frozen=True)
class GridScan:
    """Exact feasibility count over the re-weighting grid for one (ell, c)."""

    ell: int
    c: float
    delta: float
    lo: float
    hi: float
    step: float
    points_checked: int
    feasible_count: int
    witness: Optional[tuple[float, ...]]
    threshold_c: float

    @property
    def empty(self) -> bool:
        return self.feasible_count == 0


def _prefix_len(size: int, inside, estimate: float) -> int:
    """Length of the prefix of ``range(size)`` on which ``inside``, a test of
    a nondecreasing grid value against a threshold, holds; ``estimate`` is
    that length in floats, within a unit or two of the truth by the step
    check of ``sparse_feasibility_grid``."""
    if size <= 0 or not inside(0):
        return 0
    if inside(size - 1):
        return size
    # the threshold lies inside the grid, so the estimate is finite
    k = min(max(math.ceil(estimate), 1), size - 1)
    for _ in range(4):
        if inside(k):
            k += 1
        elif not inside(k - 1):
            k -= 1
        else:
            return k
    raise AssertionError("grid threshold estimate did not settle")


def sparse_feasibility_grid(
    ell: int,
    c: float,
    lo: float = -2.0,
    hi: float = 2.0,
    step: float = 0.01,
    delta: float = 1.0,
) -> GridScan:
    """Count the jointly feasible alpha on the grid [lo, hi]^(ell-1) exactly.

    Uses the algebraic reduction of P1 and P2 on the hard instance (both
    depend on alpha only through its sum; the unit tests verify the
    reduction against ``sparse_fd_check`` point by point): P1 holds when
    sum(alpha) >= c*ell*delta - 2 and P2 when sum(alpha) <= 2*delta - 2.
    Grid value i is lo + step*i, and the first n are at most 2 (a larger
    one drives a squared weight negative). A tuple of dims = ell - 1 indices
    with index sum S has sum(alpha) = dims*lo + step*S, so it is feasible
    exactly when S_lo <= S <= S_hi. By stars and bars with
    inclusion-exclusion, F(s) = sum_j (-1)^j C(dims, j) C(s - j*n + dims, dims)
    tuples have index sum at most s, so ``feasible_count`` is
    F(S_hi) - F(S_lo - 1), and ``witness`` is the lexicographically first
    feasible tuple, which has index sum S_lo. A step too fine for floats to
    tell neighbouring grid sums apart is rejected as bad grid bounds. A grid
    of n^dims points with more digits than the interpreter converts to a
    string (``sys.get_int_max_str_digits``) is rejected before any count is
    formed, since no report could print the count.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    dims = ell - 1
    # span bounds every grid value, sum of dims values and difference of two
    # sums; a step above 8 ulps of it keeps neighbouring sums apart and the
    # estimates of _prefix_len within a unit or two of the truth
    span = dims * (abs(lo) + abs(hi))
    if not (hi >= lo and 8 * math.ulp(span) < step < math.inf):
        raise ValueError("bad grid bounds")
    npts = int(round((hi - lo) / step)) + 1
    cap = 2.0 + _TOL
    n = _prefix_len(npts, lambda i: lo + step * i <= cap, (cap - lo) / step)
    # the feasible count is at most the point count
    points = n**dims
    limit = sys.get_int_max_str_digits()
    if limit and points >= 10**limit:
        raise ValueError(
            f"ell {ell} gives a grid count of more than {limit} digits, "
            "above the interpreter's int-to-string limit (PYTHONINTMAXSTRDIGITS)"
        )
    base = dims * lo
    p1_floor = c * ell * delta - 2.0 - _TOL
    p2_ceil = 2.0 * delta - 2.0 + _TOL
    sums = dims * (n - 1) + 1
    # "not >=" rather than "<", so that a NaN demand admits nothing
    s_lo = _prefix_len(
        sums, lambda s: not (base + step * s >= p1_floor), (p1_floor - base) / step
    )
    s_hi = _prefix_len(sums, lambda s: base + step * s <= p2_ceil, (p2_ceil - base) / step) - 1

    def tuples_upto(s: int) -> int:
        js = range(min(dims, s // n) + 1) if s >= 0 else ()
        return sum((-1) ** j * math.comb(dims, j) * math.comb(s - j * n + dims, dims) for j in js)

    feasible = 0
    witness: Optional[tuple[float, ...]] = None
    if s_lo <= s_hi:
        feasible = tuples_upto(s_hi) - tuples_upto(s_lo - 1)
        rest, idx = s_lo, []
        for t in range(dims):
            idx.append(max(0, rest - (dims - 1 - t) * (n - 1)))
            rest -= idx[-1]
        witness = tuple(lo + step * i for i in idx)
    return GridScan(
        ell=ell,
        c=float(c),
        delta=float(delta),
        lo=float(lo),
        hi=float(hi),
        step=float(step),
        points_checked=points,
        feasible_count=feasible,
        witness=witness,
        threshold_c=2.0 / ell,
    )
