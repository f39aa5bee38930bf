"""The sketch's size rule and the audit of its guarantees against a stream.

``sketch_rows_for`` maps a rank target and an accuracy to the number of
sketch rows, and ``error_report`` evaluates every bound the sketch promises
against the stream it was built from. Nothing here loads numpy at import:
``error_report`` loads it, with ``linalg``, when it is called. So a command
that needs only the size rule, such as ``fdsketch hh --k K --eps E``, starts
without numpy, while ``sketch`` re-exports these names and every module binds
the same function objects.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .sketch import FdSketch

# Pass tolerances for the bound checks: identities get 1e-8 relative, one-sided
# inequalities get an absolute slack of 1e-9 * |A|_F^2. ``error_report`` floors
# both for gradual underflow.
IDENTITY_REL_TOL = 1e-8
INEQ_REL_TOL = 1e-9
# the spacing of the subnormal floats, below 2^-1022
_SUBNORMAL_STEP = 2.0**-1074

# Guard for ceil(k + k/eps) style expressions: floating noise in the division
# must not bump the ceiling to the next integer.
_CEIL_GUARD = 1.0 - 1e-12


def _ceil_guarded(v: float) -> int:
    return int(math.ceil(v * _CEIL_GUARD))


def sketch_rows_for(k: int, eps: float) -> int:
    """Number of sketch rows needed for rank target k at accuracy eps.

    eps must be finite and > 0, and small enough that ``k + k/eps`` is
    finite; anything else raises ``ValueError``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    try:
        rows = k + k / eps
    except OverflowError:  # a k past the float range
        rows = math.inf
    if not math.isfinite(rows):
        raise ValueError(f"ell = ceil(k + k/eps) overflows at k={k}, eps={eps!r}")
    # ell > k is structural (the error bounds divide by ell - k)
    return max(_ceil_guarded(rows), k + 1)


class ErrorReport(NamedTuple):
    """Every guarantee of one sketch evaluated against its stream A.

    An immutable named tuple. Raw quantities are kept alongside the
    pass/fail booleans so callers can renormalize or log them.
    ``qk_norm_bounds`` is the admissible window ``((1-eps)|A_k|^2, |A_k|^2)``
    for the top-k sketch mass; the window lower bound is only claimed when
    ``topk_window_applicable`` (the tail of A is no heavier than its top-k
    part).
    """

    k: int
    eps: float
    ell: int
    buffer_rows: int
    mass_bracket_rows: int
    rows_seen: int
    frob_a_sq: float
    frob_q_sq: float
    frob_qk_sq: float
    delta_sum: float
    max_dir_gap: float
    min_dir_gap: float
    frob_identity_residual: float
    rank_k_residual_sq: float
    rank_k_mass_sq: float
    proj_residual_sq: float
    proj_err_ratio: float
    qk_norm_bounds: tuple[float, float]
    gap_upper_ok: bool
    gap_lower_ok: bool
    mass_window_ok: bool
    shrink_budget_ok: bool
    proj_ratio_ok: bool
    sandwich_low_ok: bool
    sandwich_high_ok: bool
    topk_window_applicable: bool
    topk_low_ok: bool
    topk_high_ok: bool

    def bounds(self) -> dict[str, bool]:
        """Pass/fail map under the wire names the verification summary uses."""
        return {
            "eq1_upper": self.gap_upper_ok,
            "eq1_lower": self.gap_lower_ok,
            "lemma4_identity": self.mass_window_ok,
            "lemma5": self.shrink_budget_ok,
            "lemma6": self.proj_ratio_ok,
            "lemma7_low": self.sandwich_low_ok,
            "lemma7_high": self.sandwich_high_ok,
            "lemma8_low": self.topk_low_ok,
            "lemma8_high": self.topk_high_ok,
        }

    @property
    def all_ok(self) -> bool:
        return all(self.bounds().values())


def _stream_gram(blocks: Iterable, d: int) -> tuple[np.ndarray, float, int]:
    """``A^T A``, ``|A|_F^2`` and the row count of the rows in ``blocks``
    (2-D arrays or single rows), which must all have ``d`` columns.

    A stream whose ``|A|_F^2`` overflows float64 breaks the sketch's ingest
    rule and raises its ``ValueError``; every entry of ``A^T A`` is at most
    ``|A|_F^2``, so a stream that passes never overflows the accumulator.
    """
    import numpy as np

    from .linalg import as_matrix, frob_sq

    gram = np.zeros((d, d))
    fa = 0.0
    n = 0
    for block in blocks:
        arr = np.asarray(block, dtype=np.float64)
        if arr.size == 0 and arr.shape[-1] == 0:
            # an empty stream without a width (``[]``, an empty CSV) takes the
            # sketch's; an empty stream of another width is a mismatch
            continue
        arr = as_matrix(arr)
        if arr.shape[1] != d:
            raise ValueError(f"matrix has {arr.shape[1]} columns, sketch expects {d}")
        with np.errstate(over="ignore"):
            mass = frob_sq(arr)
        if not math.isfinite(fa + mass):
            raise ValueError("row's squared norm overflows the running |A|_F^2")
        gram += arr.T @ arr
        fa += mass
        n += arr.shape[0]
    return gram, fa, n


def error_report(a, sketch: FdSketch) -> ErrorReport:
    """Evaluate every sketch guarantee against the stream ``a``.

    ``a`` is the stream as one matrix, or an iterator over it in row blocks
    (2-D arrays or single rows, as ``io.RowReader.blocks`` yields them). It
    must hold exactly the rows that were streamed, in any order for the
    directional bounds, in stream order if the mass identity is to be exact.
    The sketch is flushed on a copy, so the caller's object is not mutated.

    One pass accumulates ``G = A^T A`` (d x d) and ``|A|_F^2`` block by
    block; no more than one block of A is held here at a time. Every quantity
    is a function of the two, with ``w`` the eigenvalues of G and W an
    orthonormal basis of the row space of Q_k (``linalg.rowspace_basis``, the
    ``PINV_REL_CUTOFF`` convention):

        |A - A_k|_F^2             = |A|_F^2 - (sum of the top k of w)
        |A - proj_{Q_k}(A)|_F^2   = |A|_F^2 - tr(W^T G W)
        max/min of |Ax|^2 - |Qx|^2 = extreme eigenvalues of G - Q^T Q

    Both residuals are clamped at 0. Each is |A|_F^2 minus a sum of
    eigenvalues or Rayleigh quotients of G, so its absolute error is that of
    the d x d eigensolve: a backward-stable symmetric eigensolver returns the
    eigenvalues of G + E with ``|E|_2 = O(d * 2^-52 * |G|_2)``, and
    ``|G|_2 <= |A|_F^2``, so the error grows like ``d * 2^-52 * |A|_F^2``
    (summing the rows into G and |A|_F^2 adds the rounding any route that
    sums them has). A residual below
    ``tiny = max(1e-12, d * 2^-52) * |A|_F^2`` is therefore
    indistinguishable from 0, and when both are below it ``proj_err_ratio``
    is 1; when only the rank-k residual is 0 the ratio is infinite. For
    d <= 4503, ``d * 2^-52 < 1e-12`` and ``tiny`` is ``1e-12 * |A|_F^2``.

    Every tolerance is also at least ``floor = (n + m) * d * 2^-1074`` for n
    stream rows and m buffer rows, because relative tolerances fail in gradual
    underflow. A float result above 2^-1022 errs by at most 2^-53 of itself,
    but one below it is subnormal: subnormals are 2^-1074 apart, so it errs
    by up to 2^-1075 however small it is. |A|_F^2 is a sum of n * d squares
    and |Q|_F^2 one of m * d, so the 2 (n + m) d products and additions that
    form them move the two, and each bound that compares them, by up to
    ``floor`` together when they underflow; the sketch's own factorizations
    and the d x d eigensolves contribute errors of that order per entry. Two
    rows ``[4.7e-162]`` show it: |A|_F^2 = 5e-323 and |Q|_F^2 = 4.4e-323
    differ by one step, while ``1e-8 * |A|_F^2`` rounds to 0. While
    (n + m) d < 2^60 (8 EiB of float64 entries), ``floor < 2^-1014 < 1e-305``,
    so the floor raises no tolerance of a stream with |A|_F^2 > 1e-292.
    """
    import numpy as np

    from .linalg import frob_sq, rowspace_basis

    d = sketch.d
    gram, fa, n = _stream_gram(a if isinstance(a, Iterator) else (a,), d)

    snap = sketch.copy()
    snap.flush()
    q = snap.query()
    qk = snap.query_topk()
    p = snap.params

    fq = frob_sq(q)
    fqk = frob_sq(qk)
    delta = snap.delta_sum
    floor = (n + p.buffer_rows) * d * _SUBNORMAL_STEP
    slack = max(INEQ_REL_TOL * fa, floor)
    identity_tol = max(IDENTITY_REL_TOL * fa, floor)
    tiny = max(max(1e-12, d * 2.0**-52) * fa, floor)

    w = np.linalg.eigvalsh(gram)
    rank_k_mass_sq = float(np.maximum(w[::-1][: p.k], 0.0).sum())
    rank_k_residual_sq = max(fa - rank_k_mass_sq, 0.0)
    basis = rowspace_basis(qk)
    proj_residual_sq = max(fa - float(((gram @ basis) * basis).sum()), 0.0)
    gram -= q.T @ q
    # symmetrize away accumulation noise before the eigensolve
    gram += gram.T
    gram *= 0.5
    w = np.linalg.eigvalsh(gram)
    max_gap, min_gap = float(w[-1]), float(w[0])

    if proj_residual_sq <= tiny and rank_k_residual_sq <= tiny:
        ratio = 1.0
    elif rank_k_residual_sq == 0.0:
        ratio = math.inf
    else:
        ratio = proj_residual_sq / rank_k_residual_sq

    identity_residual = abs(fa - fq - p.ell * delta)
    bracket = snap.mass_bracket_rows
    if bracket == p.ell:
        mass_window_ok = identity_residual <= identity_tol
    else:
        lost = fa - fq
        mass_window_ok = (
            p.ell * delta <= lost + identity_tol
            and lost <= bracket * delta + identity_tol
        )

    applicable = rank_k_residual_sq <= rank_k_mass_sq

    return ErrorReport(
        k=p.k,
        eps=p.eps,
        ell=p.ell,
        buffer_rows=p.buffer_rows,
        mass_bracket_rows=bracket,
        rows_seen=snap.rows_seen,
        frob_a_sq=fa,
        frob_q_sq=fq,
        frob_qk_sq=fqk,
        delta_sum=delta,
        max_dir_gap=max_gap,
        min_dir_gap=min_gap,
        frob_identity_residual=identity_residual,
        rank_k_residual_sq=rank_k_residual_sq,
        rank_k_mass_sq=rank_k_mass_sq,
        proj_residual_sq=proj_residual_sq,
        proj_err_ratio=ratio,
        qk_norm_bounds=((1.0 - p.eps) * rank_k_mass_sq, rank_k_mass_sq),
        gap_upper_ok=max_gap <= fa / p.ell + slack,
        gap_lower_ok=min_gap >= -slack,
        mass_window_ok=mass_window_ok,
        shrink_budget_ok=delta <= rank_k_residual_sq / (p.ell - p.k) + slack,
        proj_ratio_ok=proj_residual_sq <= (1.0 + p.eps) * rank_k_residual_sq + slack,
        sandwich_low_ok=rank_k_residual_sq <= fa - fqk + slack,
        sandwich_high_ok=fa - fqk <= (1.0 + p.eps) * (fa - rank_k_mass_sq) + slack,
        topk_window_applicable=applicable,
        topk_low_ok=(not applicable) or (1.0 - p.eps) * rank_k_mass_sq <= fqk + slack,
        topk_high_ok=fqk <= rank_k_mass_sq + slack,
    )
