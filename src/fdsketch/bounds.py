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


def _lost_mass_outside(lost: float, delta: float, ell: int, m: int) -> float:
    """How far the lost mass ``|A|_F^2 - |Q|_F^2`` lies outside the window
    ``[ell, m] * Delta`` of a sketch with m buffer rows and shrink total
    Delta: 0.0 inside, and at ``m == ell`` the identity's residual."""
    return max(ell * delta - lost, lost - m * delta, 0.0)


def _chunks(arr: np.ndarray) -> Iterator[np.ndarray]:
    """``arr`` in fixed chunks of ``io.block_rows_for(d)`` rows, the blocks
    ``io.RowReader`` reads, so no temporary is larger than one block and a
    block as the CLI reads it is one chunk."""
    from .io import block_rows_for

    step = block_rows_for(arr.shape[1])
    return (arr[i:i + step] for i in range(0, arr.shape[0], step))


def _frob_sq_rows(arr: np.ndarray) -> float:
    """``|arr|_F^2`` summed over ``_chunks(arr)``."""
    from .linalg import frob_sq

    return sum(map(frob_sq, _chunks(arr)), 0.0)


def _stream_gram(
    blocks: Iterable, d: int, hold: int
) -> tuple[list[np.ndarray] | None, np.ndarray | None, float, int]:
    """The rows in ``blocks`` (real 2-D arrays or single 1-D rows; any other
    block raises ``ValueError``, as ``FdSketch.append`` rejects it), which
    must all have ``d`` columns, as ``(held, gram, |A|_F^2, n)``.

    While at most ``hold`` rows have arrived they are copied in order into one
    array that this function owns and grows in place, and ``held`` is a
    one-item list of it with ``gram`` None. A block is copied once and never
    changed, so an array argument is left as it was. When one more row
    arrives the array is folded into ``gram = A^T A`` in stream order, over
    ``_chunks`` (for the CLI, the very blocks it read), and dropped, and
    every later block is folded as it comes; ``held`` is then None.

    A stream whose ``|A|_F^2`` overflows float64 breaks the sketch's ingest
    rule and raises its ``ValueError``; every entry of ``A^T A`` is at most
    ``|A|_F^2``, so a stream that passes never overflows the accumulator.
    """
    import numpy as np

    from .linalg import as_matrix

    # a sketch wider than d (hold < 0) holds no rows
    rows, gram = (np.empty((0, d)), None) if hold >= 0 else (None, np.zeros((d, d)))
    fa = 0.0
    n = 0
    for block in blocks:
        arr = as_matrix(block)
        if arr.size == 0 and arr.shape[1] == 0:
            # an empty stream without a width (``[]``, an empty CSV) takes the
            # sketch's; an empty stream of another width is a mismatch
            continue
        if arr.shape[1] != d:
            raise ValueError(f"matrix has {arr.shape[1]} columns, sketch expects {d}")
        with np.errstate(over="ignore"):
            mass = _frob_sq_rows(arr)
        if not math.isfinite(fa + mass):
            raise ValueError("row's squared norm overflows the running |A|_F^2")
        fa += mass
        n += arr.shape[0]
        if rows is not None:
            if n <= hold:
                # no view of rows outlives a statement, so it may move
                rows.resize((n, d), refcheck=False)
                rows[n - arr.shape[0]:] = arr
                continue
            gram = np.zeros((d, d))
            for chunk in _chunks(rows):
                gram += chunk.T @ chunk
            rows = None
        gram += arr.T @ arr
    return (None if rows is None else [rows]), gram, fa, n


def _row_spectra(
    held: list[np.ndarray], q: np.ndarray, basis: np.ndarray, k: int
) -> tuple[float, float, float, float, float]:
    """``|A|_F^2``, the top-k mass of A, ``|A W|_F^2`` and the extreme
    eigenvalues of ``A^T A - Q^T Q``, for A the array in ``held`` (the rows
    ``_stream_gram`` owns) and W ``basis``, from one QR of ``[A; Q]^T``.

    The array is taken out of ``held``, Q is appended to it and
    ``linalg.qr_rows_inplace`` overwrites it with the QR. The array is then
    shrunk in place to the p x p block, p = n + ell, that holds R^T, and
    ``R J R^T`` is formed from it a panel of rows at a time. R12 is kept and
    R freed before the gaps' eigensolve; then ``R11 R11^T`` is rebuilt in
    place as the leading block of ``R J R^T`` plus ``R12 R12^T``. |A|_F^2 is
    summed over fixed chunks of rows. Beyond the rows this needs O(64 d) for
    the QR and two p x p arrays for the spectra (``R J R^T`` and the
    eigensolver's copy of it), plus R12 and O(64 p) per panel.

    With ``M = [A; Q]`` (n + ell <= d rows here) and ``J = diag(I_n, -I_ell)``,
    ``A^T A - Q^T Q = M^T J M``. If ``M^T = U R``, with U's columns
    orthonormal, that is ``U (R J R^T) U^T``, whose nonzero eigenvalues are
    those of the small ``R J R^T``; the rest are 0 when n + ell < d. The
    nonzero eigenvalues of ``A^T A`` are those of ``A A^T = R11^T R11``, R11
    the leading n x n block of R, and so those of ``R11 R11^T``.

    Subtracting ``R12 R12^T`` and adding it back rounds each entry of
    ``R11 R11^T`` by a further O(2^-52) of its size and of ``|R12|_F^2``.
    The columns of R have the norms of the rows of M, so
    ``|R12|_F^2 <= |Q|_F^2 <= |A|_F^2``: the rank-k mass gains an error of
    order ``2^-52 |Q|_F^2``, inside the ``d 2^-52 (|A|_F^2 + |Q|_F^2)`` that
    ``error_report`` allows the route.
    """
    import numpy as np

    from .linalg import QR_PANEL_ROWS, frob_sq, qr_rows_inplace

    m = held.pop()
    n, d = m.shape
    p = n + q.shape[0]
    fa = _frob_sq_rows(m)
    proj_mass_sq = frob_sq(m @ basis)
    m.resize((p, d), refcheck=False)
    m[n:] = q
    qr_rows_inplace(m)
    # m[:, :p] holds R^T on and below its diagonal and reflectors above it.
    # Move it row by row to the front of m's memory, where no row lands past
    # the start of a row not yet read (p <= d), zero the reflectors, and
    # shrink m to that p x p block: m is then L = R^T, lower triangular.
    flat = m.reshape(-1)
    for i in range(p):
        flat[i * p:i * p + i + 1] = flat[i * d:i * d + i + 1]
        flat[i * p + i + 1:(i + 1) * p] = 0.0
    del flat
    m.resize((p, p), refcheck=False)
    # R J R^T = R[:, :n] R[:, :n]^T - R[:, n:] R[:, n:]^T, formed a panel of
    # rows at a time; R[i:, :n] is 0 past row n, so a panel's first term
    # needs only the rows i:n of L[:, :n]
    r12 = m[n:, :n].copy()
    gap = np.empty((p, p))
    for i in range(0, p, QR_PANEL_ROWS):
        rows = gap[i:i + QR_PANEL_ROWS]
        np.matmul(m[n:, i:i + QR_PANEL_ROWS].T, m[n:], out=rows)
        np.negative(rows, out=rows)
        rows[:, :n] += m[i:n, i:i + QR_PANEL_ROWS].T @ m[i:n, :n]
    del m
    w = np.linalg.eigvalsh(gap)
    max_gap, min_gap = float(w[-1]), float(w[0])
    # the leading block is R11 R11^T - R12 R12^T; r12 holds R12^T
    top = gap[:n, :n]
    top += r12.T @ r12
    w = np.linalg.eigvalsh(top)
    rank_k_mass_sq = float(np.maximum(w[::-1][:k], 0.0).sum())
    if p < d:
        # the d - n - ell directions orthogonal to every row of M
        max_gap, min_gap = max(max_gap, 0.0), min(min_gap, 0.0)
    return fa, rank_k_mass_sq, proj_mass_sq, max_gap, min_gap


def error_report(a, sketch: FdSketch) -> ErrorReport:
    """Evaluate every sketch guarantee against the stream ``a``.

    ``a`` is the stream as one matrix, or an iterator over it in row blocks
    (2-D arrays or single rows, as ``io.RowReader.blocks`` yields them). It
    must hold exactly the rows that were streamed, in any order for the
    directional bounds, in stream order if the mass identity is to be exact.
    The sketch is flushed on a copy, so the caller's object is not mutated.

    One pass reads the stream, with ``G = A^T A`` (d x d) and W an
    orthonormal basis of the row space of Q_k (``linalg.rowspace_basis``, the
    ``PINV_REL_CUTOFF`` convention). Every quantity is a function of A:

        |A - A_k|_F^2             = |A|_F^2 - (sum of the top k eigenvalues of G)
        |A - proj_{Q_k}(A)|_F^2   = |A|_F^2 - |A W|_F^2
        max/min of |Ax|^2 - |Qx|^2 = extreme eigenvalues of G - Q^T Q

    Two routes compute them, chosen by the row count n alone:

    - Row route, n <= d - ell. The rows are copied as they arrive into one
      array that ``error_report`` owns and grows in place (an array argument
      is copied once and never changed). At the end Q is appended to it,
      making ``M = [A; Q]``, and one blocked Householder QR ``M^T = U R``
      overwrites it in place (``linalg.qr_rows_inplace``). M is shrunk in
      place to R, and both spectra come from (n + ell)-sized matrices: the
      gaps from ``R J R^T``, ``J = diag(I_n, -I_ell)``, with the eigenvalue
      0 joined when n + ell < d, and the top-k mass from ``R11 R11^T``,
      which has the eigenvalues of ``A A^T = R11^T R11`` (R11 the leading
      n x n block of R) and is rebuilt from ``R J R^T`` once R is freed
      (``_row_spectra``). |A|_F^2 is summed over fixed chunks of the held
      rows, so every cut of the stream into blocks gives the same report.
      Memory is one copy of the rows, plus O(64 d) for the QR and two
      (n + ell)^2 arrays for the spectra.
    - Gram route, from the first row past d - ell. The held rows are folded
      into G in stream order, in the fixed chunks their mass was summed
      over, each later block as it arrives, and the spectra are two d x d
      eigensolves, of G and of ``G - Q^T Q``. Memory is O(d^2) plus one block
      and its squares; every command reads blocks of ``io.block_rows_for(d)``
      rows, at most 128 and at most 1 MiB.

    Both residuals are clamped at 0. Each is |A|_F^2 minus a sum of
    eigenvalues or squared projections, so its absolute error is that of the
    factorization. On the Gram route a backward-stable symmetric eigensolver
    returns the eigenvalues of G + E with ``|E|_2 = O(d * 2^-52 * |G|_2)``,
    and ``|G|_2 <= |A|_F^2``, so the error grows like ``d * 2^-52 * |A|_F^2``
    (summing the rows into G and |A|_F^2 adds the rounding any route that
    sums them has). On the row route Householder QR is backward stable, and
    so is its blocked form, whose panels are LAPACK's and whose compact-WY
    updates apply the same reflectors as products of small matrices
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 19): R is the exact factor of M^T plus a perturbation of
    ``O(d * 2^-52 * |M|_F)``, so the spectra err by
    ``O(d * 2^-52 * (|A|_F^2 + |Q|_F^2))``, and ``|Q|_F^2 <= |A|_F^2``. Its
    perturbation is column by column, each row of M moved relative to its
    own norm, so R11 errs relative to |A|_F^2 alone, and the rank-k mass,
    rebuilt through ``R J R^T``, adds ``O(2^-52 |Q|_F^2)``;
    |A W|_F^2 is a product and sum of A's rows. The same
    ``d * 2^-52 * |A|_F^2`` order therefore bounds both residuals on both
    routes, and a residual below ``tiny = max(1e-12, d * 2^-52) * |A|_F^2``
    is indistinguishable from 0: when both are below it ``proj_err_ratio``
    is 1; when only the rank-k residual is 0 the ratio is infinite. For
    d <= 4503, ``d * 2^-52 < 1e-12`` and ``tiny`` is ``1e-12 * |A|_F^2``.
    The gaps, whose row-route error also sees |Q|_F^2, are checked against
    ``slack = 1e-9 * |A|_F^2``, which exceeds ``2 d * 2^-52 * |A|_F^2`` for
    d < 2.2e6.

    Every tolerance is also at least ``floor = (n + m) * d * 2^-1074`` for n
    stream rows and m buffer rows, because relative tolerances fail in gradual
    underflow. A float result above 2^-1022 errs by at most 2^-53 of itself,
    but one below it is subnormal: subnormals are 2^-1074 apart, so it errs
    by up to 2^-1075 however small it is. |A|_F^2 is a sum of n * d squares
    and |Q|_F^2 one of m * d, so the 2 (n + m) d products and additions that
    form them move the two, and each bound that compares them, by up to
    ``floor`` together when they underflow; the sketch's own factorizations
    and the final factorizations contribute errors of that order per entry. Two
    rows ``[4.7e-162]`` show it: |A|_F^2 = 5e-323 and |Q|_F^2 = 4.4e-323
    differ by one step, while ``1e-8 * |A|_F^2`` rounds to 0. While
    (n + m) d < 2^60 (8 EiB of float64 entries), ``floor < 2^-1014 < 1e-305``,
    so the floor raises no tolerance of a stream with |A|_F^2 > 1e-292.
    """
    import numpy as np

    from .linalg import frob_sq, rowspace_basis

    d = sketch.d
    # the snapshot's arrays are made before the stream is read, so none sits
    # above the held rows in the heap when they grow or are freed
    snap = sketch.copy()
    p = snap.params
    q = snap.query()
    qk = q[: p.k]
    basis = rowspace_basis(qk)

    held, gram, fa, n = _stream_gram(a if isinstance(a, Iterator) else (a,), d, d - p.ell)
    if gram is None:
        fa, rank_k_mass_sq, proj_mass_sq, max_gap, min_gap = _row_spectra(held, q, basis, p.k)
    else:
        w = np.linalg.eigvalsh(gram)
        rank_k_mass_sq = float(np.maximum(w[::-1][: p.k], 0.0).sum())
        proj_mass_sq = float(((gram @ basis) * basis).sum())
        gram -= q.T @ q
        # symmetrize away accumulation noise before the eigensolve
        gram += gram.T
        gram *= 0.5
        w = np.linalg.eigvalsh(gram)
        max_gap, min_gap = float(w[-1]), float(w[0])
    rank_k_residual_sq = max(fa - rank_k_mass_sq, 0.0)
    proj_residual_sq = max(fa - proj_mass_sq, 0.0)

    fq = frob_sq(q)
    fqk = frob_sq(qk)
    delta = snap.delta_sum
    floor = (n + p.buffer_rows) * d * _SUBNORMAL_STEP
    slack = max(INEQ_REL_TOL * fa, floor)
    identity_tol = max(IDENTITY_REL_TOL * fa, floor)
    tiny = max(max(1e-12, d * 2.0**-52) * fa, floor)

    if proj_residual_sq <= tiny and rank_k_residual_sq <= tiny:
        ratio = 1.0
    elif rank_k_residual_sq == 0.0:
        ratio = math.inf
    else:
        ratio = proj_residual_sq / rank_k_residual_sq

    identity_residual = abs(fa - fq - p.ell * delta)
    outside = _lost_mass_outside(fa - fq, delta, p.ell, p.buffer_rows)

    applicable = rank_k_residual_sq <= rank_k_mass_sq

    return ErrorReport(
        k=p.k,
        eps=p.eps,
        ell=p.ell,
        buffer_rows=p.buffer_rows,
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
        mass_window_ok=outside <= identity_tol,
        shrink_budget_ok=delta <= rank_k_residual_sq / (p.ell - p.k) + slack,
        proj_ratio_ok=proj_residual_sq <= (1.0 + p.eps) * rank_k_residual_sq + slack,
        sandwich_low_ok=rank_k_residual_sq <= fa - fqk + slack,
        sandwich_high_ok=fa - fqk <= (1.0 + p.eps) * (fa - rank_k_mass_sq) + slack,
        topk_window_applicable=applicable,
        topk_low_ok=(not applicable) or (1.0 - p.eps) * rank_k_mass_sq <= fqk + slack,
        topk_high_ok=fqk <= rank_k_mass_sq + slack,
    )
