"""Streaming deterministic matrix sketch with spectral shrinkage.

The sketch maintains a small buffer Q of ``m`` rows while consuming an
arbitrarily long stream of d-dimensional rows. Whenever the buffer runs out
of zero rows it is factorized, every singular value is shrunk by the
ell-th largest squared singular value delta, and the buffer is rewritten as
``diag(s') @ V.T`` with at least ``m - ell + 1`` rows exactly zero again:

    delta   = s_ell ** 2
    s'_j    = sqrt(max(s_j ** 2 - delta, 0))
    Q      <- diag(s') @ V.T

The factorization is the eigendecomposition of the small m x m Gram matrix
``B B^T`` of the buffer's nonzero rows B, which gives s^2 and, through
``U^T B``, the rows of ``diag(s) V^T`` without an SVD of the m x d buffer.
When that route cannot resolve the spectrum (a rank-deficient or badly
conditioned buffer, or one at least as tall as it is wide) the buffer goes
through LAPACK's thin SVD instead; ``FdSketch.compress`` states the exact
cutoff. The rows a compression writes are mutually orthogonal, so their Gram
matrix is the diagonal ``max(s^2 - delta, 0)``: the sketch carries it, and
the next compression computes only the Gram rows of the rows stored since,
O(ell d) per row at batch factor 1 instead of O(ell^2 d). It rebuilds
``B B^T`` in full after a load or a fallback and at least every
``min(ell, 2^10)`` compressions, which keeps the carried matrix's rounding
drift a factor 4 inside the fallback cutoff (``compress`` gives the budget).

Running out of zero rows is the one compression trigger, at every batch
factor. With ``batch_factor == 1`` (``m == ell``) a shrink leaves at most
``ell - 1`` nonzero rows, so once the buffer has first filled every nonzero
row costs one factorization: the classical per-row variant. Larger batch
factors trade memory for fewer factorizations without changing any guarantee.

Rows enter through one step for ``append``, ``extend`` and the CLI: a block
is validated (width, finite entries, row norms) in one vectorized pass and
its nonzero rows are copied into free slots a slice at a time, so the
result depends only on the row sequence, not on how it was cut into blocks.

Writing ``Delta`` for the running sum of shrink values, the sketch promises,
deterministically, for every direction x with |x| = 1:

    0 <= |A x|^2 - |Q x|^2 <= Delta <= |A|_F^2 / ell

and, with ``ell = ceil(k + k/eps)``, the relative-error family

    Delta <= |A - A_k|_F^2 / (ell - k)
    |A - proj_{Q_k}(A)|_F^2 <= (1 + eps) |A - A_k|_F^2
    |A|_F^2 - |A_k|_F^2 <= |A|_F^2 - |Q_k|_F^2 <= (1+eps)(|A|_F^2 - |A_k|_F^2)

where A_k is the best rank-k approximation of the stream so far and Q_k the
top k rows of the sketch. ``error_report`` evaluates all of these from the
stream's Gram matrix A^T A and |A|_F^2, accumulated in one pass over row
blocks, so a stream read from a file is never held in memory whole.

Sketches over the same row order are bit-identical between runs; two
sketches with equal (k, eps, ell, d) can be merged by re-inserting one
sketch's rows into the other, at the cost of additional shrinkage.
"""
from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .linalg import as_matrix, frob_sq, rowspace_basis, svd_thin

# not called here: perfbench/spans.py traces these names on this module
from .linalg import best_rank_k, directional_norm_gap, project_rowspace  # noqa: F401

# Pass tolerances for the bound checks: identities get 1e-8 relative, one-sided
# inequalities get an absolute slack of 1e-9 * |A|_F^2.
IDENTITY_REL_TOL = 1e-8
INEQ_REL_TOL = 1e-9

# Guard for ceil(k + k/eps) style expressions: floating noise in the division
# must not bump the ceiling to the next integer.
_CEIL_GUARD = 1.0 - 1e-12


def _ceil_guarded(v: float) -> int:
    return int(math.ceil(v * _CEIL_GUARD))


def sketch_rows_for(k: int, eps: float) -> int:
    """Number of sketch rows needed for rank target k at accuracy eps."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not eps > 0:
        raise ValueError("eps must be > 0")
    # ell > k is structural (the error bounds divide by ell - k)
    return max(_ceil_guarded(k + k / eps), k + 1)


@dataclass(frozen=True)
class FdParams:
    """Frozen sketch geometry: accuracy knobs plus derived buffer sizes."""

    k: int
    eps: float
    d: int
    batch_factor: float
    ell: int
    buffer_rows: int

    @classmethod
    def create(cls, k: int, eps: float, d: int, batch_factor: float = 1.0) -> "FdParams":
        ell = sketch_rows_for(k, eps)
        if d < 1:
            raise ValueError("d must be >= 1")
        if not batch_factor >= 1.0:
            raise ValueError("batch_factor must be >= 1")
        m = max(_ceil_guarded(batch_factor * ell), ell)
        if ell > d:
            warnings.warn(
                f"sketch rows ell={ell} exceed dimension d={d}; the sketch will "
                "hold the stream exactly and shrinkage never happens",
                stacklevel=3,
            )
        return cls(k=int(k), eps=float(eps), d=int(d), batch_factor=float(batch_factor),
                   ell=ell, buffer_rows=m)


class _KahanSum:
    """Compensated accumulator (Neumaier variant)."""

    __slots__ = ("value", "_comp")

    def __init__(self, value: float = 0.0):
        self.value = float(value)
        self._comp = 0.0

    def add(self, x: float) -> None:
        t = self.value + x
        if abs(self.value) >= abs(x):
            self._comp += (self.value - t) + x
        else:
            self._comp += (x - t) + self.value
        self.value = t

    def total(self) -> float:
        return self.value + self._comp


CompressHook = Callable[[np.ndarray, np.ndarray, float], None]


class FdSketch:
    """Streaming sketch over rows of fixed dimension ``d``.

    Parameters
    ----------
    k : rank target the error guarantees are stated against.
    eps : relative accuracy; the sketch keeps ``ceil(k + k/eps)`` rows.
    d : row dimension.
    batch_factor : buffer over-allocation factor (>= 1). 1 gives the per-row
        variant: once ``ell`` nonzero rows have arrived, every nonzero row
        triggers one factorization.
    compress_hook : optional callable ``(buffer_before, buffer_after, delta)``
        invoked after every compression; used by instrumented runs to check
        the per-step shrink bound.

    Every nonzero row is stored in the next free buffer slot, and the buffer
    is compressed as soon as it has no zero row left. Rows stored since the
    last compression are pending until ``flush`` or ``query``.
    """

    def __init__(self, k: int, eps: float, d: int, batch_factor: float = 1.0,
                 compress_hook: Optional[CompressHook] = None):
        params = FdParams.create(k, eps, d, batch_factor)
        self._set_state(params, np.zeros((params.buffer_rows, params.d)), 0, 0.0, 0.0,
                        compress_hook)

    @classmethod
    def _from_state(cls, params: FdParams, buf: np.ndarray, rows_seen: int,
                    input_frob_sq: float, delta_sum: float) -> "FdSketch":
        """Rebuild a sketch from a validated state record, without a hook.

        ``buf`` holds its nonzero rows first and at least one zero row; all
        of them count as pending, so the first query compresses them.
        """
        sk = cls.__new__(cls)
        sk._set_state(params, buf, rows_seen, input_frob_sq, delta_sum)
        return sk

    def _set_state(self, params: FdParams, buf: np.ndarray, rows_seen: int,
                   input_frob_sq: float, delta_sum: float,
                   compress_hook: Optional[CompressHook] = None) -> None:
        self.params = params
        self._buf = buf
        self._nonzero = int(np.count_nonzero(buf.any(axis=1)))
        self._pending = self._nonzero
        self._rows_seen = int(rows_seen)
        self._frob_acc = _KahanSum(input_frob_sq)
        self._delta_acc = _KahanSum(delta_sum)
        # widest buffer that ever contributed mass to this sketch; grows on
        # merge and controls how tight the lost-mass accounting can be
        self._bracket_rows = params.buffer_rows
        self.compress_hook = compress_hook
        # Gram diagonal of the rows the last compression wrote, and the
        # compressions since the Gram matrix was last built in full; None
        # makes the next compression rebuild it (see ``compress``)
        self._carried: Optional[np.ndarray] = None
        self._gram_age = 0

    # -- bookkeeping views ------------------------------------------------

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def eps(self) -> float:
        return self.params.eps

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def ell(self) -> int:
        return self.params.ell

    @property
    def buffer_rows(self) -> int:
        return self.params.buffer_rows

    @property
    def rows_seen(self) -> int:
        return self._rows_seen

    @property
    def mass_bracket_rows(self) -> int:
        """Widest buffer that ever fed this sketch.

        Equal to ``buffer_rows`` for a pure stream. Merging in a sketch built
        with a larger buffer widens it, and with it the guaranteed window for
        the lost mass: ``ell * delta_sum <= |A|_F^2 - |Q|_F^2 <=
        mass_bracket_rows * delta_sum``. When this equals ``ell`` the window
        collapses to the exact identity.
        """
        return self._bracket_rows

    @property
    def input_frob_sq(self) -> float:
        """Running squared Frobenius norm of everything appended."""
        return self._frob_acc.total()

    @property
    def delta_sum(self) -> float:
        """Total shrinkage applied so far."""
        return self._delta_acc.total()

    # -- core operations --------------------------------------------------

    def append(self, row) -> None:
        """Consume one stream row: a one-row block of ``extend``.

        A row is rejected with ``ValueError`` before any counter moves when
        it has the wrong length, a non-finite entry, or a squared norm that
        overflows float64 on its own or added to ``input_frob_sq``; the
        sketch is then exactly as before the call. Rows are never rescaled.
        """
        self._ingest(np.asarray(row, dtype=np.float64).reshape(1, -1))

    def extend(self, rows) -> None:
        """Consume stream rows in order.

        A 2-D numeric array is ingested as one block: validated at once,
        counted row by row, and copied into free buffer slots a slice at a
        time. Any other iterable goes through ``append`` row by row. Both
        end in the same step, so the sketch is bit-identical to appending
        the rows one at a time, however they are cut into blocks. A bad row
        at index j raises ``append``'s ``ValueError`` after rows ``[:j]``
        have been consumed, exactly as appending them would have.
        """
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "biuf":
            self._ingest(rows)
        else:
            for row in rows:
                self.append(row)

    def _ingest(self, block: np.ndarray) -> None:
        """The one ingest step: validate, count and store a block of rows.

        The width is checked and the squared row norms computed for the
        whole block at once; a non-finite entry makes its row's norm
        non-finite, so the per-row overflow check of the compensated
        ``|A|_F^2`` add, the only per-row work left, also finds it. A zero
        row is counted and not stored: claiming a slot would only break the
        "leading rows are nonzero" layout the serializer relies on.
        """
        n, d = block.shape
        if n == 0:
            return
        if d != self.params.d:
            raise ValueError(f"row has {d} entries, expected {self.params.d}")
        block = np.ascontiguousarray(block, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            # one dot product per row, bit for bit ``row @ row``
            norms = np.matmul(block[:, None, :], block[:, :, None]).reshape(n)
        frob = self._frob_acc
        start, stored, error = 0, 0, None
        free = self.params.buffer_rows - self._nonzero
        for i, norm_sq in enumerate(norms.tolist()):
            if not math.isfinite(frob.value + norm_sq):
                if np.isfinite(block[i]).all():
                    error = "row's squared norm overflows the running |A|_F^2"
                else:
                    error = "row contains non-finite entries"
                n = i
                break
            frob.add(norm_sq)
            if norm_sq != 0.0:
                stored += 1
                if stored == free:
                    # the buffer fills at row i: store up to it and compress
                    # with the counters exactly as appending would leave them
                    self._take(block, norms, start, i + 1, stored)
                    start, stored = i + 1, 0
                    free = self.params.buffer_rows - self._nonzero
        self._take(block, norms, start, n, stored)
        if error is not None:
            raise ValueError(error)

    def _take(self, block: np.ndarray, norms: np.ndarray, start: int, stop: int,
              stored: int) -> None:
        """Count rows ``start:stop`` of a validated block as seen and store
        the ``stored`` nonzero ones among them."""
        self._rows_seen += stop - start
        if stored:
            rows = block[start:stop]
            self._store(rows if stored == stop - start else rows[norms[start:stop] != 0.0])

    def _store(self, rows: np.ndarray) -> None:
        """Copy nonzero rows into the free slots a slice at a time,
        compressing each time no zero row is left."""
        m = self.params.buffer_rows
        while rows.shape[0]:
            at = self._nonzero
            take = min(m - at, rows.shape[0])
            self._buf[at : at + take] = rows[:take]
            self._nonzero += take
            self._pending += take
            if self._nonzero == m:
                self.compress()
            rows = rows[take:]

    def compress(self) -> float:
        """Factorize the buffer, shrink the spectrum, rewrite in rotated form.

        Returns the shrink value applied. Zero rows cost nothing; until the
        buffer reaches full rank the shrink value stays 0 and the rewrite is
        a pure rotation.

        Kernel. With ``B`` the m nonzero rows, ``r = min(ell, m)`` and
        ``w, U`` the eigenpairs of the m x m Gram matrix ``G = B B^T``
        (descending), the shrink is ``delta = w[ell-1]`` (0 if m < ell) and the
        new rows are ``diag(keep) U[:, :r]^T B`` with
        ``keep = sqrt(max(w - delta, 0) / w)``. They are written in place, and
        only the slots that held rows are cleared. No left factor of an SVD
        is ever formed.

        Carried Gram matrix. The rows written are mutually orthogonal, with
        Gram matrix ``diag(max(w[:r] - delta, 0))``; the sketch keeps that
        diagonal for the rows still nonzero. The next compression then
        computes only the rows of G that belong to the p rows stored since,
        ``B[p:] B^T``, at O(p m d) instead of O(m^2 d): O(ell d) per row at
        ``batch_factor == 1``. The update is made at compression time, so the
        result depends only on the row sequence, not on how it was cut into
        ``append``/``extend`` calls.

        Rebuild rule and drift budget. The carried diagonal is exact only in
        exact arithmetic: each compression adds about ``m * 2^-52 * w[0]`` of
        rounding to what it claims for the rows it wrote (the eigensolver's
        backward error, and the rounding of the rows themselves), and a later
        compression passes that on undamped, because ``|diag(keep) U^T| <= 1``.
        G is therefore rebuilt as ``B B^T`` on the first compression after
        construction, ``_from_state`` (a load) or a fallback, and at least
        every ``min(ell, 2^10)`` compressions. After at most 2^10 steps the
        drift is at most ``2^10 * m * 2^-52 * w[0] = m * 2^-42 * w[0]``, a
        factor 4 inside the fallback cutoff below; and rebuilding every
        ``ell`` compressions costs O(m^2 d / ell) = O(ell d) per compression
        at ``batch_factor == 1``. ``copy()`` keeps the carried diagonal, so a
        copy compresses bit for bit as the original would.

        Soundness. The new buffer is ``W B`` with ``W = diag(keep) U^T`` and
        ``0 <= keep <= 1``, so ``B^T B - B'^T B' = B^T (I - W^T W) B`` is PSD by
        construction, whatever G the eigenpairs came from: ``|Ax|^2 >= |Qx|^2``
        does not rest on eigenvalue accuracy or on the carried diagonal. The
        upper side ``<= delta`` holds up to the absolute error of ``w``, the
        eigensolver's ``m * 2^-52 * w[0]`` plus the drift above: every kept
        ``w[j]`` is at least delta, so dividing by it never amplifies that
        error.

        Fallback. The Gram route runs only when ``0 < m < d`` and
        ``w[r-1] > m * 2^-40 * w[0]``, i.e. every eigenvalue it divides by
        clears eigh's error by a factor 2^12. Otherwise (rank-deficient or
        ill-conditioned buffers, buffers at least as tall as wide) the whole
        buffer goes through LAPACK's thin SVD, whose small singular values
        are accurate to about ``2^-52 * s_1``, where the Gram route's are
        accurate only to about ``sqrt(m * 2^-52) * s_1`` because squaring B
        squares its condition number. A rank-deficient stream then shrinks
        by round-off squared, not by round-off.
        """
        before = self._buf.copy() if self.compress_hook is not None else None
        held = self._nonzero
        shrunk = self._gram_shrink()
        if shrunk is not None:
            delta, scale, rotated, new_sq = shrunk
        else:
            f = svd_thin(self._buf)
            # square once and reuse: taking delta from the same array
            # guarantees the cut entry shrinks to exactly 0.0, which the slot
            # bookkeeping relies on (a separate square can differ by one ulp)
            sq = f.s * f.s
            ell = self.params.ell
            delta = float(sq[ell - 1]) if sq.size >= ell else 0.0
            scale = np.sqrt(np.maximum(sq - delta, 0.0))
            rotated, new_sq = f.v.T, None
        written = scale.size
        np.multiply(scale[:, None], rotated, out=self._buf[:written])
        self._buf[written:held] = 0.0
        # each new row is its scale times a nonzero row, and zero scales come
        # last, so the nonzero rows stay first
        self._nonzero = int(np.count_nonzero(scale))
        self._carried = None if new_sq is None else new_sq[: self._nonzero]
        self._pending = 0
        self._delta_acc.add(delta)
        if self.compress_hook is not None:
            self.compress_hook(before, self._buf.copy(), delta)
        return delta

    def _buffer_gram(self, b: np.ndarray) -> np.ndarray:
        """Lower triangle of ``b b^T``, from the carried diagonal where the
        rebuild rule in ``compress`` allows it."""
        p = 0 if self._carried is None else self._carried.size
        if p == 0 or self._gram_age >= min(self.params.ell, 2**10):
            self._gram_age = 1
            return b @ b.T
        self._gram_age += 1
        m = b.shape[0]
        gram = np.zeros((m, m))
        gram.flat[: p * (m + 1) : m + 1] = self._carried
        gram[p:] = b[p:] @ b.T
        return gram

    def _gram_shrink(self) -> Optional[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """``(delta, keep, U^T B, max(w - delta, 0))`` over the kept
        directions by the Gram route, or None to fall back."""
        m = self._nonzero
        if not 0 < m < self.params.d:
            return None
        b = self._buf[:m]
        ell = self.params.ell
        # eigh reads the lower triangle only
        w, u = np.linalg.eigh(self._buffer_gram(b), UPLO="L")
        w, u = w[::-1], u[:, ::-1]
        r = min(ell, m)
        if not w[r - 1] > m * 2.0**-40 * w[0]:
            return None
        # delta comes from the same array w, so entry ell-1 shrinks to 0.0
        delta = float(w[ell - 1]) if m >= ell else 0.0
        new_sq = np.maximum(w[:r] - delta, 0.0)
        return delta, np.sqrt(new_sq / w[:r]), u[:, :r].T @ b, new_sq

    def flush(self) -> None:
        """Compress any rows appended since the last compression."""
        if self._pending:
            self.compress()

    def query(self) -> np.ndarray:
        """Current ell-row sketch, flushing buffered rows first."""
        self.flush()
        return self._buf[: self.params.ell].copy()

    def query_topk(self) -> np.ndarray:
        """Top-k rows of the flushed sketch (rows sorted by singular value)."""
        self.flush()
        return self._buf[: self.params.k].copy()

    def copy(self) -> "FdSketch":
        out = copy.copy(self)
        out._buf = self._buf.copy()
        # copied with their compensation terms
        out._frob_acc = copy.copy(self._frob_acc)
        out._delta_acc = copy.copy(self._delta_acc)
        return out

    def merge(self, other: "FdSketch") -> "FdSketch":
        """Combine two sketches of the same geometry into a new one.

        The other sketch is flushed (on a copy) and its nonzero rows are
        re-inserted here, compressing as they fill the buffer; then its row
        count, input mass and shrink total are added once. Both inputs are
        left untouched. A combined ``input_frob_sq`` that overflows float64
        is rejected with ``ValueError`` before any work is done.
        """
        mine, theirs = self.params, other.params
        if (mine.k, mine.eps, mine.ell, mine.d) != (theirs.k, theirs.eps, theirs.ell, theirs.d):
            raise ValueError(
                "cannot merge sketches with different (k, eps, ell, d): "
                f"{(mine.k, mine.eps, mine.ell, mine.d)} vs "
                f"{(theirs.k, theirs.eps, theirs.ell, theirs.d)}"
            )
        if not math.isfinite(self._frob_acc.value + other.input_frob_sq):
            raise ValueError("merged input_frob_sq overflows float64")
        out = self.copy()
        donor = other.copy()
        donor.flush()
        out._store(donor._buf[: donor._nonzero])
        out._rows_seen += donor.rows_seen
        out._frob_acc.add(donor.input_frob_sq)
        out._delta_acc.add(donor.delta_sum)
        # lost-mass accounting inherits the looser of the two windows
        out._bracket_rows = max(self._bracket_rows, other._bracket_rows)
        return out


@dataclass(frozen=True)
class ErrorReport:
    """Every guarantee of one sketch evaluated against its stream A.

    Raw quantities are kept alongside the pass/fail booleans so callers can
    renormalize or log them. ``qk_norm_bounds`` is the admissible window
    ``((1-eps)|A_k|^2, |A_k|^2)`` for the top-k sketch mass; the window lower
    bound is only claimed when ``topk_window_applicable`` (the tail of A is
    no heavier than its top-k part).
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


def _stream_gram(blocks: Iterable, d: int) -> tuple[np.ndarray, float]:
    """``A^T A`` and ``|A|_F^2`` of the rows in ``blocks`` (2-D arrays or
    single rows), which must all have ``d`` columns."""
    gram = np.zeros((d, d))
    fa = 0.0
    for block in blocks:
        arr = np.asarray(block, dtype=np.float64)
        if arr.size == 0 and arr.shape[-1] == 0:
            # an empty stream without a width (``[]``, an empty CSV) takes the
            # sketch's; an empty stream of another width is a mismatch
            continue
        arr = as_matrix(arr)
        if arr.shape[1] != d:
            raise ValueError(f"matrix has {arr.shape[1]} columns, sketch expects {d}")
        gram += arr.T @ arr
        fa += frob_sq(arr)
    return gram, fa


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
    """
    d = sketch.d
    gram, fa = _stream_gram(a if isinstance(a, Iterator) else (a,), d)

    snap = sketch.copy()
    snap.flush()
    q = snap.query()
    qk = snap.query_topk()
    p = snap.params

    fq = frob_sq(q)
    fqk = frob_sq(qk)
    delta = snap.delta_sum
    slack = INEQ_REL_TOL * fa
    tiny = max(1e-12, d * 2.0**-52) * fa

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
        mass_window_ok = identity_residual <= IDENTITY_REL_TOL * fa
    else:
        lost = fa - fq
        mass_window_ok = (
            p.ell * delta <= lost + IDENTITY_REL_TOL * fa
            and lost <= bracket * delta + IDENTITY_REL_TOL * fa
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
