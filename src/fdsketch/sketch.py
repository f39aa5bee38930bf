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
matrix is the diagonal ``max(s^2 - delta, 0)``. One rule uses it: a
compression that adds one row (every one at batch factor 1 once the buffer
has filled) while a deferral runs is a deferred step. It leaves the rotation
unapplied, the kept rows staying a small coefficient matrix times stored
rows, and borders the carried diagonal with the new row's Gram row, so it
costs O(m d + m^3) with the m x m eigensolve. Every other compression
multiplies those rows out and builds ``B B^T`` whole; with one new row it
starts a deferral, with several (batch factor above 1) it rotates the buffer
directly, O(ell m d). A deferral ends after ``min(ell, 2^10)`` compressions,
which keeps the carried diagonal's rounding drift a factor 4 inside the
fallback cutoff (``compress`` gives the budget) and makes a row at batch
factor 1 cost amortized O(ell d + m^3).

Running out of zero rows is the one compression trigger, at every batch
factor. With ``batch_factor == 1`` (``m == ell``) a shrink leaves at most
``ell - 1`` nonzero rows, so once the buffer has first filled every nonzero
row costs one factorization: the classical per-row variant. Larger batch
factors trade memory for fewer factorizations without changing any guarantee.

Rows enter through one step for ``append``, ``extend`` and the CLI: a block
is validated (width, finite entries, row norms) in one vectorized pass and
counted, and its nonzero rows go to ``FdSketch._store``, the only code that
writes new rows into free slots and the only one that starts a compression
when they run out. A loaded sketch's rows and a merge's re-inserted rows
enter the same way, so the result depends only on the row sequence, not on
how it was cut into blocks.

Writing ``Delta`` for the running sum of shrink values, the sketch promises,
deterministically, for every direction x with |x| = 1:

    0 <= |A x|^2 - |Q x|^2 <= Delta <= |A|_F^2 / ell

and, with ``ell = ceil(k + k/eps)``, the relative-error family

    Delta <= |A - A_k|_F^2 / (ell - k)
    |A - proj_{Q_k}(A)|_F^2 <= (1 + eps) |A - A_k|_F^2
    |A|_F^2 - |A_k|_F^2 <= |A|_F^2 - |Q_k|_F^2 <= (1+eps)(|A|_F^2 - |A_k|_F^2)

where A_k is the best rank-k approximation of the stream so far and Q_k the
top k rows of the sketch. ``error_report`` (from ``bounds``, bound here too)
evaluates all of these in one pass over row blocks: from the rows
themselves while they number at most d - ell, and from the stream's Gram
matrix A^T A and |A|_F^2 beyond, so a stream read from a file is held in
memory only while it is no larger than A^T A.

Sketches over the same row order are bit-identical between runs with the
same numpy and BLAS build and the same BLAS thread count; nothing is
promised across thread counts. The m x m eigensolve (LAPACK's blocked
reduction) and a deferred step's coefficient update call threaded BLAS, so
another thread count can change the last bits: ``fdsketch sketch`` of a
600 x 1000 ``default_rng(5)`` Gaussian stream at k 40, eps 0.5 (ell 120)
wrote different files under one and two OpenBLAS threads, from byte 71 at
batch factor 1 and from byte 55 at batch factor 2. Two sketches
with equal (k, eps, ell, d) can be merged by re-inserting the rows of the one
with the smaller buffer into the other, at the cost of additional shrinkage.
"""
from __future__ import annotations

import copy
import math
import warnings
from typing import Callable, NamedTuple, Optional

import numpy as np

# the audit and the size rule live where they load without numpy; bound here
# too, as the same objects, for callers and for perfbench/spans.py
from .bounds import (  # noqa: F401
    IDENTITY_REL_TOL,
    INEQ_REL_TOL,
    ErrorReport,
    _ceil_guarded,
    error_report,
    sketch_rows_for,
)
from .linalg import svd_thin

# not called here: perfbench/spans.py traces these names on this module
from .linalg import best_rank_k, directional_norm_gap, project_rowspace  # noqa: F401


def squared_row_norms(block: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a 2-D float64 array, bit for bit
    ``row @ row``; an overflow or a non-finite entry gives a non-finite
    norm, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(block[:, None, :], block[:, :, None]).reshape(block.shape[0])


class FdParams(NamedTuple):
    """Frozen sketch geometry: accuracy knobs plus derived buffer sizes, as an
    immutable named tuple. Build one with ``create``, which applies the
    parameter rule."""

    k: int
    eps: float
    d: int
    batch_factor: float
    ell: int
    buffer_rows: int

    @classmethod
    def create(cls, k: int, eps: float, d: int, batch_factor: float = 1.0) -> "FdParams":
        """The one parameter rule: ``sketch_rows_for``'s rule on (k, eps), d >= 1,
        and a finite batch factor >= 1 whose buffer size does not overflow.
        The stored ``batch_factor`` is the one the buffer has, ``buffer_rows /
        ell``, which is all a sketch file records."""
        ell = sketch_rows_for(k, eps)
        if d < 1:
            raise ValueError("d must be >= 1")
        if not (math.isfinite(batch_factor) and batch_factor >= 1.0):
            raise ValueError(f"batch_factor must be finite and >= 1, got {batch_factor!r}")
        rows = batch_factor * ell
        if not math.isfinite(rows):
            raise ValueError(f"batch_factor {batch_factor!r} overflows the buffer size")
        m = max(_ceil_guarded(rows), ell)
        if ell > d:
            warnings.warn(
                f"sketch rows ell={ell} exceed dimension d={d}; the sketch will "
                "hold the stream exactly and shrinkage never happens",
                stacklevel=3,
            )
        return cls(k=int(k), eps=float(eps), d=int(d), batch_factor=m / ell,
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


class _Counters:
    """The stream counters the guarantees are stated in: rows seen, and
    ``|A|_F^2`` and the shrink total Delta as compensated sums. The record
    owns how a merge combines them, so ``copy``, ``merge`` and the state
    constructors carry any field added here without naming it."""

    __slots__ = ("rows_seen", "input_frob_sq", "delta_sum")

    def __init__(self, rows_seen: int = 0, input_frob_sq: float = 0.0, delta_sum: float = 0.0):
        self.rows_seen = int(rows_seen)
        self.input_frob_sq = _KahanSum(input_frob_sq)
        self.delta_sum = _KahanSum(delta_sum)

    def absorb(self, other: "_Counters") -> None:
        """Add another stream's counters: counts as integers, sums compensated."""
        self.rows_seen += other.rows_seen
        self.input_frob_sq.add(other.input_frob_sq.total())
        self.delta_sum.add(other.delta_sum.total())


# cap on the consecutive failed Gram attempts that double the run of
# compressions sent straight to LAPACK: at most 2**(cap-1) - 1 = 31
_GRAM_FAILS_CAP = 6

# a deferral ends after min(ell, cap) compressions: the drift budget of
# ``FdSketch.compress``
_DEFERRAL_CAP = 2**10

CompressHook = Callable[[np.ndarray, np.ndarray, float], None]


def _shrink(sq: np.ndarray, ell: int) -> tuple[float, np.ndarray]:
    """``(delta, kept)`` for squared singular values ``sq``, descending:
    the shrink rule of ``FdSketch.compress``, on either route."""
    # delta comes from the same array, so the cut entry shrinks to exactly
    # 0.0, which the slot bookkeeping relies on (a separate square can differ
    # by one ulp); kept descends, so its zero entries come last
    delta = float(sq[ell - 1]) if sq.size >= ell else 0.0
    kept = np.maximum(sq[:ell] - delta, 0.0)
    return delta, kept[: np.count_nonzero(kept)]


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
        the per-step shrink bound. A compression inside an ``extend`` block
        runs after the block's whole valid prefix is counted, so a hook that
        reads ``rows_seen`` or ``input_frob_sq`` sees rows past the one that
        filled the buffer.

    Every nonzero row is stored in the next free buffer slot, and the buffer
    is compressed as soon as it has no zero row left. Rows stored since the
    last compression are pending until ``flush`` or ``query``.
    """

    def __init__(self, k: int, eps: float, d: int, batch_factor: float = 1.0,
                 compress_hook: Optional[CompressHook] = None):
        self._set_state(FdParams.create(k, eps, d, batch_factor), _Counters(), compress_hook)

    @classmethod
    def _from_state(cls, params: FdParams, rows: Optional[np.ndarray] = None,
                    counters: Optional[_Counters] = None) -> "FdSketch":
        """Rebuild a sketch from a validated state, without a hook; the
        counters default to a zero record, an empty stream's.

        ``rows``, nonzero and fewer than ``buffer_rows``, enter through
        ``_store`` like any others and stay pending, so the first query
        compresses them.
        """
        sk = cls.__new__(cls)
        sk._set_state(params, _Counters() if counters is None else counters)
        if rows is not None:
            sk._store(rows)
        return sk

    def _set_state(self, params: FdParams, counters: _Counters,
                   compress_hook: Optional[CompressHook] = None) -> None:
        """Install an empty buffer and the given counters and hook."""
        self.params = params
        self._rows = np.zeros((params.buffer_rows, params.d))
        self._nonzero = 0
        self._pending = 0
        self._counters = counters
        self.compress_hook = compress_hook
        # deferred rows: while ``_coef`` is set, the kept rows are
        # ``_coef @ _basis[:q]`` and ``_rows[:_coef.shape[0]]`` is stale; a
        # deferred step reads their Gram diagonal from ``_carried``, and
        # ``_gram_age`` counts the compressions since G was last built in
        # full (see ``compress``)
        self._carried: Optional[np.ndarray] = None
        self._gram_age = 0
        self._coef: Optional[np.ndarray] = None
        self._basis: Optional[np.ndarray] = None
        # consecutive failed Gram attempts, and compressions left to send
        # straight to LAPACK
        self._gram_fails = 0
        self._gram_skip = 0

    @property
    def _buf(self) -> np.ndarray:
        """The m x d buffer: the storage itself while its rows are
        multiplied out, else a computed copy. Reading never changes the
        sketch; assigning installs a buffer and ends the deferral."""
        return self._rows if self._coef is None else self._logical()

    @_buf.setter
    def _buf(self, buf: np.ndarray) -> None:
        self._rows = buf
        self._coef = None

    def _logical(self) -> np.ndarray:
        """A copy of the buffer with the deferred rows multiplied out."""
        buf = self._rows.copy()
        self._multiply_into(buf)
        return buf

    def _multiply_out(self) -> None:
        """End the deferral: store ``coef @ basis`` in the buffer."""
        self._multiply_into(self._rows)
        self._coef = None

    def _multiply_into(self, buf: np.ndarray) -> None:
        """Write ``coef @ basis`` over the first rows of ``buf``, which must
        not overlap the basis, so reads and ``compress`` get the same bits."""
        if self._coef is not None:
            nz, q = self._coef.shape
            np.matmul(self._coef, self._basis[:q], out=buf[:nz])

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
        return self._counters.rows_seen

    @property
    def input_frob_sq(self) -> float:
        """Running squared Frobenius norm of everything appended."""
        return self._counters.input_frob_sq.total()

    @property
    def delta_sum(self) -> float:
        """Total shrinkage applied so far."""
        return self._counters.delta_sum.total()

    # -- core operations --------------------------------------------------

    def append(self, row) -> None:
        """Consume one stream row: a one-row block of ``extend``.

        A row is rejected with ``ValueError`` before any counter moves when
        it is not 1-D, has a complex dtype, has the wrong length, a
        non-finite entry, or a squared norm that overflows float64 on its own
        or added to ``input_frob_sq``; the sketch is then exactly as before
        the call. Rows are never rescaled.
        """
        row = np.asarray(row)
        if row.ndim != 1:
            raise ValueError(f"row must be 1-D, got shape {row.shape}")
        if row.dtype.kind == "c":
            raise ValueError("row has complex entries")
        self._ingest(row.reshape(1, -1))

    def extend(self, rows) -> None:
        """Consume stream rows in order.

        A 2-D numeric array is ingested as one block: validated and counted
        at once, then its nonzero rows are stored in free buffer slots a
        slice at a time, with a compression each time the slots run out.
        Any other iterable goes through ``append`` row by row. Both end in
        the same step, so the sketch is bit-identical to appending the rows
        one at a time, however they are cut into blocks. A bad row
        at index j raises ``append``'s ``ValueError`` after rows ``[:j]``
        have been consumed, exactly as appending them would have.
        """
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "biuf":
            self._ingest(rows)
        else:
            for row in rows:
                self.append(row)

    def _ingest(self, block: np.ndarray) -> None:
        """The one ingest step: validate and count a block of rows, then
        store its nonzero rows.

        The width is checked and the squared row norms computed for the
        whole block at once; a non-finite entry makes its row's norm
        non-finite, so the per-row overflow check of the compensated
        ``|A|_F^2`` add, the only per-row work, also finds it. The valid
        prefix is counted as seen and its nonzero rows go to one ``_store``
        call, which compresses each time the buffer fills. A zero row is
        counted and not stored: claiming a slot would only break the
        "leading rows are nonzero" layout the serializer relies on.
        """
        n, d = block.shape
        if n == 0:
            return
        if d != self.params.d:
            raise ValueError(f"row has {d} entries, expected {self.params.d}")
        block = np.ascontiguousarray(block, dtype=np.float64)
        norms = squared_row_norms(block)
        frob = self._counters.input_frob_sq
        error = None
        for i, norm_sq in enumerate(norms.tolist()):
            if not math.isfinite(frob.value + norm_sq):
                if np.isfinite(block[i]).all():
                    error = "row's squared norm overflows the running |A|_F^2"
                else:
                    error = "row contains non-finite entries"
                n = i
                break
            frob.add(norm_sq)
        self._counters.rows_seen += n
        nonzero = norms[:n] != 0.0
        self._store(block[:n] if nonzero.all() else block[:n][nonzero])
        if error is not None:
            raise ValueError(error)

    def _store(self, rows: np.ndarray) -> None:
        """The one way rows enter the buffer: copy nonzero rows into the
        free slots a slice at a time and compress each time no zero row is
        left, the one compression trigger. The rows are pending until that
        compression; the caller counts them."""
        m = self.params.buffer_rows
        while rows.shape[0]:
            at = self._nonzero
            take = min(m - at, rows.shape[0])
            self._rows[at : at + take] = rows[:take]
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

        Shrink rule (``_shrink``, for both routes). Of the buffer's squared
        singular values ``sq``, descending, the shrink is ``delta = sq[ell-1]``
        (0 if there are fewer) and the ``kept`` squares are the nonzero head
        of ``max(sq[:ell] - delta, 0)``. The new rows, one per kept square,
        are mutually orthogonal with Gram matrix ``diag(kept)``, and the
        slots past them come out exactly zero.

        Kernel. With ``B`` the m nonzero rows and ``w, U`` the eigenpairs of
        the m x m Gram matrix ``G = B B^T`` (descending), ``sq = w`` and the
        new rows are ``W B``, ``W = (U[:, :nz] diag(sqrt(kept / w[:nz])))^T``
        with nz = ``kept.size``: with several new rows since the last
        compression (``batch_factor > 1``) one GEMM, O(nz m d). No left
        factor of an SVD is ever formed.

        Gram rule. A compression is a deferred step when exactly one row x
        arrived since the last one (``_pending == 1``), a deferral is running
        and fewer than ``L = min(ell, 2^10)`` compressions have passed since G
        was last built in full. Every other compression multiplies deferred
        rows out and builds ``G = B B^T`` with one product, O(m^2 d): with one
        new row (every compression at ``batch_factor == 1`` once the buffer
        has filled, and every re-inserted row of such a merge) it starts a
        deferral, with several it rotates the buffer directly.

        Deferred rotation. A deferral keeps the new rows as ``coef @ basis``,
        Brand's incremental-SVD device: it starts with ``coef = W`` over the m
        buffer rows, and each step appends x to the basis and sets
        ``coef <- [W[:, :p] coef | W[:, p:]]``, O(m^3). The sketch carries the
        kept rows' Gram diagonal, ``kept``, so a step's G is it bordered by
        x's row ``(x basis^T) coef^T``, O(m d).
        A deferral takes at most L - 1 steps, so the basis (allocated on
        first use) has ``buffer_rows + L - 1`` rows and a step past them
        raises. Multiplying out is one O(m^2 d) GEMM, so with the full build a
        deferral costs O(m^2 d) once per L compressions: a one-row
        compression costs amortized O(ell d + m^3) at ``batch_factor == 1``.
        Only ``compress`` multiplies the rows out, on a schedule set by the
        row sequence, so block cuts still give bit-identical sketches; reading
        the buffer (``_buf``, ``query``, ``copy``, ``save_sketch``, a hook's
        arguments) computes a copy and never changes later bits. ``copy()`` is
        a deep copy, which keeps each array's memory layout (``coef`` is
        F-ordered while it is W's transpose), and layout picks the BLAS path,
        so a copy continues bit for bit. A load, a fallback and assigning
        ``_buf`` end the deferral.

        Drift budget. The carried diagonal is exact only in exact arithmetic:
        each step adds about ``m * 2^-52 * w[0]`` of rounding to what it
        claims for the rows it wrote (the eigensolver's backward error, and
        the rounding of the rows themselves), and a later step passes that on
        undamped, because ``|diag(keep) U^T| <= 1``. Fewer than 2^10 steps
        follow a full build, so the drift is at most ``2^10 * m * 2^-52 *
        w[0] = m * 2^-42 * w[0]``, a factor 4 inside the fallback cutoff
        below. The deferred rows drift within the same budget: each W is a
        contraction, so by induction ``|coef| <= 1``, each update adds
        rounding of the size the direct rotation adds, and no later W
        amplifies what an earlier step committed.

        Soundness. The new buffer is ``W B`` with ``W = diag(keep) U^T`` and
        ``0 <= keep <= 1``, so ``B^T B - B'^T B' = B^T (I - W^T W) B`` is PSD by
        construction, whatever G the eigenpairs came from: ``|Ax|^2 >= |Qx|^2``
        does not rest on eigenvalue accuracy or on the carried diagonal. The
        upper side ``<= delta`` holds up to the absolute error of ``w``, the
        eigensolver's ``m * 2^-52 * w[0]`` plus the drift above: every kept
        ``w[j]`` is at least delta, so dividing by it never amplifies that
        error.

        Fallback. The Gram route runs only when ``0 < m < d`` and
        ``w[min(ell, m) - 1] > m * 2^-40 * w[0]``, i.e. every eigenvalue it
        divides by clears eigh's error by a factor 2^12. Otherwise
        (rank-deficient or ill-conditioned buffers, buffers at least as tall
        as wide) the whole buffer goes through LAPACK's thin SVD
        ``U diag(s) V^T``, ``sq = s * s`` and the new rows are
        ``sqrt(kept)[:, None] * V^T[:nz]``. Its small singular values are
        accurate to about ``2^-52 * s_1``, where the Gram route's are accurate
        only to about ``sqrt(m * 2^-52) * s_1`` because squaring B squares its
        condition number. A rank-deficient stream then shrinks
        by round-off squared, not by round-off. After j failed Gram attempts
        in a row (j capped at 6), the next ``2^(j-1) - 1`` compressions go
        straight to LAPACK without building G; a success resets j. ``copy()``
        keeps both counters and a load resets them, so the skips, like the
        rest, depend only on the row sequence.
        """
        before = self._logical() if self.compress_hook is not None else None
        m = self._nonzero
        one_row = self._pending == 1
        if not (one_row and self._coef is not None
                and self._gram_age < min(self.params.ell, _DEFERRAL_CAP)):
            # every compression but a deferred step reads the rows themselves
            self._multiply_out()
        shrunk = None
        if self._gram_skip:
            self._gram_skip -= 1
        elif 0 < m < self.params.d:
            shrunk = self._gram_shrink(m)
            if shrunk is None:
                self._gram_fails = min(self._gram_fails + 1, _GRAM_FAILS_CAP)
                self._gram_skip = 2 ** (self._gram_fails - 1) - 1
            else:
                self._gram_fails = 0
        if shrunk is not None:
            delta, w_mat, kept = shrunk
            if one_row:
                self._defer(w_mat, m)
            else:
                # into a fresh array: a product whose output overlaps an
                # operand takes numpy's slow path
                self._rows[: kept.size] = w_mat @ self._rows[:m]
        else:
            self._multiply_out()
            f = svd_thin(self._rows)
            delta, kept = _shrink(f.s * f.s, self.params.ell)
            np.multiply(np.sqrt(kept)[:, None], f.v.T[: kept.size], out=self._rows[: kept.size])
        # a fallback's ``_carried`` is not read before the next full build
        nz = kept.size
        self._carried = kept
        self._rows[nz:m] = 0.0
        self._nonzero = nz
        self._pending = 0
        self._counters.delta_sum.add(delta)
        if self.compress_hook is not None:
            self.compress_hook(before, self._logical(), delta)
        return delta

    def _defer(self, w_mat: np.ndarray, m: int) -> None:
        """Keep the new rows ``w_mat @ B`` as ``coef @ basis`` when one row
        arrived since the last compression (see ``compress``)."""
        if self._coef is None:
            if self._basis is None:
                rows = self.params.buffer_rows + min(self.params.ell, _DEFERRAL_CAP) - 1
                self._basis = np.empty((rows, self.params.d))
            self._basis[:m] = self._rows[:m]
            self._coef = w_mat
        else:
            p = m - 1
            q = self._coef.shape[1]
            self._basis[q] = self._rows[p]
            self._coef = np.concatenate((w_mat[:, :p] @ self._coef, w_mat[:, p:]), axis=1)

    def _buffer_gram(self, m: int) -> np.ndarray:
        """Lower triangle of ``B B^T`` for the m buffer rows: built in full,
        or in a deferred step from the carried diagonal of the first m - 1
        and the new row's border (see ``compress``)."""
        if self._coef is None:
            self._gram_age = 1
            b = self._rows[:m]
            return b @ b.T
        self._gram_age += 1
        p = m - 1
        gram = np.zeros((m, m))
        gram.flat[: p * (m + 1) : m + 1] = self._carried
        # the one new row x against the deferred rows: (x basis^T) coef^T
        x = self._rows[p]
        gram[p, :p] = (self._basis[: self._coef.shape[1]] @ x) @ self._coef.T
        gram[p, p] = x @ x
        return gram

    def _gram_shrink(self, m: int) -> Optional[tuple[float, np.ndarray, np.ndarray]]:
        """``(delta, W, kept)`` of ``_shrink`` by the Gram route, W without
        its zero rows, or None to fall back."""
        ell = self.params.ell
        # eigh reads the lower triangle only
        w, u = np.linalg.eigh(self._buffer_gram(m), UPLO="L")
        w, u = w[::-1], u[:, ::-1]
        if not w[min(ell, m) - 1] > m * 2.0**-40 * w[0]:
            return None
        delta, kept = _shrink(w, ell)
        nz = kept.size
        return delta, (u[:, :nz] * np.sqrt(kept / w[:nz])).T, kept

    def flush(self) -> None:
        """Compress any rows appended since the last compression."""
        if self._pending:
            self.compress()

    def query(self) -> np.ndarray:
        """Current ell-row sketch, flushing buffered rows first.

        The flush compresses the pending rows into this sketch itself, not
        into a copy, so a read mid-stream changes how the rest of the stream
        is sketched. Above ``batch_factor == 1`` it shrinks a buffer that was
        not yet full, which adds shrinkage: a 200 x 20 stream at c = 2 (k 2,
        eps 0.5) queried every 37 rows ended with 2.3% more ``delta_sum``
        than unqueried. At 1 nothing is pending once the buffer has first
        filled, and a read before that changes later rows only in rounding.
        To read without either effect, query a ``copy()``, as
        ``error_report`` does.
        """
        self.flush()
        return self._buf[: self.params.ell].copy()

    def query_topk(self) -> np.ndarray:
        """Top-k rows of the flushed sketch (rows sorted by singular value).

        Flushes this sketch itself, as :meth:`query` does, with the same
        effect on later shrinkage at ``batch_factor > 1``.
        """
        self.flush()
        return self._buf[: self.params.k].copy()

    def copy(self) -> "FdSketch":
        """An independent sketch in this exact state, sharing only the hook:
        one deep copy, so every field is copied and each array keeps its
        memory layout, which picks the BLAS path, and the copy continues bit
        for bit as this sketch would."""
        return copy.deepcopy(self, {id(self.compress_hook): self.compress_hook})

    def merge(self, other: "FdSketch") -> "FdSketch":
        """Combine two sketches of the same (k, eps, ell, d) into a new one.

        The input with fewer buffer rows (``other`` at equal buffers) is
        flushed on a copy and its nonzero rows are re-inserted into a copy
        of the other, compressing as they fill the buffer; then its row
        count, input mass and shrink total are added once. The result keeps
        the wider buffer m, so every compression that fed it lost between
        ell and m times its shrink value, the window ``error_report`` checks.
        Both inputs are left untouched. A combined ``input_frob_sq`` that
        overflows float64 is rejected with ``ValueError`` before any work is
        done.
        """
        mine, theirs = self.params, other.params
        if (mine.k, mine.eps, mine.ell, mine.d) != (theirs.k, theirs.eps, theirs.ell, theirs.d):
            raise ValueError(
                "cannot merge sketches with different (k, eps, ell, d): "
                f"{(mine.k, mine.eps, mine.ell, mine.d)} vs "
                f"{(theirs.k, theirs.eps, theirs.ell, theirs.d)}"
            )
        wide, narrow = (other, self) if theirs.buffer_rows > mine.buffer_rows else (self, other)
        if not math.isfinite(wide._counters.input_frob_sq.value + narrow.input_frob_sq):
            raise ValueError("merged input_frob_sq overflows float64")
        out = wide.copy()
        donor = narrow.copy()
        donor.flush()
        out._store(donor._buf[: donor._nonzero])
        out._counters.absorb(donor._counters)
        return out
