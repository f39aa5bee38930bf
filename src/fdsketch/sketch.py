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
the next compression computes only the Gram rows of the rows stored since.
It rebuilds ``B B^T`` in full after a load or a fallback and at least every
``min(ell, 2^10)`` compressions, which keeps the carried matrix's rounding
drift a factor 4 inside the fallback cutoff (``compress`` gives the budget).
A compression that adds one row (batch factor 1) defers the rotation: the
kept rows stay as a small coefficient matrix times stored rows, multiplied
out at the next rebuild or when 2m rows are stored, so such a row costs
amortized O(ell d + m^3) with the m x m eigensolve. A compression that adds
several rows (batch factor above 1) rotates the buffer directly, O(ell m d).

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
top k rows of the sketch. ``error_report`` (from ``bounds``, bound here too)
evaluates all of these from the stream's Gram matrix A^T A and |A|_F^2,
accumulated in one pass over row blocks, so a stream read from a file is
never held in memory whole.

Sketches over the same row order are bit-identical between runs; two
sketches with equal (k, eps, ell, d) can be merged by re-inserting one
sketch's rows into the other, at the cost of additional shrinkage.
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
        and a finite batch factor >= 1 whose buffer size does not overflow."""
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


# cap on the consecutive failed Gram attempts that double the run of
# compressions sent straight to LAPACK: at most 2**(cap-1) - 1 = 31
_GRAM_FAILS_CAP = 6

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
        self._rows = buf
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
        # deferred rows: while ``_coef`` is set, the kept rows are
        # ``_coef @ _basis[:q]`` and ``_rows[:_coef.shape[0]]`` is stale
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
        # the carried Gram diagonal described the rows just replaced
        self._carried = None

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
        norms = squared_row_norms(block)
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

        Kernel. With ``B`` the m nonzero rows, ``r = min(ell, m)`` and
        ``w, U`` the eigenpairs of the m x m Gram matrix ``G = B B^T``
        (descending), the shrink is ``delta = w[ell-1]`` (0 if m < ell) and the
        new rows are ``W B`` with ``W = (U[:, :r] diag(keep))^T`` and
        ``keep = sqrt(max(w - delta, 0) / w)``. The rows of W whose keep is 0
        are dropped, so their slots come out exactly zero. With several new
        rows since the last compression (``batch_factor > 1``), ``W B`` is
        one GEMM, O(r m d). No left factor of an SVD is ever formed.

        Deferred rotation. With exactly one new row x (every compression at
        ``batch_factor == 1`` once the buffer has filled, and every
        re-inserted row of such a merge) the rotation is not applied: the
        kept rows stay as ``coef @ basis``, Brand's incremental-SVD device.
        x is appended to a basis of at most 2m stored rows (2m x d of extra
        memory, allocated on first use), ``coef <- [W[:, :p] coef | W[:, p:]]``
        costs O(m^3), and G needs only x's row, ``(x basis^T) coef^T``, at
        O(m d). The rows are multiplied out, one O(m^2 d) GEMM, when the
        basis is full, and before a rebuild or a fallback, which need them;
        since a rebuild comes at least every ``min(ell, 2^10)`` compressions,
        that is once per at most m of them, and a one-row compression costs
        amortized O(m d + m^3) instead of O(m^2 d). Only ``compress``
        multiplies the rows out, on a schedule set by the row sequence, so
        block cuts still give bit-identical sketches; reading the buffer
        (``_buf``, ``query``, ``copy``, ``save_sketch``, a hook's arguments)
        computes a copy and never changes later bits, and ``copy()`` copies
        ``coef`` and ``basis``, so a copy continues bit for bit. Assigning
        ``_buf`` installs that buffer and ends the deferral.

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
        copy compresses bit for bit as the original would. The deferred rows
        drift within the same budget: each W is a contraction, so by
        induction ``|coef| <= 1``, each update adds rounding of the size the
        direct rotation adds, and no later W amplifies what an earlier step
        committed; and the rows are multiplied out at every rebuild, so the
        drift sums over no more steps than the carried diagonal's.

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
        by round-off squared, not by round-off. After j failed Gram attempts
        in a row (j capped at 6), the next ``2^(j-1) - 1`` compressions go
        straight to LAPACK without building G; a success resets j. ``copy()``
        keeps both counters and a load resets them, so the skips, like the
        rest, depend only on the row sequence.
        """
        before = self._logical() if self.compress_hook is not None else None
        m = self._nonzero
        p = 0 if self._carried is None else self._carried.size
        rebuild = self._rebuild_due(p)
        one_row = self._carried is not None and p == m - 1
        if rebuild or not one_row:
            # a rebuild and a direct rotation read the rows themselves
            self._multiply_out()
        shrunk = None
        if self._gram_skip:
            self._gram_skip -= 1
        elif 0 < m < self.params.d:
            shrunk = self._gram_shrink(m, p, rebuild)
            if shrunk is None:
                self._gram_fails = min(self._gram_fails + 1, _GRAM_FAILS_CAP)
                self._gram_skip = 2 ** (self._gram_fails - 1) - 1
            else:
                self._gram_fails = 0
        if shrunk is not None:
            delta, w_mat, new_sq = shrunk
            nz = new_sq.size
            if one_row:
                self._defer(w_mat, m)
            else:
                # into a fresh array: a product whose output overlaps an
                # operand takes numpy's slow path
                self._rows[:nz] = w_mat @ self._rows[:m]
            self._carried = new_sq
        else:
            self._multiply_out()
            f = svd_thin(self._rows)
            # square once and reuse: taking delta from the same array
            # guarantees the cut entry shrinks to exactly 0.0, which the slot
            # bookkeeping relies on (a separate square can differ by one ulp)
            sq = f.s * f.s
            ell = self.params.ell
            delta = float(sq[ell - 1]) if sq.size >= ell else 0.0
            scale = np.sqrt(np.maximum(sq - delta, 0.0))
            np.multiply(scale[:, None], f.v.T, out=self._rows[: scale.size])
            # zero scales come last, so the nonzero rows stay first
            nz = int(np.count_nonzero(scale))
            self._carried = None
        self._rows[nz:m] = 0.0
        self._nonzero = nz
        self._pending = 0
        self._delta_acc.add(delta)
        if self.compress_hook is not None:
            self.compress_hook(before, self._logical(), delta)
        return delta

    def _defer(self, w_mat: np.ndarray, m: int) -> None:
        """Keep the new rows ``w_mat @ B`` as ``coef @ basis`` when one row
        arrived since the last compression (see ``compress``)."""
        if self._coef is None:
            if self._basis is None:
                self._basis = np.empty((2 * self.params.buffer_rows, self.params.d))
            self._basis[:m] = self._rows[:m]
            self._coef = w_mat
        else:
            p = m - 1
            q = self._coef.shape[1]
            self._basis[q] = self._rows[p]
            self._coef = np.concatenate((w_mat[:, :p] @ self._coef, w_mat[:, p:]), axis=1)
        if self._coef.shape[1] == self._basis.shape[0]:
            self._multiply_out()

    def _rebuild_due(self, p: int) -> bool:
        """The rebuild rule of ``compress``, given p carried rows."""
        return p == 0 or self._gram_age >= min(self.params.ell, 2**10)

    def _buffer_gram(self, m: int, p: int, rebuild: bool) -> np.ndarray:
        """Lower triangle of ``B B^T`` for the m buffer rows, from the carried
        diagonal of the first p unless ``rebuild`` (see ``compress``)."""
        if rebuild:
            self._gram_age = 1
            b = self._rows[:m]
            return b @ b.T
        self._gram_age += 1
        gram = np.zeros((m, m))
        gram.flat[: p * (m + 1) : m + 1] = self._carried
        if self._coef is None:
            b = self._rows[:m]
            gram[p:] = b[p:] @ b.T
        else:
            # the one new row x against the deferred rows: (x basis^T) coef^T
            x = self._rows[p]
            gram[p, :p] = (self._basis[: self._coef.shape[1]] @ x) @ self._coef.T
            gram[p, p] = x @ x
        return gram

    def _gram_shrink(self, m: int, p: int,
                     rebuild: bool) -> Optional[tuple[float, np.ndarray, np.ndarray]]:
        """``(delta, W, max(w - delta, 0))`` by the Gram route, with W's
        zero rows and their entries dropped, or None to fall back."""
        ell = self.params.ell
        # eigh reads the lower triangle only
        w, u = np.linalg.eigh(self._buffer_gram(m, p, rebuild), UPLO="L")
        w, u = w[::-1], u[:, ::-1]
        r = min(ell, m)
        if not w[r - 1] > m * 2.0**-40 * w[0]:
            return None
        # delta comes from the same array w, so entry ell-1 shrinks to 0.0
        delta = float(w[ell - 1]) if m >= ell else 0.0
        new_sq = np.maximum(w[:r] - delta, 0.0)
        # w is descending, so the zero entries come last
        nz = int(np.count_nonzero(new_sq))
        keep = np.sqrt(new_sq[:nz] / w[:nz])
        return delta, (u[:, :nz] * keep).T, new_sq[:nz]

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
        out = copy.copy(self)
        # with the deferred form as it is, so the copy compresses bit for bit
        # as the original would
        out._rows = self._rows.copy()
        if self._coef is not None:
            out._coef = self._coef.copy()
        if self._basis is not None:
            out._basis = self._basis.copy()
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
