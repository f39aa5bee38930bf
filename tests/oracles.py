"""Independent numerical oracles used by the test suite.

The linear-algebra oracles avoid np.linalg's factorizations on purpose: the
library's factorizations are LAPACK-backed, so expected values are recomputed
through a hand-written cyclic Jacobi eigensolver on Gram matrices. Slow but
trustworthy at test sizes. The one exception is ``fd_lapack_oracle``, the
reference for the sketch's Gram-route shrink kernel, which shrinks through
LAPACK's SVD of the buffer itself and so shares no factorization with it.
``mg_linear_oracle`` is the heavy-hitters summary as a plain scan of its
slots, the reference for the indexed ``MgSummary``. ``LineCsvReader`` parses
a CSV row stream one line at a time with ``float()``, the reference for
``RowReader``'s chunked parse.
"""
from __future__ import annotations

import math

import numpy as np


def jacobi_eigh(sym: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors in the matching columns. Only ever calls basic numpy
    arithmetic, no np.linalg.
    """
    a = np.array(sym, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("expected a square matrix")
    if not np.allclose(a, a.T, atol=1e-12 * (1.0 + np.abs(a).max(initial=0.0))):
        raise ValueError("expected a symmetric matrix")
    v = np.eye(n)
    scale = np.abs(a).max(initial=0.0)
    if scale == 0.0 or n == 1:
        order = np.argsort(-np.diag(a), kind="stable")
        return np.diag(a)[order], v[:, order]
    for _ in range(max_sweeps):
        # measure the off-diagonal mass directly; total minus diagonal would
        # cancel catastrophically once the matrix is nearly diagonal
        offdiag = a.copy()
        np.fill_diagonal(offdiag, 0.0)
        off = math.sqrt((offdiag**2).sum())
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                # entries this far below the working scale contribute less than
                # the stopping tolerance even summed over the whole matrix, and
                # rotating on them overflows theta
                if abs(apq) <= 1e-16 * scale:
                    continue
                theta = float(a[q, q] - a[p, p]) / (2.0 * float(apq))
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    else:
        raise RuntimeError("jacobi iteration did not converge")
    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def gram_svd(a: np.ndarray, rel_cut: float = 1e-12):
    """Thin SVD of ``a`` through the Gram matrix and the Jacobi solver.

    Returns (u, s, v) with v holding right singular vectors in columns; only
    directions whose Gram eigenvalue clears ``rel_cut`` times the largest one
    are kept, so singular values below ~1e-6 of the top are treated as rank
    deficiency. Accuracy is limited to ~sqrt(eps) relative for small singular
    values, which is fine for oracle comparisons at 1e-6.
    """
    a = np.asarray(a, dtype=np.float64)
    gram = a.T @ a
    w, vecs = jacobi_eigh(gram)
    if w.size == 0 or w[0] <= 0.0:
        return np.zeros((a.shape[0], 0)), np.zeros(0), np.zeros((a.shape[1], 0))
    # cut on the Gram eigenvalues, not on their square roots: eigensolver
    # round-off sits at ~eps relative to w[0], which the sqrt would inflate
    # into convincing-looking fake singular values of order sqrt(eps)
    keep = w > rel_cut * w[0]
    s = np.sqrt(w[keep])
    v = vecs[:, keep]
    u = (a @ v) / s
    return u, s, v


def rank_k_oracle(a: np.ndarray, k: int) -> np.ndarray:
    """Best rank-k approximation computed entirely through the Gram route."""
    u, s, v = gram_svd(a)
    r = min(k, s.size)
    if r == 0:
        return np.zeros_like(np.asarray(a, dtype=np.float64))
    return (u[:, :r] * s[:r]) @ v[:, :r].T


def project_rows_oracle(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Project the rows of ``a`` onto the row space of ``x`` via the Gram route."""
    a = np.asarray(a, dtype=np.float64)
    _, s, v = gram_svd(np.asarray(x, dtype=np.float64))
    if s.size == 0:
        return np.zeros_like(a)
    return (a @ v) @ v.T


# Orthonormality and reconstruction tolerances of the factor contract.
TAU_ORTH = 1e-10
TAU_RECON = 1e-10


def reconstruct(f) -> np.ndarray:
    """``u @ diag(s) @ v.T`` of a thin SVD."""
    return (f.u * f.s) @ f.v.T


def validate_factors(f, a) -> None:
    """Assert the factor contract of a thin SVD of ``a``: orthonormal
    columns, sorted spectrum, faithful reconstruction."""
    arr = np.asarray(a, dtype=np.float64)
    r = f.s.size
    if f.u.shape != (arr.shape[0], r) or f.v.shape != (arr.shape[1], r):
        raise AssertionError("factor shapes do not match input")
    if r and np.any(np.diff(f.s) > 0):
        raise AssertionError("singular values are not non-increasing")
    if r and f.s[-1] < 0:
        raise AssertionError("negative singular value")
    if r:
        iu = f.u.T @ f.u - np.eye(r)
        iv = f.v.T @ f.v - np.eye(r)
        if np.abs(iu).max() > TAU_ORTH or np.abs(iv).max() > TAU_ORTH:
            raise AssertionError("factor columns are not orthonormal")
    scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
    if np.abs(reconstruct(f) - arr).max(initial=0.0) > TAU_RECON * scale:
        raise AssertionError("reconstruction drifts beyond tolerance")


def removed_row_residuals(q: np.ndarray) -> np.ndarray:
    """For each row index j, squared Frobenius residual of q against q minus row j.

    Enumeration oracle for the row-removal residual: projects every row of q
    onto the row space of the matrix with row j deleted and sums what is left.
    """
    q = np.asarray(q, dtype=np.float64)
    out = np.zeros(q.shape[0])
    for j in range(q.shape[0]):
        rest = np.delete(q, j, axis=0)
        resid = q - project_rows_oracle(q, rest)
        out[j] = float((resid**2).sum())
    return out


def exact_frob_sq(rows) -> float:
    """Exactly rounded accumulation of squared row norms (math.fsum)."""
    return math.fsum(float(x) * float(x) for row in rows for x in np.ravel(row))


def fd_lapack_oracle(rows, ell: int, buffer_rows: int):
    """Frequent Directions with one LAPACK thin SVD per shrink step.

    Same trigger as the library: a nonzero row takes the next free slot of a
    ``buffer_rows``-row buffer, the buffer is shrunk when no slot is left, and
    once more at the end if rows arrived since. Each shrink subtracts the
    ell-th largest squared singular value from every squared singular value.
    Returns the final ``ell`` sketch rows and the shrink total.
    """
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[1]
    buf = np.zeros((0, d))
    delta_sum = 0.0
    pending = False

    def shrink(b):
        _, s, vt = np.linalg.svd(b, full_matrices=False)
        sq = s * s
        delta = float(sq[ell - 1]) if sq.size >= ell else 0.0
        keep = np.sqrt(np.maximum(sq - delta, 0.0))
        return (keep[:, None] * vt)[keep > 0.0], delta

    for row in rows:
        if not row.any():
            continue
        buf = np.vstack([buf, row])
        pending = True
        if buf.shape[0] == buffer_rows:
            buf, delta = shrink(buf)
            delta_sum += delta
            pending = False
    if pending:
        buf, delta = shrink(buf)
        delta_sum += delta
    q = np.zeros((ell, d))
    q[: min(ell, buf.shape[0])] = buf[:ell]
    return q, delta_sum


def rowspace_oracle(x: np.ndarray, rel_cut: float = 1e-12) -> np.ndarray:
    """Orthonormal basis (columns) of the row space of a flushed sketch's rows.

    Flushed sketch rows are ``diag(s) V^T``, mutually orthogonal, so modified
    Gram-Schmidt (run twice) over the rows by descending norm is stable; rows
    whose norm is at most ``rel_cut`` times the largest are dropped, the
    library's pseudoinverse convention on singular values.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))
    top = norms.max(initial=0.0)
    basis: list[np.ndarray] = []
    for i in np.argsort(-norms, kind="stable"):
        if norms[i] <= rel_cut * top:
            break
        v = x[i].copy()
        for _ in range(2):
            for b in basis:
                v -= (v @ b) * b
        basis.append(v / math.sqrt(v @ v))
    return np.array(basis).T.reshape(x.shape[1], len(basis))


def report_oracle(a: np.ndarray, q: np.ndarray, qk: np.ndarray, k: int) -> dict:
    """The raw quantities of an ``ErrorReport``, from the materialized stream.

    Residuals are formed as matrices and summed exactly: ``A - A_k`` with
    ``A_k`` from the Jacobi route, ``A - proj_{Q_k}(A)`` with the basis of
    ``rowspace_oracle``. The directional gaps are the extreme Jacobi
    eigenvalues of ``A^T A - Q^T Q``.
    """
    a = np.asarray(a, dtype=np.float64)
    ak = rank_k_oracle(a, k)
    basis = rowspace_oracle(qk)
    w, _ = jacobi_eigh(a.T @ a - q.T @ q)
    return {
        "frob_a_sq": exact_frob_sq(a),
        "frob_q_sq": exact_frob_sq(q),
        "frob_qk_sq": exact_frob_sq(qk),
        "max_dir_gap": float(w[0]),
        "min_dir_gap": float(w[-1]),
        "rank_k_residual_sq": exact_frob_sq(a - ak),
        "rank_k_mass_sq": exact_frob_sq(ak),
        "proj_residual_sq": exact_frob_sq(a - (a @ basis) @ basis.T),
    }


class LinearMgSummary:
    """Misra-Gries counters kept as a fixed list of slots scanned with ``==``
    on every arrival and every estimate: O(capacity) per call, and
    capacity-sized from the start."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._slots = [None] * self.capacity
        self.n_processed = 0
        self.decrement_total = 0

    def update(self, item) -> None:
        self.n_processed += 1
        slots = self._slots
        free = -1
        for i, slot in enumerate(slots):
            if slot is not None and slot[0] == item:
                slots[i] = (item, slot[1] + 1)
                return
            if slot is None and free < 0:
                free = i
        if free >= 0:
            slots[free] = (item, 1)
            return
        self.decrement_total += 1
        for i, slot in enumerate(slots):
            label, count = slot
            slots[i] = None if count == 1 else (label, count - 1)

    def estimate(self, item) -> int:
        for slot in self._slots:
            if slot is not None and slot[0] == item:
                return slot[1]
        return 0

    def items(self) -> dict:
        return {slot[0]: slot[1] for slot in self._slots if slot is not None}


def mg_linear_oracle(items, capacity: int) -> LinearMgSummary:
    """The linear-scan summary after folding in ``items``."""
    summary = LinearMgSummary(capacity)
    for item in items:
        summary.update(item)
    return summary


class LineCsvReader:
    """The CSV side of ``io.RowReader`` as a line-by-line parse: the same
    ``d``, ``rows_read``, blocks, rows and errors. A line is blank when
    ``str.strip`` leaves nothing; a row is d comma-separated ``float()``
    values, all finite. Rows are checked for finiteness a block at a time,
    and an earlier non-finite row wins over a later malformed line. An error
    is a ``ValueError`` with ``RowStreamError``'s ``path:line: message``."""

    def __init__(self, path: str):
        self.path = path
        self.d = None
        self.rows_read = 0
        self._rows = None
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            numbered = list(enumerate(fh, start=1))
        for line_no, line in numbered:
            text = line.strip()
            if text:
                self.d = len(text.split(","))
                break
        self._lines = iter(numbered)

    def blocks(self, size: int):
        return self._blocks(size) if self.d is not None else iter(())

    def __iter__(self):
        return self

    def __next__(self):
        if self._rows is None:
            self._rows = self.blocks(1)
        return next(self._rows)[0]

    def _blocks(self, size: int):
        for block in self._csv_blocks(size):
            self.rows_read += block.shape[0]
            yield block

    def _error(self, line_no: int, message: str) -> ValueError:
        return ValueError(f"{self.path}:{line_no}: {message}")

    def _check_finite(self, block: np.ndarray, line_nos) -> None:
        if not np.isfinite(block).all():
            bad = int(np.argmin(np.isfinite(block).all(axis=1)))
            raise self._error(line_nos[bad], "non-finite value")

    def _csv_blocks(self, size: int):
        d = self.d
        block, line_nos = np.empty((size, d)), []
        for line_no, line in self._lines:
            text = line.strip()
            if not text:
                continue
            tokens = text.split(",")
            error = None
            if len(tokens) != d:
                error = f"expected {d} values, found {len(tokens)}"
            else:
                try:
                    block[len(line_nos)] = [float(t) for t in tokens]
                except ValueError as exc:
                    error = f"bad number: {exc}"
            if error:
                self._check_finite(block[: len(line_nos)], line_nos)
                raise self._error(line_no, error)
            line_nos.append(line_no)
            if len(line_nos) == size:
                self._check_finite(block, line_nos)
                yield block
                block, line_nos = np.empty((size, d)), []
        if line_nos:
            block = block[: len(line_nos)].copy()
            self._check_finite(block, line_nos)
            yield block
