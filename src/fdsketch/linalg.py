"""Dense linear-algebra helpers shared by the sketching code.

All matrices are row-major float64 numpy arrays. Rows are data points,
columns are features, so "row space" always means the span of the data
points. The factorization work is delegated to LAPACK through numpy; what
this module adds is the validation, the truncation conventions, and the
spectral gap helper the error bounds are stated in.

The sketch's shrink step factorizes its buffer through the buffer's Gram
matrix (see ``FdSketch.compress``) and calls ``svd_thin`` only as its exact
fallback. ``error_report`` works from the stream's rows, with one QR of
``[A; Q]^T`` by ``qr_rows_inplace``, while they number at most d - ell, and
from the stream's Gram matrix beyond; it also takes ``rowspace_basis`` of the
sketch from here.
``best_rank_k``, ``project_rowspace`` and ``directional_norm_gap`` are the
same quantities for a matrix held in memory.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Relative cutoff under which a singular value is treated as zero when
# building pseudoinverses / row-space bases.
PINV_REL_CUTOFF = 1e-12

# Rows per Householder panel of ``qr_rows_inplace`` and per chunk of its
# trailing updates, and rows per LAPACK call inside a panel
QR_PANEL_ROWS = 64
QR_LEAF_ROWS = 16


class SvdError(ValueError):
    """Raised when a factorization cannot be produced for the given input."""

    def __init__(self, message: str, residual_norm: float = float("nan")):
        super().__init__(message)
        self.residual_norm = residual_norm


def as_matrix(a, name: str = "a") -> np.ndarray:
    """Coerce to a 2-D float64 array; reject complex and non-finite entries."""
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} has complex entries")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class SvdFactors(NamedTuple):
    """Thin SVD ``a = u @ diag(s) @ v.T``, as an immutable named tuple.

    ``u`` is (m, r) and ``v`` is (d, r), both with orthonormal columns;
    ``s`` is the length-r non-increasing vector of singular values.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd_thin(a) -> SvdFactors:
    """Thin SVD with validated input.

    Raises ValueError on non-finite input and SvdError (carrying the input's
    Frobenius norm as ``residual_norm``) if the underlying iteration fails to
    converge.
    """
    arr = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(
            f"singular value iteration did not converge: {exc}",
            residual_norm=float(np.sqrt((arr**2).sum())),
        ) from exc
    return SvdFactors(u=u, s=s, v=vt.T)


def best_rank_k(a, k: int) -> np.ndarray:
    """Closest matrix of rank at most k in Frobenius distance.

    Computed by truncating the thin SVD. ``k = 0`` returns the zero matrix,
    ``k >= rank(a)`` reproduces ``a`` up to factorization round-off.
    """
    arr = as_matrix(a)
    if k < 0:
        raise ValueError("k must be >= 0")
    f = svd_thin(arr)
    r = min(k, f.s.size)
    if r == 0:
        return np.zeros_like(arr)
    return (f.u[:, :r] * f.s[:r]) @ f.v[:, :r].T


def project_rowspace(a, x) -> np.ndarray:
    """Project each row of ``a`` onto the row space of ``x``.

    The row-space basis comes from the thin SVD of ``x`` with singular values
    below ``PINV_REL_CUTOFF * s_max`` dropped, which is the usual pseudoinverse
    convention. An all-zero ``x`` projects everything to zero.
    """
    arr = as_matrix(a)
    xm = as_matrix(x, name="x")
    if arr.shape[1] != xm.shape[1]:
        raise ValueError(
            f"column mismatch: a has {arr.shape[1]} columns, x has {xm.shape[1]}"
        )
    basis = rowspace_basis(xm)
    return (arr @ basis) @ basis.T


def rowspace_basis(x) -> np.ndarray:
    """Orthonormal basis of the row space of ``x``, one vector per column.

    Right singular vectors whose singular value is at least
    ``PINV_REL_CUTOFF * s_max``, the pseudoinverse convention; an all-zero
    ``x`` gives a (d, 0) basis.
    """
    f = svd_thin(x)
    if f.s.size == 0 or f.s[0] == 0.0:
        return f.v[:, :0]
    return f.v[:, f.s > PINV_REL_CUTOFF * f.s[0]]


def qr_rows_inplace(m: np.ndarray) -> np.ndarray:
    """Overwrite the C-ordered p x d float64 array ``m`` (p <= d) with the
    Householder QR of ``m.T`` and return the p reflector scales tau, as
    LAPACK's geqrf leaves them in ``m.T``; R is ``np.triu(m[:, :p].T)``.

    ``np.linalg.qr(m.T)`` would hold two more copies of ``m``. This is the
    blocked Householder QR with compact-WY trailing updates (Schreiber and
    Van Loan, SIAM J. Sci. Stat. Comput. 10(1), 1989), two levels deep: a
    panel of ``QR_PANEL_ROWS`` rows is itself factored that way in panels of
    ``QR_LEAF_ROWS``, each of which LAPACK factors, through
    ``np.linalg.qr(leaf.T, mode="raw")``, and writes back; after each panel
    ``_reflect_rows`` updates the rows below it. The workspace beyond ``m``
    is O(QR_PANEL_ROWS * d) whatever p is.
    """
    if m.shape[0] > m.shape[1]:
        raise ValueError(f"qr_rows_inplace needs p <= d, got shape {m.shape}")
    return _qr_rows(m, QR_PANEL_ROWS)


def _qr_rows(m: np.ndarray, panel: int) -> np.ndarray:
    """``qr_rows_inplace`` in panels of ``panel`` rows."""
    p = m.shape[0]
    taus = [np.zeros(0)]
    for j0 in range(0, p, panel):
        j1 = min(j0 + panel, p)
        if panel > QR_LEAF_ROWS:
            tau = _qr_rows(m[j0:j1, j0:], QR_LEAF_ROWS)
        else:
            h, tau = np.linalg.qr(m[j0:j1, j0:].T, mode="raw")
            m[j0:j1, j0:] = h
        taus.append(tau)
        if j1 < p:
            _reflect_rows(m[j1:, j0:], m[j0:j1, j0:], tau)
    return np.concatenate(taus)


def _reflect_rows(c: np.ndarray, h: np.ndarray, tau: np.ndarray) -> None:
    """``c <- c (I - V^T T V)``, which is ``H_b ... H_1`` applied to each row
    of ``c``, for the b reflectors that geqrf leaves in the rows of ``h`` past
    their diagonal, with scales ``tau``.

    Row i of V is reflector i: 0 before column i, 1 at it, then
    ``h[i, i + 1:]``. A
    reflector with tau = 0 is the identity and its row is zeroed. T is upper
    triangular with ``T^-1 = striu(V V^T) + diag(1/tau)``, and ``c`` is
    updated ``QR_PANEL_ROWS`` rows at a time.
    """
    b = h.shape[0]
    v = h.copy()
    live = tau != 0.0
    lead = v[:, :b]
    lead[np.tril_indices(b, -1)] = 0.0
    lead[np.diag_indices(b)] = 1.0
    v[~live] = 0.0
    tinv = np.triu(v @ v.T, 1)
    tinv[np.diag_indices(b)] = 1.0 / np.where(live, tau, 1.0)
    w = (c @ v.T) @ np.linalg.inv(tinv)
    for i0 in range(0, c.shape[0], QR_PANEL_ROWS):
        part = c[i0:i0 + QR_PANEL_ROWS]
        part -= w[i0:i0 + QR_PANEL_ROWS] @ v


def frob_sq(a) -> float:
    """Squared Frobenius norm."""
    arr = np.asarray(a, dtype=np.float64)
    return float((arr**2).sum())


class GapRange(NamedTuple):
    """Extreme eigenvalues of ``a.T @ a - q.T @ q``.

    ``max_gap`` is the largest possible value of ``|a x|^2 - |q x|^2`` over
    unit vectors x, ``min_gap`` the smallest; both come from one symmetric
    eigendecomposition of the d-by-d difference of Gram matrices.
    """

    max_gap: float
    min_gap: float


def directional_norm_gap(a, q) -> GapRange:
    """Extremes of the squared-norm gap between two row sets, by direction."""
    arr = as_matrix(a)
    qm = as_matrix(q, name="q")
    if arr.shape[1] != qm.shape[1]:
        raise ValueError(
            f"column mismatch: a has {arr.shape[1]} columns, q has {qm.shape[1]}"
        )
    diff = arr.T @ arr - qm.T @ qm
    # symmetrize away accumulation noise before the eigensolve
    diff = 0.5 * (diff + diff.T)
    w = np.linalg.eigvalsh(diff)
    return GapRange(max_gap=float(w[-1]), min_gap=float(w[0]))
