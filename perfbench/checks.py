"""Checks of fdsketch outputs against the benchmark's own computation.

Nothing here imports fdsketch. Sketch files are parsed from the ``FDSK``
layout documented in ``fdsketch/io.py``; the shrink step, the reference
factorizations and the item counts are computed with numpy and the standard
library. Every check is a property the method must have on the benchmark's
own input, never a comparison with a stored earlier output. Each check
returns a list of failure messages (empty when the output passes) and the
quality figures the benchmark reports.
"""
from __future__ import annotations

import math
import struct
from collections import Counter

import numpy as np

SKETCH_MAGIC = b"FDSK"
SKETCH_HEADER = struct.Struct("<4sH5Q3d")
IDENTITY_TOL = 1e-8  # relative to |A|_F^2, for identities
INEQ_TOL = 1e-9  # relative to |A|_F^2, slack for one-sided bounds


def fsum_sq(a: np.ndarray) -> float:
    return math.fsum((a * a).ravel().tolist())


class MatrixRef:
    """What the checks need to know about a stream matrix A."""

    def __init__(self, a: np.ndarray, k: int):
        self.a = a
        self.n, self.d = a.shape
        self.k = k
        self.frob = fsum_sq(a)
        s = np.linalg.svd(a, compute_uv=False)
        # |A - A_k|_F^2, the optimum the relative-error bounds compare with
        self.tail = math.fsum((s[k:] ** 2).tolist())


def parse_sketch(blob: bytes) -> dict:
    if len(blob) < SKETCH_HEADER.size:
        raise ValueError("truncated sketch header")
    magic, version, k, ell, m, d, rows, eps, delta, frob = SKETCH_HEADER.unpack_from(blob)
    if magic != SKETCH_MAGIC or version != 1:
        raise ValueError(f"not a version-1 sketch file: {magic!r} v{version}")
    if len(blob) != SKETCH_HEADER.size + 8 * m * d:
        raise ValueError("sketch body size does not match its header")
    body = np.frombuffer(blob, dtype="<f8", offset=SKETCH_HEADER.size).reshape(m, d)
    return {"k": k, "ell": ell, "m": m, "d": d, "rows_seen": rows, "eps": eps,
            "delta": delta, "frob": frob, "body": body.astype(np.float64)}


def shrink(body: np.ndarray, ell: int) -> tuple[np.ndarray, float]:
    """One shrink step: subtract the ell-th squared singular value."""
    _, s, vt = np.linalg.svd(body, full_matrices=False)
    sq = s * s
    delta = float(sq[ell - 1]) if s.size >= ell else 0.0
    kept = min(ell, s.size)
    q = np.zeros((ell, body.shape[1]))
    q[:kept] = np.sqrt(np.maximum(sq[:kept] - delta, 0.0))[:, None] * vt[:kept]
    return q, delta


def gram_gap_eigs(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Eigenvalues of A^T A - Q^T Q.

    When A and Q together have fewer rows than columns, the difference lives
    in their joint row space, so it is evaluated on an orthonormal basis of
    that space; the eigenvalues left out are exactly 0.
    """
    if a.shape[0] + q.shape[0] < a.shape[1]:
        basis, _ = np.linalg.qr(np.vstack([a, q]).T)
        a, q = a @ basis, q @ basis
    g = a.T @ a - q.T @ q
    return np.linalg.eigvalsh(0.5 * (g + g.T))


def check_sketch(ref: MatrixRef, *, eps: float, ell: int, window_rows: int,
                 rows_seen: int, frob: float, q: np.ndarray, delta: float):
    """The sketch guarantees for a flushed ell-row sketch ``q`` of ``ref.a``.

    ``window_rows`` is the widest buffer that fed the sketch: at ``ell`` the
    lost mass must equal ``ell * delta``; above it, it must lie in
    ``[ell * delta, window_rows * delta]``.
    """
    fails = []
    f = ref.frob
    slack = INEQ_TOL * f
    if rows_seen != ref.n:
        fails.append(f"rows_seen {rows_seen} != stream rows {ref.n}")
    if abs(frob - f) > IDENTITY_TOL * f:
        fails.append(f"input_frob_sq {frob!r} != fsum(A^2) {f!r}")
    w = gram_gap_eigs(ref.a, q)
    if w[0] < -slack:
        fails.append(f"A^T A - Q^T Q has eigenvalue {w[0]!r} < 0")
    if w[-1] > f / ell + slack:
        fails.append(f"A^T A - Q^T Q has eigenvalue {w[-1]!r} > |A|^2/ell")
    lost = f - fsum_sq(q)
    tol = IDENTITY_TOL * f
    if window_rows == ell:
        if abs(lost - ell * delta) > tol:
            fails.append(f"lost mass {lost!r} != ell*delta {ell * delta!r}")
    elif not ell * delta - tol <= lost <= window_rows * delta + tol:
        fails.append(f"lost mass {lost!r} outside [ell, m]*delta, delta={delta!r}")
    _, sq, vt = np.linalg.svd(q, full_matrices=False)
    vk = vt[: ref.k].T
    resid = ref.a - (ref.a @ vk) @ vk.T
    proj = fsum_sq(resid)
    if proj > (1.0 + eps) * ref.tail + slack:
        fails.append(f"projection error {proj!r} > (1+eps)*{ref.tail!r}")
    top = f - math.fsum((sq[: ref.k] ** 2).tolist())
    if not ref.tail - slack <= top <= (1.0 + eps) * ref.tail + slack:
        fails.append(f"|A|^2 - |Q_k|^2 = {top!r} outside [1, 1+eps]*{ref.tail!r}")
    ratio = proj / ref.tail if ref.tail > 0.0 else 1.0
    return fails, {"lost_mass_rel": lost / f, "proj_err_ratio": ratio}


def check_sketch_file(ref: MatrixRef, blob: bytes, *, k: int, eps: float, ell: int):
    """Parse an ``FDSK`` file, finish its pending shrink, check it."""
    try:
        rec = parse_sketch(blob)
    except ValueError as exc:
        return [str(exc)], {}
    geometry = (rec["k"], rec["ell"], rec["d"], rec["eps"])
    if geometry != (k, ell, ref.d, eps):
        return [f"header (k, ell, d, eps) = {geometry}"], {}
    body, delta = rec["body"], rec["delta"]
    # a buffer wider than ell may hold rows appended since its last shrink;
    # the format marks no boundary, so a reader shrinks it once more (a no-op
    # on an already shrunk buffer, whose ell-th value is 0)
    if rec["m"] > ell and body.any():
        q, extra = shrink(body, ell)
        delta += extra
    else:
        q = body[:ell]
    return check_sketch(ref, eps=eps, ell=ell, window_rows=rec["m"],
                        rows_seen=rec["rows_seen"], frob=rec["frob"], q=q, delta=delta)


def check_verify(code: int, report: dict | None):
    if code != 0 or report is None or report.get("all_pass") is not True:
        return [f"verify exited {code} with all_pass="
                f"{None if report is None else report.get('all_pass')}"]
    return []


class ItemsRef:
    """Exact counts of an item stream."""

    def __init__(self, items: list[int]):
        self.n = len(items)
        self.counts = Counter(items)


def check_hh(ref: ItemsRef, out: dict, *, ell: int, k: int):
    """Misra-Gries guarantees for a summary ``{"n", "decrements", "items"}``.

    Read as a matrix of one-hot rows, the stream has |A|_F^2 = n and the
    summary is a sketch Q with |Q|_F^2 = sum of estimates, so the reported
    quality figures have the same meaning as for the matrix workloads.
    """
    fails = []
    n, counts = ref.n, ref.counts
    dec = out["decrements"]
    est = {e["item"]: e["estimate"] for e in out["items"]}
    if out["n"] != n:
        fails.append(f"n {out['n']} != stream items {n}")
    if dec * (ell + 1) > n:
        fails.append(f"decrements {dec} * (ell + 1) > n {n}")
    # each decrement round drops ell counter units and the arriving item
    if n - sum(est.values()) != (ell + 1) * dec:
        fails.append(f"lost count {n - sum(est.values())} != (ell + 1) * decrements {dec}")
    if len(est) > ell:
        fails.append(f"{len(est)} labels reported, capacity {ell}")
    for label, e in est.items():
        if not 0 <= counts.get(label, 0) - e <= dec:
            fails.append(f"label {label}: estimate {e}, true {counts.get(label, 0)}")
    for label, c in counts.items():
        if c * (ell + 1) > n and label not in est:
            fails.append(f"label {label} with count {c} > n/(ell+1) not reported")
    top_est = sorted(est, key=lambda lab: (-est[lab], lab))[:k]
    tail = n - sum(c for _, c in counts.most_common(k))
    proj = n - sum(counts.get(lab, 0) for lab in top_est)
    ratio = proj / tail if tail > 0 else 1.0
    return fails, {"lost_mass_rel": (n - sum(est.values())) / n, "proj_err_ratio": ratio}
