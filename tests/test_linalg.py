from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from fdsketch.linalg import (
    QR_PANEL_ROWS,
    GapRange,
    SvdError,
    SvdFactors,
    as_matrix,
    best_rank_k,
    directional_norm_gap,
    frob_sq,
    project_rowspace,
    qr_rows_inplace,
    svd_thin,
)
from oracles import (
    gram_svd,
    jacobi_eigh,
    project_rows_oracle,
    rank_k_oracle,
    reconstruct,
    removed_row_residuals,
    validate_factors,
)

# make sure the oracle itself is trustworthy before using it anywhere


def test_oracle_jacobi_recovers_known_spectrum():
    # eigenvalues of [[2,1],[1,2]] are 3 and 1 with (1,1)/(1,-1) directions
    w, v = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(w, [3.0, 1.0], atol=1e-12)
    assert_allclose(np.abs(v[:, 0]), [np.sqrt(0.5)] * 2, atol=1e-12)


def test_oracle_jacobi_diagonalizes_random_symmetric():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(7, 7))
    sym = m + m.T
    w, v = jacobi_eigh(sym)
    assert_allclose(v @ np.diag(w) @ v.T, sym, atol=1e-10)
    assert_allclose(v.T @ v, np.eye(7), atol=1e-10)
    assert np.all(np.diff(w) <= 1e-12)


def test_oracle_gram_svd_reconstructs():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 5))
    u, s, v = gram_svd(a)
    assert_allclose((u * s) @ v.T, a, atol=1e-8)


def test_svd_thin_matches_gram_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 5))
    f = svd_thin(a)
    _, s_oracle, _ = gram_svd(a)
    assert_allclose(f.s[: s_oracle.size], s_oracle, rtol=1e-6)
    validate_factors(f, a)


def test_svd_thin_diagonal_input():
    a = np.diag([3.0, 2.0, 1.0])
    f = svd_thin(a)
    assert_allclose(f.s, [3.0, 2.0, 1.0], atol=1e-12)
    assert_allclose(reconstruct(f), a, atol=1e-12)


def test_svd_thin_single_entry():
    f = svd_thin(np.array([[2.0]]))
    assert_allclose(f.s, [2.0])
    assert_allclose(np.abs(f.u), [[1.0]])


def test_svd_thin_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        svd_thin(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        svd_thin(np.array([[np.inf, 0.0]]))


def test_svd_thin_raises_svd_error_when_lapack_does_not_converge(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(SvdError, match="did not converge") as info:
        svd_thin(np.array([[3.0, 0.0], [0.0, 4.0]]))
    # the input's Frobenius norm
    assert info.value.residual_norm == 5.0
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_as_matrix_promotes_vectors():
    assert as_matrix([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ValueError, match="2-dimensional"):
        as_matrix(np.zeros((2, 2, 2)))


def test_validate_factors_catches_broken_orthogonality():
    a = np.diag([3.0, 2.0])
    f = svd_thin(a)
    broken = SvdFactors(u=f.u * 1.5, s=f.s, v=f.v)
    with pytest.raises(AssertionError):
        validate_factors(broken, a)


def test_best_rank_zero_is_zero_matrix():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 3))
    assert_allclose(best_rank_k(a, 0), np.zeros_like(a))


def test_best_rank_k_full_rank_reproduces_input():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 4))
    assert_allclose(best_rank_k(a, 4), a, atol=1e-10)
    assert_allclose(best_rank_k(a, 99), a, atol=1e-10)


def test_best_rank_k_matches_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 5))
    for k in (1, 2, 3):
        assert_allclose(best_rank_k(a, k), rank_k_oracle(a, k), atol=1e-7)


def test_best_rank_k_negative_k_rejected():
    with pytest.raises(ValueError):
        best_rank_k(np.eye(2), -1)


def test_best_rank_k_beats_every_sampled_rowspace():
    # optimality sampling: no random rank-k row space projects better
    rng = np.random.default_rng(4)
    a = rng.normal(size=(12, 7))
    k = 3
    best_err = frob_sq(a - best_rank_k(a, k))
    for _ in range(50):
        basis = rng.normal(size=(k, 7))
        err = frob_sq(a - project_rowspace(a, basis))
        assert best_err <= err + 1e-9


def test_project_rowspace_matches_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 5))
    x = rng.normal(size=(2, 5))
    assert_allclose(project_rowspace(a, x), project_rows_oracle(a, x), atol=1e-8)


def test_project_rowspace_onto_self_is_identity():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 6))
    assert_allclose(project_rowspace(a, a), a, atol=1e-10)


def test_project_rowspace_zero_basis_gives_zero():
    a = np.ones((2, 3))
    assert_allclose(project_rowspace(a, np.zeros((2, 3))), np.zeros((2, 3)))


def test_project_rowspace_near_dependent_rows_stay_finite():
    # pseudoinverse cutoff keeps nearly repeated rows from blowing up
    base = np.array([1.0, 2.0, 3.0])
    x = np.vstack([base, base + 1e-14])
    a = np.vstack([base * 2, [0.0, 0.0, 1.0]])
    out = project_rowspace(a, x)
    assert np.isfinite(out).all()
    assert_allclose(out[0], base * 2, atol=1e-8)


def test_project_rowspace_dimension_mismatch():
    with pytest.raises(ValueError, match="column mismatch"):
        project_rowspace(np.ones((2, 3)), np.ones((2, 4)))


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        elements=st.floats(-100, 100),
    ),
    st.integers(0, 2**31 - 1),
)
def test_projection_is_orthogonal_split(a, seed):
    # Pythagoras: mass of a = mass in the subspace + mass outside it
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, a.shape[1]))
    p = project_rowspace(a, x)
    lhs = frob_sq(a)
    rhs = frob_sq(p) + frob_sq(a - p)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)
    # idempotent up to round-off
    assert_allclose(project_rowspace(p, x), p, atol=1e-8 * max(1.0, np.abs(p).max()))


def test_directional_gap_identical_inputs_is_zero():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 4))
    g = directional_norm_gap(a, a.copy())
    assert abs(g.max_gap) < 1e-10
    assert abs(g.min_gap) < 1e-10


def test_directional_gap_hand_value():
    a = np.eye(2)
    q = np.array([[1.0, 0.0]])
    g = directional_norm_gap(a, q)
    assert_allclose([g.max_gap, g.min_gap], [1.0, 0.0], atol=1e-12)


def test_directional_gap_bounds_sampled_directions():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(9, 5))
    q = rng.normal(size=(3, 5))
    g = directional_norm_gap(a, q)
    assert isinstance(g, GapRange)
    for _ in range(200):
        x = rng.normal(size=5)
        x /= np.sqrt(x @ x)
        gap = frob_sq(a @ x) - frob_sq(q @ x)
        assert g.min_gap - 1e-9 <= gap <= g.max_gap + 1e-9


def test_directional_gap_column_mismatch():
    with pytest.raises(ValueError, match="column mismatch"):
        directional_norm_gap(np.ones((2, 3)), np.ones((2, 4)))


def test_frob_sq_known_value():
    assert frob_sq(np.array([[3.0, 4.0]])) == 25.0


def test_removed_row_oracle_consistency():
    # the enumeration oracle agrees with a direct one-off computation
    rng = np.random.default_rng(9)
    q = rng.normal(size=(3, 5))
    vals = removed_row_residuals(q)
    j = 1
    rest = np.delete(q, j, axis=0)
    direct = frob_sq(q - project_rows_oracle(q, rest))
    assert_allclose(vals[j], direct, atol=1e-10)


# -- the in-place Householder QR of the row route -------------------------------


def _qr_r(m):
    """R of ``m.T`` from ``qr_rows_inplace`` on a copy, and its tau."""
    work = np.array(m)
    tau = qr_rows_inplace(work)
    return np.triu(work[:, : m.shape[0]].T), tau


def _assert_gram_backward_stable(m, r):
    # R^T R = M M^T up to the Householder backward error O(d * 2^-52 * |M|_F^2)
    bound = 8 * m.shape[1] * 2.0**-52 * frob_sq(m)
    assert np.abs(r.T @ r - m @ m.T).max() <= bound


def test_qr_rows_inplace_matches_lapack_r():
    rng = np.random.default_rng(30)
    m = rng.normal(size=(200, 300))
    r, _ = _qr_r(m)
    want = np.linalg.qr(m.T, mode="r")
    # each column of R has the norm of its row of M; signs are LAPACK's choice
    scale = np.linalg.norm(m, axis=1)
    assert np.all(np.abs(np.abs(r) - np.abs(want)) <= 1e-12 * scale)


@pytest.mark.parametrize("p, d", [(1, 300), (63, 300), (64, 300), (65, 300), (200, 300), (150, 150)])
def test_qr_rows_inplace_is_backward_stable(p, d):
    m = np.random.default_rng(31 + p).normal(size=(p, d))
    r, tau = _qr_r(m)
    assert r.shape == (p, p) and tau.shape == (p,)
    _assert_gram_backward_stable(m, r)


def _hard_stacks():
    rng = np.random.default_rng(32)
    a = rng.normal(size=(150, 400))
    with_zeros = a.copy()
    with_zeros[[0, 5, QR_PANEL_ROWS - 1, QR_PANEL_ROWS, 100]] = 0.0
    with_copies = np.concatenate([a[:70], a[:70], a[140:]])
    # Q's rows in A's span, as a sketch's rows are up to its shrinkage
    in_span = np.concatenate([a[:120], rng.normal(size=(30, 120)) @ a[:120]])
    spread = a * np.logspace(-4.0, 4.0, a.shape[0])[:, None]
    return {
        "zero rows": with_zeros,
        "duplicate rows": with_copies,
        "Q rows in A's span": in_span,
        "row norms over 8 decades": spread,
        "|M|_F^2 near 1e300": a * np.sqrt(1e300 / frob_sq(a)),
        "|M|_F^2 near 1e-300": a * np.sqrt(1e-300 / frob_sq(a)),
    }


@pytest.mark.parametrize("name", list(_hard_stacks()))
def test_qr_rows_inplace_is_backward_stable_on_hard_stacks(name):
    m = _hard_stacks()[name]
    r, tau = _qr_r(m)
    assert np.isfinite(r).all()
    _assert_gram_backward_stable(m, r)
    if name == "zero rows":
        # a zero row gives a tau = 0 reflector, inside panels and at their edges
        assert (tau == 0.0).sum() >= 5


def test_qr_rows_inplace_rejects_more_rows_than_columns():
    with pytest.raises(ValueError, match="p <= d"):
        qr_rows_inplace(np.ones((3, 2)))
