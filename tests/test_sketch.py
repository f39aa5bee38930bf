import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

import fdsketch.bounds as fbounds
import fdsketch.sketch as fsk
from fdsketch.linalg import directional_norm_gap, frob_sq
from fdsketch.sketch import (
    FdParams,
    FdSketch,
    error_report,
    sketch_rows_for,
)
from oracles import exact_frob_sq, fd_lapack_oracle, report_oracle


def test_sketch_rows_examples():
    assert sketch_rows_for(1, 1.0) == 2
    assert sketch_rows_for(2, 0.5) == 6
    assert sketch_rows_for(2, 1.0) == 4
    assert sketch_rows_for(1, 0.1) == 11
    assert sketch_rows_for(5, 0.25) == 25


def test_sketch_rows_guards_float_noise():
    # 3 / 0.3 lands a hair above 10.0 in binary; the ceiling must not jump to 14
    assert sketch_rows_for(3, 0.3) == 13


def test_sketch_rows_stays_above_k():
    # bounds divide by ell - k, so even absurd eps keeps one spare row
    assert sketch_rows_for(4, 1e9) >= 5
    with pytest.raises(ValueError):
        sketch_rows_for(0, 0.5)
    with pytest.raises(ValueError):
        sketch_rows_for(1, 0.0)
    with pytest.raises(ValueError):
        sketch_rows_for(1, -1.0)


def test_sketch_rows_rejects_a_k_past_the_float_range():
    # k / eps raises OverflowError before any ceiling is taken
    with pytest.raises(ValueError, match="overflows"):
        sketch_rows_for(10**400, 0.5)


def test_shrink_rule_cuts_the_ell_th_square_to_exact_zero():
    sq = np.array([9.0, 4.0, 4.0, 1.0, 0.0])
    delta, kept = fsk._shrink(sq, 2)
    assert (delta, kept.tolist()) == (4.0, [5.0])
    delta, kept = fsk._shrink(sq, 4)
    assert (delta, kept.tolist()) == (1.0, [8.0, 3.0, 3.0])
    # fewer squares than ell: no shrink, and the zero squares are not kept
    delta, kept = fsk._shrink(sq, 6)
    assert (delta, kept.tolist()) == (0.0, [9.0, 4.0, 4.0, 1.0])


def test_lost_mass_window():
    outside = fbounds._lost_mass_outside
    # ell = 2, m = 4, Delta = 1: the window is [2, 4]
    assert [outside(lost, 1.0, 2, 4) for lost in (1.5, 2.0, 3.0, 4.0, 4.25)] == [
        0.5, 0.0, 0.0, 0.0, 0.25]
    # at m == ell, the identity's residual on either side
    assert (outside(1.5, 1.0, 2, 2), outside(2.5, 1.0, 2, 2)) == (0.5, 0.5)


def test_params_batched_buffer():
    p = FdParams.create(3, 0.3, d=20, batch_factor=2.0)
    assert (p.ell, p.buffer_rows) == (13, 26)
    p1 = FdParams.create(2, 0.5, d=8)
    assert p1.buffer_rows == p1.ell == 6
    with pytest.raises(ValueError, match="batch_factor"):
        FdParams.create(2, 0.5, d=8, batch_factor=0.5)
    with pytest.raises(ValueError, match="d must be"):
        FdParams.create(2, 0.5, d=0)


def test_wide_sketch_warns():
    with pytest.warns(UserWarning, match="exceed dimension"):
        FdSketch(k=3, eps=0.5, d=2)


def test_append_validates_rows():
    s = FdSketch(k=1, eps=1.0, d=3)
    with pytest.raises(ValueError, match="expected 3"):
        s.append([1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        s.append([1.0, np.nan, 0.0])
    assert s.rows_seen == 0


# complex entries would be cast to their real parts with only a warning:
# |A|_F^2 is 24, but the real parts carry 18
_COMPLEX_ROWS = np.array([[1 + 2j, 3, 0, 0, 0], [0, 1j, 0, 0, 2], [1, 1, 1, 1, 1j]])


@pytest.mark.parametrize("feed", ["extend", "append", "rows", "list"])
def test_complex_rows_are_rejected_before_counting(feed):
    s = FdSketch(k=1, eps=0.5, d=5)
    s.append(np.ones(5))
    before = (s.rows_seen, s.input_frob_sq, s.query().copy())
    with pytest.raises(ValueError, match="complex"):
        if feed == "extend":
            s.extend(_COMPLEX_ROWS)
        elif feed == "append":
            s.append(_COMPLEX_ROWS[0])
        elif feed == "rows":
            s.extend(list(_COMPLEX_ROWS))
        else:
            s.append([1, 2, 3, 4, 1j])
    assert (s.rows_seen, s.input_frob_sq) == before[:2]
    assert_array_equal(s.query(), before[2])


@pytest.mark.parametrize("rows", [np.ones((2, 3, 4)), np.ones((1, 1, 12)), np.ones(12)])
def test_extend_rejects_rows_that_are_not_1d(rows):
    # each row of a 3-D array is 2-D, each row of a 1-D array a scalar; none
    # is flattened into a row of 12 entries
    s = FdSketch(k=1, eps=0.5, d=12)
    with pytest.raises(ValueError, match="1-D"):
        s.extend(rows)
    assert s.rows_seen == 0
    assert s.input_frob_sq == 0.0


@pytest.mark.parametrize("row", [np.ones((3, 4)), np.ones((1, 12)), 1.0])
def test_append_rejects_a_row_that_is_not_1d(row):
    s = FdSketch(k=1, eps=0.5, d=12)
    with pytest.raises(ValueError, match="1-D"):
        s.append(row)
    assert s.rows_seen == 0


@pytest.mark.parametrize("blocks", [
    _COMPLEX_ROWS,
    iter([_COMPLEX_ROWS.real, _COMPLEX_ROWS]),
    iter(list(_COMPLEX_ROWS)),
])
def test_report_rejects_complex_blocks(blocks):
    s = FdSketch(k=1, eps=0.5, d=5)
    s.extend(_COMPLEX_ROWS.real)
    with pytest.raises(ValueError, match="complex"):
        error_report(blocks, s)


@pytest.mark.parametrize("block", [np.ones((2, 3, 4)), np.float64(1.0)])
def test_report_rejects_blocks_of_other_dimensions(block):
    s = FdSketch(k=1, eps=0.5, d=12)
    with pytest.raises(ValueError, match="2-dimensional"):
        error_report(iter([np.ones((1, 12)), block]), s)


def test_append_rejects_overflowing_norm_before_counting():
    s = FdSketch(k=1, eps=1.0, d=5)
    s.append(np.ones(5))
    with pytest.raises(ValueError, match="squared norm"):
        s.append(np.full(5, 1e200))
    assert s.rows_seen == 1
    assert s.input_frob_sq == 5.0
    # a finite squared norm whose running total would overflow is refused too
    big = np.zeros(5)
    big[0] = 1e154
    s.append(big)
    with pytest.raises(ValueError, match="squared norm"):
        s.append(big)
    assert s.rows_seen == 2
    assert s.input_frob_sq == 5.0 + 1e308
    s.append(np.arange(5.0))
    assert s.rows_seen == 3
    assert np.isfinite(s.query()).all()


def test_zero_rows_only_bump_bookkeeping():
    s = FdSketch(k=1, eps=1.0, d=2)
    s.append([3.0, 4.0])
    before = s.query().copy()
    s.append([0.0, 0.0])
    assert s.rows_seen == 2
    assert s.input_frob_sq == 25.0
    assert_array_equal(s.query(), before)


def test_single_row_is_kept_exactly():
    s = FdSketch(k=1, eps=1.0, d=3)
    s.append([3.0, 0.0, 4.0])
    q = s.query()
    assert_allclose(np.abs(q[0]), [3.0, 0.0, 4.0], atol=1e-12)
    assert_allclose(q[1], 0.0)
    assert s.delta_sum == 0.0


def test_hand_trace_repeated_then_orthogonal():
    # two aligned unit rows merge into one row of norm sqrt(2); the orthogonal
    # third row forces a shrink step of exactly 1
    s = FdSketch(k=1, eps=1.0, d=2)
    s.append([1.0, 0.0])
    s.append([1.0, 0.0])
    mid = s.query()
    assert_allclose(np.abs(mid[0]), [math.sqrt(2.0), 0.0], atol=1e-12)
    assert s.delta_sum == 0.0
    s.append([0.0, 1.0])
    q = s.query()
    assert_allclose(s.delta_sum, 1.0, atol=1e-12)
    assert_allclose(np.abs(q[0]), [1.0, 0.0], atol=1e-9)
    assert_allclose(q[1], [0.0, 0.0], atol=1e-12)
    assert_allclose(s.input_frob_sq - frob_sq(q), s.ell * s.delta_sum, atol=1e-12)


def test_hand_trace_alternating_order_same_invariants():
    s = FdSketch(k=1, eps=1.0, d=2)
    s.extend([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    q = s.query()
    assert_allclose(s.delta_sum, 1.0, atol=1e-12)
    assert_allclose(np.abs(q[0]), [1.0, 0.0], atol=1e-9)
    assert_allclose(s.input_frob_sq - frob_sq(q), s.ell * s.delta_sum, atol=1e-12)


def test_low_rank_stream_is_recovered_exactly():
    rng = np.random.default_rng(0)
    direction = rng.normal(size=4)
    direction /= math.sqrt(direction @ direction)
    rows = np.outer(rng.normal(size=30), direction)
    s = FdSketch(k=1, eps=0.5, d=4)
    s.extend(rows)
    # noise singular values of a numerically rank-1 buffer square to ~1e-31
    assert s.delta_sum <= 1e-18 * s.input_frob_sq
    rep = error_report(rows, s)
    assert rep.proj_err_ratio == 1.0
    assert rep.max_dir_gap <= 1e-9 * rep.frob_a_sq
    assert rep.all_ok


def test_every_compression_obeys_shrink_bound():
    # instrumented run: each rewrite loses at most delta in any direction and
    # never gains mass, and at least one spare zero row reappears
    records = []

    def hook(before, after, delta):
        records.append((before, after, delta))

    s = FdSketch(k=2, eps=0.5, d=7, batch_factor=1.7, compress_hook=hook)
    rng = np.random.default_rng(1)
    s.extend(rng.normal(size=(57, 7)))
    s.flush()
    assert records
    for before, after, delta in records:
        g = directional_norm_gap(before, after)
        scale = 1e-9 * max(1.0, frob_sq(before))
        assert delta >= 0.0
        assert g.max_gap <= delta + scale
        assert g.min_gap >= -scale
        assert np.count_nonzero(np.any(after != 0.0, axis=1)) <= s.ell - 1


def _ill_scaled(rng, n, d, spectrum_decades, norm_decades):
    """Covariance spectrum over ``spectrum_decades`` in a random basis, row
    norms spread evenly over ``norm_decades`` (the benchmark's shard-merge
    stream at 6 and 4)."""
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rows = (rng.standard_normal((n, d)) * np.logspace(0.0, -spectrum_decades, d)) @ rotation.T
    half = norm_decades / 2.0
    norms = 10.0 ** rng.permutation(np.linspace(-half, half, n))
    return rows * (norms / np.linalg.norm(rows, axis=1))[:, None]


def _count_fallbacks(monkeypatch) -> list:
    """Record every LAPACK fallback of the shrink kernel."""
    calls = []
    real = fsk.svd_thin

    def counted(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(fsk, "svd_thin", counted)
    return calls


@pytest.mark.parametrize("decades", [(6, 4), (12, 12)])
@pytest.mark.parametrize("batch_factor", [1.0, 2.0])
def test_ill_scaled_streams_keep_every_bound(monkeypatch, decades, batch_factor):
    fallbacks = _count_fallbacks(monkeypatch)
    rows = _ill_scaled(np.random.default_rng(15), 120, 300, *decades)
    steps = []

    def hook(before, after, delta):
        g = directional_norm_gap(before, after)
        scale = 1e-9 * max(1.0, frob_sq(before))
        steps.append(
            delta >= 0.0
            and g.max_gap <= delta + scale
            and g.min_gap >= -scale
            and np.count_nonzero(np.any(after != 0.0, axis=1)) <= s.ell - 1
        )

    s = FdSketch(k=10, eps=0.5, d=300, batch_factor=batch_factor, compress_hook=hook)
    s.extend(rows)
    rep = error_report(rows, s)
    assert steps and all(steps)
    assert rep.all_ok
    # twelve decades take some buffers past the Gram route's cutoff
    assert fallbacks or decades == (6, 4)


@pytest.mark.parametrize("batch_factor", [1.0, 2.0])
def test_gram_kernel_matches_lapack_oracle(monkeypatch, batch_factor):
    # well conditioned and wider than the buffer: the Gram route runs at
    # every shrink, so this compares it, not the fallback, with LAPACK
    fallbacks = _count_fallbacks(monkeypatch)
    rng = np.random.default_rng(16)
    basis = rng.normal(size=(10, 200))
    rows = rng.normal(size=(150, 10)) @ basis + 0.1 * rng.normal(size=(150, 200))
    s = FdSketch(k=5, eps=0.5, d=200, batch_factor=batch_factor)
    s.extend(rows)
    q = s.query()
    assert fallbacks == []
    q_ref, delta_ref = fd_lapack_oracle(rows, s.ell, s.buffer_rows)
    tol = 1e-10 * frob_sq(rows)
    assert np.linalg.norm(q.T @ q - q_ref.T @ q_ref) <= tol
    assert abs(s.delta_sum - delta_ref) <= tol


def test_rank_deficient_and_tall_buffers_fall_back_to_lapack(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = np.random.default_rng(17)
    rank3 = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 20))
    s = FdSketch(k=2, eps=0.5, d=20)
    s.extend(rank3)
    s.flush()
    assert fallbacks
    assert error_report(rank3, s).all_ok
    # a full buffer of 12 rows is at least as tall as its width 8
    fallbacks.clear()
    square = rng.normal(size=(40, 8))
    s = FdSketch(k=2, eps=0.5, d=8, batch_factor=2.0)
    s.extend(square)
    s.flush()
    assert fallbacks and set(fallbacks) == {s.buffer_rows}
    assert error_report(square, s).all_ok


def test_streaming_invariants_hold_at_every_prefix():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(40, 6))
    s = FdSketch(k=1, eps=0.5, d=6)
    fine = []
    for i in range(rows.shape[0]):
        s.append(rows[i])
        prefix = rows[: i + 1]
        g = directional_norm_gap(prefix, s.query())
        fp = frob_sq(prefix)
        fine.append(
            g.min_gap >= -1e-9 * fp
            and g.max_gap <= s.delta_sum + 1e-9 * fp
            and s.delta_sum <= fp / s.ell + 1e-9 * fp
        )
    assert all(fine)


def test_mass_identity_tracks_every_prefix():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(35, 5))
    s = FdSketch(k=2, eps=1.0, d=5)
    for i in range(rows.shape[0]):
        s.append(rows[i])
        fa = exact_frob_sq(rows[: i + 1])
        residual = abs(fa - frob_sq(s.query()) - s.ell * s.delta_sum)
        assert residual <= 1e-8 * max(fa, 1.0)


def test_delta_never_decreases():
    deltas = []
    s = FdSketch(k=1, eps=0.5, d=4, compress_hook=lambda b, a, d: deltas.append(d))
    rng = np.random.default_rng(4)
    s.extend(rng.normal(size=(25, 4)))
    running = np.cumsum(deltas)
    assert np.all(np.diff(running) >= 0.0)
    assert_allclose(running[-1], s.delta_sum, rtol=1e-12)


def test_batched_variant_brackets_lost_mass():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(64, 8))
    s = FdSketch(k=2, eps=1.0, d=8, batch_factor=2.0)
    assert (s.ell, s.buffer_rows) == (4, 8)
    s.extend(rows)
    rep = error_report(rows, s)
    lost = rep.frob_a_sq - rep.frob_q_sq
    slack = 1e-9 * rep.frob_a_sq
    assert s.ell * s.delta_sum <= lost + slack
    assert lost <= s.buffer_rows * s.delta_sum + slack
    assert rep.all_ok


def test_batched_matches_per_row_guarantees():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(50, 6))
    for c in (1.0, 2.0, 3.5):
        s = FdSketch(k=2, eps=0.5, d=6, batch_factor=c)
        s.extend(rows)
        assert error_report(rows, s).all_ok


def test_query_is_idempotent_and_sorted():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(23, 8))
    s = FdSketch(k=2, eps=0.5, d=8, batch_factor=2.0)
    s.extend(rows)
    q1 = s.query()
    q2 = s.query()
    assert q1.tobytes() == q2.tobytes()
    assert s.rows_seen == 23
    norms = (q1**2).sum(axis=1)
    assert np.all(np.diff(norms) <= 1e-12)
    assert_array_equal(s.query_topk(), q1[: s.k])
    assert q1.shape == (s.ell, 8)


def test_replays_are_bit_identical():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(37, 5))
    for c in (1.0, 2.5):
        a = FdSketch(k=1, eps=0.5, d=5, batch_factor=c)
        b = FdSketch(k=1, eps=0.5, d=5, batch_factor=c)
        a.extend(rows)
        b.extend(rows)
        assert a.query().tobytes() == b.query().tobytes()
        assert a.delta_sum == b.delta_sum
        assert a.input_frob_sq == b.input_frob_sq


def test_shuffled_stream_keeps_guarantees():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(30, 4))
    shuffled = rows[rng.permutation(30)]
    s = FdSketch(k=1, eps=0.5, d=4)
    s.extend(shuffled)
    # report against the unshuffled matrix: directional bounds only depend on
    # the multiset of rows
    assert error_report(rows, s).all_ok


@pytest.mark.filterwarnings("ignore:sketch rows")
def test_frob_accumulator_survives_magnitude_swings():
    s = FdSketch(k=1, eps=1.0, d=1)
    s.append([1e8])
    for _ in range(1000):
        s.append([1e-4])
    expected = 1e16 + 1000 * 1e-8
    assert abs(s.input_frob_sq - expected) <= 1e-12 * expected


def test_copy_is_independent():
    s = FdSketch(k=1, eps=1.0, d=3)
    s.extend(np.eye(3))
    dup = s.copy()
    dup.append([5.0, 0.0, 0.0])
    assert s.rows_seen == 3
    assert dup.rows_seen == 4
    assert not np.array_equal(s.query(), dup.query())


@pytest.mark.filterwarnings("ignore:sketch rows")
def test_merge_requires_matching_geometry():
    a = FdSketch(k=1, eps=0.5, d=4)
    b = FdSketch(k=2, eps=0.5, d=4)
    with pytest.raises(ValueError, match="cannot merge"):
        a.merge(b)
    c = FdSketch(k=1, eps=0.5, d=5)
    with pytest.raises(ValueError, match="cannot merge"):
        a.merge(c)


def test_merge_with_empty_is_identity():
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(20, 4))
    s = FdSketch(k=1, eps=0.5, d=4)
    s.extend(rows)
    s.flush()
    empty = FdSketch(k=1, eps=0.5, d=4)
    merged = s.merge(empty)
    assert_array_equal(merged.query(), s.query())
    assert merged.rows_seen == 20
    assert merged.delta_sum == s.delta_sum


def test_merge_keeps_inputs_untouched():
    rng = np.random.default_rng(11)
    a = FdSketch(k=1, eps=0.5, d=4)
    b = FdSketch(k=1, eps=0.5, d=4)
    a.extend(rng.normal(size=(15, 4)))
    b.extend(rng.normal(size=(9, 4)))
    a.flush()
    b.flush()
    a_buf, b_buf = a._buf.copy(), b._buf.copy()
    a.merge(b)
    assert_array_equal(a._buf, a_buf)
    assert_array_equal(b._buf, b_buf)


def test_merge_bookkeeping_and_guarantees():
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(60, 8))
    half = 30
    s1 = FdSketch(k=2, eps=0.5, d=8)
    s2 = FdSketch(k=2, eps=0.5, d=8)
    s1.extend(rows[:half])
    s2.extend(rows[half:])
    merged = s1.merge(s2)
    assert merged.rows_seen == 60
    assert_allclose(merged.input_frob_sq, exact_frob_sq(rows), rtol=1e-12)
    # re-inserting rows can only add shrinkage on top of the two parts
    assert merged.delta_sum >= s1.delta_sum + s2.delta_sum - 1e-12
    rep = error_report(rows, merged)
    assert rep.all_ok
    # mirror order merges to a possibly different state with the same promises
    assert error_report(rows, s2.merge(s1)).all_ok


def test_merge_rejects_overflowing_input_mass():
    a = FdSketch(k=1, eps=1.0, d=2)
    b = FdSketch(k=1, eps=1.0, d=2)
    a.append([1e154, 0.0])
    b.append([0.0, 1e154])
    with pytest.raises(ValueError, match="overflows"):
        a.merge(b)
    assert (a.rows_seen, b.rows_seen) == (1, 1)
    assert a.input_frob_sq == b.input_frob_sq == 1e308


def test_merge_tree_of_four_shards():
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(80, 6))
    shards = []
    for part in np.split(rows, 4):
        s = FdSketch(k=1, eps=0.5, d=6)
        s.extend(part)
        shards.append(s)
    merged = shards[0].merge(shards[1]).merge(shards[2].merge(shards[3]))
    assert merged.rows_seen == 80
    assert error_report(rows, merged).all_ok


def test_merge_tolerates_different_batch_factors():
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(40, 5))
    s1 = FdSketch(k=1, eps=0.5, d=5, batch_factor=1.0)
    s2 = FdSketch(k=1, eps=0.5, d=5, batch_factor=3.0)
    s1.extend(rows[:20])
    s2.extend(rows[20:])
    merged = s1.merge(s2)
    # s2 fed mass through a 3x buffer, so the merge keeps that buffer, and
    # with it the wider lost-mass window in place of the exact identity
    assert merged.buffer_rows == s2.buffer_rows
    rep = error_report(rows, merged)
    assert rep.buffer_rows == s2.buffer_rows
    assert rep.all_ok


def test_report_on_empty_stream():
    s = FdSketch(k=1, eps=0.5, d=3)
    rep = error_report(np.zeros((0, 3)), s)
    assert rep.rows_seen == 0
    assert rep.all_ok


def test_report_on_an_empty_list_is_that_of_an_empty_stream():
    # ``[]`` is one block without a width; it takes the sketch's
    s = FdSketch(k=1, eps=0.5, d=3)
    s.extend(np.eye(3))
    assert error_report([], s) == error_report(iter([]), s)


def test_report_rejects_wrong_width():
    s = FdSketch(k=1, eps=0.5, d=3)
    with pytest.raises(ValueError, match="columns"):
        error_report(np.ones((2, 4)), s)


def test_report_does_not_mutate_sketch():
    s = FdSketch(k=1, eps=1.0, d=4, batch_factor=2.0)
    s.extend(np.eye(4))
    pending_before = s._pending
    error_report(np.eye(4), s)
    assert s._pending == pending_before


def test_report_wire_keys():
    s = FdSketch(k=1, eps=1.0, d=2)
    s.append([1.0, 1.0])
    rep = error_report([[1.0, 1.0]], s)
    assert list(rep.bounds()) == [
        "eq1_upper",
        "eq1_lower",
        "lemma4_identity",
        "lemma5",
        "lemma6",
        "lemma7_low",
        "lemma7_high",
        "lemma8_low",
        "lemma8_high",
    ]
    assert rep.all_ok


def _report_streams():
    rng = np.random.default_rng(18)
    rank3 = rng.normal(size=(100, 3)) @ rng.normal(size=(3, 40))
    low_rank = rng.normal(size=(300, 8)) @ rng.normal(size=(8, 40))
    return {
        "shard-merge shape, 6/4 decades": (_ill_scaled(rng, 160, 80, 6, 4), 10, 1.0),
        "12/12 decades": (_ill_scaled(rng, 150, 60, 12, 12), 5, 2.0),
        "exact rank 3 at k=5": (rank3, 5, 1.0),
        "n < d": (rng.normal(size=(30, 80)), 4, 1.0),
        "n > d": (low_rank + 0.05 * rng.normal(size=(300, 40)), 3, 2.0),
        # the rest take the row route while n + ell <= d (ell = 30 at k=10,
        # ell = 12 at k=4)
        "shard-merge shape, n + ell <= d": (_ill_scaled(rng, 48, 80, 6, 4), 10, 1.0),
        "n + ell = d - 1": (rng.normal(size=(27, 40)), 4, 1.0),
        "n + ell = d": (rng.normal(size=(28, 40)), 4, 2.0),
        "n + ell = d + 1": (rng.normal(size=(29, 40)), 4, 1.0),
        "rank 2 with zero rows, n < d": (
            np.insert(rng.normal(size=(16, 2)) @ rng.normal(size=(2, 50)), [0, 5, 5, 16], 0.0, axis=0),
            4, 1.0),
        "empty": (np.zeros((0, 30)), 4, 1.0),
    }


@pytest.mark.parametrize("name", list(_report_streams()))
def test_streaming_report_matches_materialized_oracle(name, monkeypatch):
    rows, k, batch_factor = _report_streams()[name]
    s = FdSketch(k=k, eps=0.5, d=rows.shape[1], batch_factor=batch_factor)
    s.extend(rows)
    real = fbounds._row_spectra
    row_route = []

    def spy(*args):
        row_route.append(args)
        return real(*args)

    monkeypatch.setattr(fbounds, "_row_spectra", spy)
    # the report streams in row blocks; the oracle holds the whole matrix
    blocks = iter(np.array_split(rows, 7))
    rep = error_report(blocks, s)
    # the row route runs exactly when n + ell <= d
    assert len(row_route) == (rows.shape[0] + s.ell <= rows.shape[1])
    want = report_oracle(rows, s.query(), s.query_topk(), k)
    tol = 1e-12 * want["frob_a_sq"]
    for field, value in want.items():
        assert abs(getattr(rep, field) - value) <= tol, field
    assert rep.delta_sum == s.delta_sum
    assert rep.frob_identity_residual == abs(rep.frob_a_sq - rep.frob_q_sq - s.ell * s.delta_sum)
    assert rep.qk_norm_bounds == (0.5 * rep.rank_k_mass_sq, rep.rank_k_mass_sq)
    # the ratio of two residuals, each within tol
    p, r = want["proj_residual_sq"], want["rank_k_residual_sq"]
    if r > 1e-9 * want["frob_a_sq"]:
        assert abs(rep.proj_err_ratio - p / r) <= (tol + p / r * tol) / (r - tol)
    else:
        assert rep.proj_err_ratio == 1.0
    assert rep.all_ok


def test_report_is_one_block_of_the_stream():
    rng = np.random.default_rng(19)
    rows = rng.normal(size=(60, 12))
    s = FdSketch(k=2, eps=0.5, d=12)
    s.extend(rows)
    one = error_report(rows, s)
    tol = 1e-12 * one.frob_a_sq
    for blocks in (iter([rows]), iter(rows), iter(np.array_split(rows, 5))):
        rep = error_report(blocks, s)
        for field in ("frob_a_sq", "max_dir_gap", "min_dir_gap",
                      "rank_k_residual_sq", "rank_k_mass_sq", "proj_residual_sq"):
            assert abs(getattr(rep, field) - getattr(one, field)) <= tol, field
    assert error_report(iter([rows]), s) == one
    with pytest.raises(ValueError, match="columns"):
        error_report(iter([rows[:3], rows[3:, :5]]), s)


def test_row_route_report_is_one_block_of_the_stream():
    # n + ell = 50 + 12 <= 80: the rows are stacked before any arithmetic,
    # so every cut into blocks gives the same report, bit for bit
    rows = np.random.default_rng(20).normal(size=(50, 80))
    s = FdSketch(k=4, eps=0.5, d=80)
    s.extend(rows)
    one = error_report(rows, s)
    assert one.all_ok
    for blocks in (iter(rows), iter(np.array_split(rows, 5))):
        assert error_report(blocks, s) == one


def test_row_route_leaves_the_callers_rows_unchanged():
    # the row route copies the rows once into an array of its own, then
    # grows it and factorizes it in place
    rng = np.random.default_rng(22)
    rows = rng.normal(size=(90, 200))
    s = FdSketch(k=4, eps=0.5, d=200)
    s.extend(rows)
    blocks = np.array_split(rows.copy(), 4)
    want = rows.tobytes(), [b.tobytes() for b in blocks]
    one = error_report(rows, s)
    assert error_report(iter(blocks), s) == one
    assert (rows.tobytes(), [b.tobytes() for b in blocks]) == want
    assert one.all_ok


def test_row_route_qr_takes_panels_of_at_most_64_columns(monkeypatch):
    # np.linalg.qr never sees the (n + ell) x d stack, only panels of it
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(150, 400))
    s = FdSketch(k=4, eps=0.5, d=400)
    s.extend(rows)
    real = np.linalg.qr
    widths = []

    def spy(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    assert error_report(rows, s).all_ok
    assert widths and max(widths) <= 64
    assert sum(widths) == rows.shape[0] + s.ell


def test_row_route_gaps_include_the_null_space():
    # with no stream rows, A^T A - Q^T Q = -Q^T Q: R J R^T = -R R^T is negative
    # definite for a full-rank Q, but the d - ell directions orthogonal to Q
    # give the eigenvalue 0, the largest gap
    s = FdSketch(k=1, eps=0.5, d=10)
    s._buf[:] = np.random.default_rng(21).normal(size=s._buf.shape)
    rep = error_report(np.zeros((0, 10)), s)
    want = directional_norm_gap(np.zeros((0, 10)), s.query())
    tol = 1e-12 * frob_sq(s.query())
    assert rep.max_dir_gap == 0.0 and abs(want.max_gap) <= tol
    assert abs(rep.min_dir_gap - want.min_gap) <= tol
    assert not rep.gap_lower_ok


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(1, 4)),
        elements=st.floats(-100, 100),
    ),
    st.sampled_from([1.0, 2.0]),
)
# squares in gradual underflow: |A|_F^2 and |Q|_F^2 differ by one subnormal step
@example(np.full((2, 1), 4.72347721e-162), 1.0)
@example(np.full((2, 1), 4.72347721e-162), 2.0)
@pytest.mark.filterwarnings("ignore:sketch rows")
def test_guarantees_hold_on_arbitrary_small_streams(rows, batch_factor):
    d = rows.shape[1]
    s = FdSketch(k=1, eps=0.5, d=d, batch_factor=batch_factor)
    s.extend(rows)
    rep = error_report(rows, s)
    assert rep.all_ok
    assert rep.rows_seen == rows.shape[0]


def test_underflow_floor_keeps_normal_range_checks_strict():
    # at entries of 1e-150 the squares are normal and the floor (about
    # 1e-321) is far below 1e-8 |A|_F^2: a 0.1% doctoring still fails
    rows = np.random.default_rng(31).normal(size=(40, 6)) * 1e-150
    s = FdSketch(k=2, eps=0.5, d=6)
    s.extend(rows)
    assert error_report(rows, s).all_ok
    s.flush()
    s._buf *= 1.001
    rep = error_report(rows, s)
    assert not rep.bounds()["lemma4_identity"]


# -- block ingest and the carried Gram matrix ---------------------------------


def _state(s):
    """Everything a flushed sketch exposes, for bit-for-bit comparison."""
    return s.query(), s.rows_seen, s.input_frob_sq, s.delta_sum


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 80),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.booleans(),
    st.data(),
)
def test_any_cut_into_blocks_gives_the_same_sketch(seed, n, batch_factor, low_rank, data):
    rng = np.random.default_rng(seed)
    d = 9
    # rank 2 sends buffers to the LAPACK fallback; full rank keeps them on the
    # Gram route, which rebuilds its carried matrix every ell compressions
    rows = rng.normal(size=(n, 2 if low_rank else d))
    if low_rank:
        rows = rows @ rng.normal(size=(2, d))
    rows *= rng.lognormal(0.0, 2.0, size=(n, 1))
    rows[rng.random(n) < 0.2] = 0.0
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8)))

    def fresh():
        return FdSketch(k=2, eps=0.5, d=d, batch_factor=batch_factor)

    per_row = fresh()
    for row in rows:
        per_row.append(row)
    whole = fresh()
    whole.extend(rows)
    cut = fresh()
    for part in np.split(rows, cuts):
        cut.extend(part)
    want = _state(per_row)
    for s in (whole, cut):
        got = _state(s)
        assert_array_equal(got[0], want[0])
        assert got[1:] == want[1:]


def _nan_at(rows, j):
    rows[j, 2] = np.nan


def _own_overflow_at(rows, j):
    rows[j, 2] = 1e200


def _running_overflow_at(rows, j):
    # each squared norm is finite; the second one overflows the running sum
    rows[j - 5] = 0.0
    rows[j - 5, 0] = 1e154
    rows[j] = 0.0
    rows[j, 0] = 1e154


@pytest.mark.parametrize(
    "plant, message",
    [
        (_nan_at, "row contains non-finite entries"),
        (_own_overflow_at, "row's squared norm overflows the running |A|_F^2"),
        (_running_overflow_at, "row's squared norm overflows the running |A|_F^2"),
    ],
)
@pytest.mark.parametrize("batch_factor", [1.0, 1.5])
def test_bad_row_mid_block_leaves_the_prefix_state(plant, message, batch_factor):
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(40, 12))
    j = 23
    plant(rows, j)
    block = FdSketch(k=2, eps=0.5, d=12, batch_factor=batch_factor)
    with pytest.raises(ValueError) as raised:
        block.extend(rows)
    prefix = FdSketch(k=2, eps=0.5, d=12, batch_factor=batch_factor)
    for row in rows[:j]:
        prefix.append(row)
    with pytest.raises(ValueError) as appended:
        prefix.append(rows[j])
    assert str(raised.value) == str(appended.value) == message
    assert (block.rows_seen, block.input_frob_sq, block.delta_sum) == (
        prefix.rows_seen, prefix.input_frob_sq, prefix.delta_sum)
    assert block.rows_seen == j
    assert_array_equal(block._buf, prefix._buf)
    # both carry on from the same state
    block.extend(rows[j + 1:])
    prefix.extend(rows[j + 1:])
    got, want = _state(block), _state(prefix)
    assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def test_block_width_error_consumes_nothing():
    s = FdSketch(k=1, eps=1.0, d=3)
    s.extend(np.ones((2, 3)))
    with pytest.raises(ValueError, match="row has 4 entries, expected 3"):
        s.extend(np.ones((5, 4)))
    s.extend(np.ones((0, 4)))  # no rows, so no row of the wrong width
    assert s.rows_seen == 2
    assert s.input_frob_sq == 6.0


def _count_compressions(monkeypatch) -> list:
    """Record the shrink value of every compression of every sketch."""
    deltas = []
    real = FdSketch.compress

    def counted(self):
        deltas.append(real(self))
        return deltas[-1]

    monkeypatch.setattr(FdSketch, "compress", counted)
    return deltas


@pytest.mark.parametrize("n, d, k", [(2000, 100, 5), (260, 200, 10)])
def test_carried_gram_across_rebuilds_matches_lapack_oracle(monkeypatch, n, d, k):
    # the carried matrix is rebuilt every ell compressions; more than three
    # times ell compressions without a fallback means at least three rebuilds
    # and every compression between them on the carried diagonal
    fallbacks = _count_fallbacks(monkeypatch)
    deltas = _count_compressions(monkeypatch)
    rng = np.random.default_rng(22)
    rows = rng.normal(size=(n, k)) @ rng.normal(size=(k, d)) + 0.3 * rng.normal(size=(n, d))
    s = FdSketch(k=k, eps=0.5, d=d)
    s.extend(rows)
    q = s.query()
    assert fallbacks == []
    assert len(deltas) > 3 * s.ell
    q_ref, delta_ref = fd_lapack_oracle(rows, s.ell, s.buffer_rows)
    tol = 1e-10 * frob_sq(rows)
    assert np.linalg.norm(q.T @ q - q_ref.T @ q_ref) <= tol
    assert abs(s.delta_sum - delta_ref) <= tol
    assert error_report(rows, s).all_ok


@pytest.mark.parametrize("batch_factor", [1.0, 2.0])
def test_twelve_decade_stream_matches_lapack_oracle(monkeypatch, batch_factor):
    fallbacks = _count_fallbacks(monkeypatch)
    rows = _ill_scaled(np.random.default_rng(23), 500, 300, 12, 12)
    s = FdSketch(k=10, eps=0.5, d=300, batch_factor=batch_factor)
    s.extend(rows)
    q = s.query()
    # both routes run, so the carried matrix is dropped and rebuilt
    assert fallbacks
    q_ref, delta_ref = fd_lapack_oracle(rows, s.ell, s.buffer_rows)
    tol = 1e-10 * frob_sq(rows)
    assert np.linalg.norm(q.T @ q - q_ref.T @ q_ref) <= tol
    assert abs(s.delta_sum - delta_ref) <= tol
    assert error_report(rows, s).all_ok


@pytest.mark.parametrize("batch_factor", [1.0, 2.0])
def test_load_then_continue_keeps_every_bound(tmp_path, batch_factor):
    from fdsketch.io import load_sketch, save_sketch

    rng = np.random.default_rng(24)
    rows = rng.normal(size=(300, 6)) @ rng.normal(size=(6, 40)) + 0.1 * rng.normal(size=(300, 40))
    s = FdSketch(k=4, eps=0.5, d=40, batch_factor=batch_factor)
    s.extend(rows[:137])
    path = str(tmp_path / "half.fdsk")
    save_sketch(path, s)
    back = load_sketch(path)
    back.extend(rows[137:])
    s.extend(rows[137:])
    rep = error_report(rows, back)
    assert rep.all_ok
    assert back.rows_seen == 300
    assert back.input_frob_sq == s.input_frob_sq
    # the reload rebuilds its Gram matrix, so the two differ only by rounding
    tol = 1e-10 * rep.frob_a_sq
    assert np.linalg.norm(back.query().T @ back.query() - s.query().T @ s.query()) <= tol
    assert abs(back.delta_sum - s.delta_sum) <= tol


def test_carried_gram_is_rebuilt_on_schedule(tmp_path):
    from fdsketch.io import load_sketch, save_sketch

    # _gram_age counts the compressions since the Gram matrix was last built
    # in full: 1 at a rebuild, then one more per deferred step on the carried
    # diagonal. At c = 1 the first compression rotates directly, the next
    # rebuilds and starts a deferral, and a rebuild comes after ell - 1 steps
    ages = []
    s = FdSketch(k=2, eps=0.5, d=30, compress_hook=lambda *_: ages.append(s._gram_age))
    rows = np.random.default_rng(28).normal(size=(40, 30))
    s.extend(rows)
    assert s.ell == 6
    assert ages == [1] + [1, 2, 3, 4, 5, 6] * 5 + [1, 2, 3, 4]
    path = str(tmp_path / "s.fdsk")
    save_sketch(path, s)
    back = load_sketch(path)
    back.compress_hook = lambda *_: ages.append(back._gram_age)
    back.extend(rows[:3])
    # a reloaded sketch rebuilds first; a copy carries on where it was
    assert ages[-3:] == [1, 1, 2]
    twin = s.copy()
    twin.compress_hook = lambda *_: ages.append(twin._gram_age)
    twin.extend(rows[:3])
    assert ages[-3:] == [5, 6, 1]
    # above c = 1 a compression stores several rows, so every one rebuilds,
    # also a flush of one row and the compression after it
    ages.clear()
    wide = FdSketch(k=2, eps=0.5, d=30, batch_factor=2.0,
                    compress_hook=lambda *_: ages.append(wide._gram_age))
    wide.extend(rows[:20])
    wide.query()
    assert wide._coef is not None
    wide.extend(rows[20:])
    assert ages == [1] * 5


def test_compression_after_a_fallback_rebuilds(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    steps = []  # (gram age, fell back) per compression

    def hook(*_):
        steps.append((s._gram_age, len(fallbacks) > sum(fell for _, fell in steps)))

    s = FdSketch(k=2, eps=0.5, d=30, compress_hook=hook)
    rows = np.random.default_rng(29).normal(size=(40, 30))
    # rows 1e8 times larger make buffers that mix both scales ill-conditioned
    # until the small rows are shrunk away; then the Gram route resumes
    rows[12:] *= 1e8
    s.extend(rows)
    pairs = list(zip(steps, steps[1:]))
    assert any(fell and not next_fell for (_, fell), (_, next_fell) in pairs)
    assert {age for (_, fell), (age, _) in pairs if fell} == {1}
    assert error_report(rows, s).all_ok


# -- deferred rotation at one new row per compression -------------------------


def _noisy_low_rank(seed, n, d, rank=3):
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    return 3.0 * signal + 0.5 * rng.normal(size=(n, d))


def _assert_same_bits(got: FdSketch, want: FdSketch) -> None:
    a, b = _state(got), _state(want)
    assert_array_equal(a[0], b[0])
    assert a[1:] == b[1:]


def test_hooked_sketch_is_bit_identical_at_batch_factor_one():
    rows = _noisy_low_rank(31, 150, 60)
    deferred = []
    hooked = FdSketch(k=3, eps=0.5, d=60,
                      compress_hook=lambda *_: deferred.append(hooked._coef is not None))
    plain = FdSketch(k=3, eps=0.5, d=60)
    hooked.extend(rows)
    plain.extend(rows)
    assert len(deferred) == 150 - hooked.ell + 1
    assert sum(deferred) > 100
    _assert_same_bits(hooked, plain)


def test_reads_never_change_later_bits(tmp_path):
    from fdsketch.io import save_sketch

    rows = _noisy_low_rank(32, 300, 80)
    touched = FdSketch(k=3, eps=0.5, d=80)
    untouched = FdSketch(k=3, eps=0.5, d=80)
    path = str(tmp_path / "s.fdsk")
    reads_while_deferred = 0
    for start in range(0, rows.shape[0], 37):
        block = rows[start : start + 37]
        touched.extend(block)
        untouched.extend(block)
        reads_while_deferred += touched._coef is not None
        touched.query()
        touched.query_topk()
        touched.copy()
        save_sketch(path, touched)
        error_report(rows[: start + 37], touched)
        FdSketch(k=3, eps=0.5, d=80).merge(touched)
        frob_sq(touched._buf)
    assert reads_while_deferred >= 5
    _assert_same_bits(touched, untouched)


# row 10 comes right after the first deferred compression, while coef is
# still W's F-ordered transpose; row 73 starts a deferral after a rebuild,
# and row 74 is one step into it, where coef is a C-ordered concatenation
@pytest.mark.parametrize("at", [10, 73, 74])
def test_copy_made_mid_deferral_continues_bit_for_bit(at):
    rows = _noisy_low_rank(33, 200, 50)
    s = FdSketch(k=3, eps=0.5, d=50)
    s.extend(rows[:at])
    assert s._coef is not None
    twin = s.copy()
    s.extend(rows[at:])
    twin.extend(rows[at:])
    _assert_same_bits(twin, s)


def test_deferred_rows_over_basis_cycles_match_lapack_oracle():
    rows = _noisy_low_rank(34, 120, 1000, rank=4)
    # a compression that leaves exactly m basis rows in use began a cycle
    cycles = []
    s = FdSketch(k=2, eps=0.5, d=1000, compress_hook=lambda *_: cycles.append(
        s._coef is not None and s._coef.shape[1] == s.buffer_rows))
    s.extend(rows)
    q = s.query()
    assert sum(cycles) >= 3
    q_ref, delta_ref = fd_lapack_oracle(rows, s.ell, s.buffer_rows)
    tol = 1e-10 * frob_sq(rows)
    assert np.linalg.norm(q.T @ q - q_ref.T @ q_ref) <= tol
    assert abs(s.delta_sum - delta_ref) <= tol
    assert error_report(rows, s).all_ok


def test_batch_factor_one_merge_reinserts_through_the_deferred_path(monkeypatch):
    rows = _noisy_low_rank(35, 160, 40)
    left = FdSketch(k=3, eps=0.5, d=40)
    right = FdSketch(k=3, eps=0.5, d=40)
    left.extend(rows[:80])
    right.extend(rows[80:])
    deferred = []
    real = FdSketch._defer

    def counted(self, *args):
        deferred.append(self)
        return real(self, *args)

    monkeypatch.setattr(FdSketch, "_defer", counted)
    merged = left.merge(right)
    # every re-inserted row fills the one free slot and is compressed alone
    assert len(deferred) == right._nonzero == right.ell - 1
    assert all(sk is merged for sk in deferred)
    assert error_report(rows, merged).all_ok


def test_deferral_fills_exactly_the_basis_it_allocates():
    # a deferral starts at a rebuild with m basis rows and takes at most
    # min(ell, 2^10) - 1 more steps, one basis row each; the basis has exactly
    # that many rows, so a step past it would raise
    widths = []
    s = FdSketch(k=2, eps=0.5, d=30, compress_hook=lambda *_: widths.append(
        0 if s._coef is None else s._coef.shape[1]))
    rows = np.random.default_rng(36).normal(size=(40, 30))
    s.extend(rows)
    m, ell = s.buffer_rows, s.ell
    assert s._basis.shape == (m + min(ell, 2**10) - 1, 30)
    # one direct compression, then deferrals from m basis rows to the full basis
    cycle = list(range(m, s._basis.shape[0] + 1))
    assert widths == ([0] + cycle * 6)[: len(widths)]
    assert widths.count(s._basis.shape[0]) >= 3
    assert max(widths) == s._basis.shape[0]
    q = s.query()
    q_ref, delta_ref = fd_lapack_oracle(rows, s.ell, s.buffer_rows)
    tol = 1e-10 * frob_sq(rows)
    assert np.linalg.norm(q.T @ q - q_ref.T @ q_ref) <= tol
    assert abs(s.delta_sum - delta_ref) <= tol


def test_failed_gram_attempts_send_a_doubling_run_straight_to_lapack(monkeypatch, tmp_path):
    from fdsketch.io import load_sketch, save_sketch

    attempts = []  # eigh calls so far, after each compression
    eigh_calls = []
    real = np.linalg.eigh

    def counted(*args, **kwargs):
        eigh_calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fsk.np.linalg, "eigh", counted)
    rng = np.random.default_rng(37)
    rank3 = rng.normal(size=(200, 3)) @ rng.normal(size=(3, 50))
    s = FdSketch(k=5, eps=0.5, d=50, compress_hook=lambda *_: attempts.append(len(eigh_calls)))
    s.extend(rank3)
    # every Gram attempt on an exact rank-3 buffer fails; after j failures in
    # a row the next 2^(j-1) - 1 compressions skip it, with j capped at 6
    tried = [i for i, (a, b) in enumerate(zip([0] + attempts, attempts)) if b > a]
    assert len(attempts) == 186
    assert tried == [0, 1, 3, 7, 15, 31, 63, 95, 127, 159]
    assert error_report(rank3, s).all_ok
    # a copy carries the run on; a reload attempts the Gram route at once
    twin = s.copy()
    twin.compress_hook = None
    before = len(eigh_calls)
    twin.extend(rank3[:3])
    assert len(eigh_calls) == before
    path = str(tmp_path / "s.fdsk")
    save_sketch(path, s)
    back = load_sketch(path)
    back.extend(rank3[:1])
    assert len(eigh_calls) == before + 1
