import itertools
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fdsketch.counterexamples import (
    SparseFdInstance,
    _prefix_len,
    compare_on_adversary,
    gen_adversary,
    incremental_pca,
    orthogonal_residual_min,
    projection_error_sq,
    sparse_fd_check,
    sparse_feasibility_grid,
)
from fdsketch.linalg import frob_sq
from oracles import removed_row_residuals


def test_adversary_smallest_case():
    assert_array_equal(
        gen_adversary(1, 2, 3), [[10.0, 0.0], [0.0, 5.0], [0.0, 5.0]]
    )


def test_adversary_head_spectrum_descends_to_sigma():
    rows = gen_adversary(3, 5, 7, sigma_k=10.0)
    assert_array_equal(np.diag(rows[:3, :3]), [12.0, 11.0, 10.0])
    assert_array_equal(rows[3:, 3], [5.0, 5.0, 5.0, 5.0])
    assert np.count_nonzero(rows) == 7


def test_adversary_short_stream_is_head_only():
    rows = gen_adversary(3, 5, 2)
    assert rows.shape == (2, 5)
    assert_array_equal(np.diag(rows[:, :2]), [12.0, 11.0])


def test_adversary_validation():
    with pytest.raises(ValueError, match="d >= k \\+ 1"):
        gen_adversary(2, 2, 5)
    with pytest.raises(ValueError, match="n must be"):
        gen_adversary(1, 2, 0)
    with pytest.raises(ValueError, match="tail_norm"):
        gen_adversary(1, 2, 5, sigma_k=4.0, tail_norm=4.0)
    with pytest.raises(ValueError, match="k must be"):
        gen_adversary(0, 2, 5)


def test_incremental_pca_handles_rank_deficient_prefix():
    state = incremental_pca([[1.0, 2.0, 2.0]], 2)
    assert state.shape == (2, 3)
    assert_allclose(np.abs(state[0]), [1.0, 2.0, 2.0], atol=1e-12)
    assert_allclose(state[1], 0.0)


def test_incremental_pca_exact_on_low_rank_streams():
    rng = np.random.default_rng(0)
    basis = rng.normal(size=(2, 6))
    rows = rng.normal(size=(40, 2)) @ basis
    state = incremental_pca(rows, 2)
    assert projection_error_sq(rows, state) <= 1e-8 * frob_sq(rows)


def test_incremental_pca_drops_the_tail_forever():
    # every tail row loses the top-1 contest against the head row, so the
    # final state is still the head direction and the whole tail is lost
    rows = gen_adversary(1, 2, 100)
    state = incremental_pca(rows, 1)
    assert_allclose(np.abs(state), [[10.0, 0.0]], atol=1e-9)
    err = projection_error_sq(rows, state)
    assert_allclose(err, 99 * 25.0, rtol=1e-12)


def test_incremental_pca_rejects_a_rank_below_one():
    with pytest.raises(ValueError, match="k must be"):
        incremental_pca([[1.0, 2.0]], 0)


def test_truncation_versus_sketch_on_the_adversary():
    out = compare_on_adversary(k=1, d=2, n=100)
    assert_allclose(out["optimal_rank_k_err"], 100.0, rtol=1e-9)
    assert_allclose(out["incremental_pca_err"], 2475.0, rtol=1e-9)
    assert_allclose(out["tail_mass"], 2475.0, rtol=1e-12)
    assert out["incremental_pca_ratio"] >= 10.0
    assert out["sketch_ratio"] <= 2.0 + 1e-9


def test_adversary_beats_truncation_at_larger_rank():
    out = compare_on_adversary(k=3, d=6, n=120)
    assert out["incremental_pca_ratio"] >= 10.0
    assert out["sketch_ratio"] <= 2.0 + 1e-9


def test_hard_instance_layout():
    inst = SparseFdInstance(ell=3, d=5)
    assert_array_equal(
        inst.matrix,
        [
            [1.0, 1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 1.0, 0.0],
        ],
    )
    assert_allclose(inst.weights**2, 2.0)
    with pytest.raises(ValueError, match="d > ell"):
        SparseFdInstance(ell=4, d=4)
    with pytest.raises(ValueError, match="ell must be"):
        SparseFdInstance(ell=1, d=5)


def test_residual_min_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(3, 5))
    vals = removed_row_residuals(q)
    best, idx = orthogonal_residual_min(q)
    assert idx == int(np.argmin(vals))
    assert_allclose(best, vals.min(), atol=1e-9)


@pytest.mark.parametrize("ell", range(3, 11))
def test_hard_instance_residual_exceeds_unit_charge(ell):
    # removing any single row leaves exactly 1 + 1/ell of squared mass
    # unexplained, strictly above the nominal unit charge per removal
    inst = SparseFdInstance(ell=ell, d=ell + 1)
    vals = removed_row_residuals(inst.matrix)
    assert_allclose(vals, 1.0 + 1.0 / ell, atol=1e-9)
    best, _ = orthogonal_residual_min(inst.matrix)
    assert_allclose(best, 1.0 + 1.0 / ell, atol=1e-9)
    assert_allclose(inst.removal_residual, best, atol=1e-9)


def test_residual_min_weight_scaling_is_quadratic():
    inst = SparseFdInstance(ell=4, d=5)
    base, _ = orthogonal_residual_min(inst.matrix)
    doubled, _ = orthogonal_residual_min(
        inst.matrix, weights=2.0 * inst.weights
    )
    assert_allclose(doubled, 4.0 * base, rtol=1e-9)
    same, _ = orthogonal_residual_min(inst.matrix, weights=inst.weights)
    assert_allclose(same, base, rtol=1e-12)


def test_residual_min_validation():
    with pytest.raises(ValueError, match="two rows"):
        orthogonal_residual_min(np.ones((1, 3)))
    with pytest.raises(ValueError, match="one weight per row"):
        orthogonal_residual_min(np.eye(3), weights=[1.0, 2.0])
    with pytest.raises(ValueError, match="zero row"):
        orthogonal_residual_min(np.array([[1.0, 0.0], [0.0, 0.0]]), weights=[1.0, 1.0])


def test_sparse_check_validation():
    inst = SparseFdInstance(ell=4, d=6)
    with pytest.raises(ValueError, match="expected 3 alphas"):
        sparse_fd_check(inst, [0.0, 0.0], c=0.5)
    with pytest.raises(ValueError, match="removed_row"):
        sparse_fd_check(inst, [0.0] * 3, c=0.5, removed_row=4)
    with pytest.raises(ValueError, match="wrong dimension"):
        sparse_fd_check(inst, [0.0] * 3, c=0.5, direction=np.ones(5))
    with pytest.raises(ValueError, match="nonzero"):
        sparse_fd_check(inst, [0.0] * 3, c=0.5, direction=np.zeros(6))


def test_sparse_check_normalizes_its_direction():
    inst = SparseFdInstance(ell=4, d=6)
    e1 = np.zeros(6)
    e1[0] = 3.0
    assert sparse_fd_check(inst, [0.1, 0.2, 0.0], c=0.5, direction=e1) == sparse_fd_check(
        inst, [0.1, 0.2, 0.0], c=0.5)


def test_sparse_check_zero_update_at_threshold():
    # keeping every surviving weight untouched satisfies both requirements
    # exactly at c = 2/ell and fails the mass requirement above it
    inst = SparseFdInstance(ell=4, d=6)
    at = sparse_fd_check(inst, [0.0, 0.0, 0.0], c=0.5)
    assert at.threshold_c == 0.5
    assert at.removed_row == 3
    assert at.feasible and at.p1_satisfied and at.p2_satisfied
    assert at.jointly_satisfied
    above = sparse_fd_check(inst, [0.0, 0.0, 0.0], c=0.75)
    assert above.p2_satisfied and not above.p1_satisfied
    assert not above.jointly_satisfied


def test_sparse_check_alpha_sum_is_all_that_matters():
    inst = SparseFdInstance(ell=5, d=7)
    spread = sparse_fd_check(inst, [0.4, -0.4, 0.3, -0.3], c=0.4)
    flat = sparse_fd_check(inst, [0.0, 0.0, 0.0, 0.0], c=0.4)
    assert_allclose(spread.frob_after, flat.frob_after, rtol=1e-12)
    assert_allclose(spread.dir_after, flat.dir_after, rtol=1e-12)
    assert spread.jointly_satisfied == flat.jointly_satisfied


def test_sparse_check_removed_row_choice_is_immaterial():
    inst = SparseFdInstance(ell=4, d=6)
    a = sparse_fd_check(inst, [0.1, 0.1, 0.1], c=0.5, removed_row=0)
    b = sparse_fd_check(inst, [0.1, 0.1, 0.1], c=0.5, removed_row=3)
    assert_allclose(a.frob_after, b.frob_after, rtol=1e-12)
    assert_allclose(a.dir_after, b.dir_after, rtol=1e-12)


def test_sparse_check_flags_negative_weights():
    inst = SparseFdInstance(ell=3, d=5)
    rep = sparse_fd_check(inst, [2.5, 0.0], c=0.1)
    assert not rep.feasible
    assert not rep.jointly_satisfied


def test_sparse_check_matches_sum_reduction():
    # the direct matrix evaluation collapses to two inequalities on
    # sum(alpha); spot-check the equivalence across random grid points
    rng = np.random.default_rng(2)
    for ell, c in [(3, 0.4), (4, 0.5), (4, 0.75), (5, 0.3), (6, 1.0)]:
        inst = SparseFdInstance(ell=ell, d=ell + 2)
        for _ in range(60):
            alphas = rng.integers(-200, 201, size=ell - 1) * 0.01
            rep = sparse_fd_check(inst, alphas, c=c)
            total = alphas.sum()
            assert rep.p1_satisfied == (total >= c * ell - 2.0 - 1e-9)
            assert rep.p2_satisfied == (total <= 1e-9)


def test_sparse_check_with_exact_removal_charge():
    # with the honest per-removal charge 1 + 1/ell the threshold story is
    # unchanged: spreading the charge evenly works at c = 2/ell and nothing
    # can work above it because the two sum constraints cross
    for ell in (3, 4, 6):
        inst = SparseFdInstance(ell=ell, d=ell + 1)
        even = np.full(ell - 1, 2.0 / (ell * (ell - 1)))
        at = sparse_fd_check(inst, even, c=2.0 / ell, delta=None)
        assert_allclose(at.delta, 1.0 + 1.0 / ell, rtol=1e-9)
        assert at.jointly_satisfied
        for alphas in (np.zeros(ell - 1), even, np.full(ell - 1, 1.9), np.full(ell - 1, -1.9)):
            rep = sparse_fd_check(inst, alphas, c=2.0 / ell + 0.2, delta=None)
            assert not rep.jointly_satisfied


def test_grid_scan_is_empty_above_threshold():
    for c in (0.75, 1.0, 2.0):
        scan = sparse_feasibility_grid(4, c)
        assert scan.empty
        assert scan.witness is None
        assert scan.points_checked == 401**3
        assert scan.threshold_c == 0.5


def test_grid_scan_finds_witnesses_at_threshold():
    scan = sparse_feasibility_grid(4, 0.5)
    assert not scan.empty
    assert scan.witness is not None
    inst = SparseFdInstance(ell=4, d=6)
    rep = sparse_fd_check(inst, scan.witness, c=0.5)
    assert rep.jointly_satisfied


def test_grid_scan_single_alpha_axis():
    ok = sparse_feasibility_grid(2, 1.0)
    assert not ok.empty
    bad = sparse_feasibility_grid(2, 1.5)
    assert bad.empty


def test_grid_scan_pair_axis():
    assert not sparse_feasibility_grid(3, 2.0 / 3.0).empty
    assert sparse_feasibility_grid(3, 1.0).empty


def test_grid_scan_counts_every_zero_sum_point():
    # at c = 2/ell with delta 1 the feasible set is exactly the zero-sum
    # hyperplane; the coarse grid hits it many times
    scan = sparse_feasibility_grid(3, 2.0 / 3.0, step=0.5)
    vals = np.arange(-2.0, 2.5, 0.5)
    expected = sum(
        1 for a in vals for b in vals if abs(a + b) <= 1e-9
    )
    assert scan.feasible_count == expected


def test_grid_scan_validation():
    with pytest.raises(ValueError, match="ell"):
        sparse_feasibility_grid(1, 0.5)
    with pytest.raises(ValueError, match="bad grid"):
        sparse_feasibility_grid(3, 0.5, step=0.0)
    with pytest.raises(ValueError, match="bad grid"):
        sparse_feasibility_grid(3, 0.5, lo=1.0, hi=-1.0)


def _enumerated_grid(ell, c, step, lo=-2.0, hi=2.0, delta=1.0):
    """Reference for ``sparse_feasibility_grid``: visit every grid tuple in
    lexicographic order and test its sum against both requirements."""
    npts = int(round((hi - lo) / step)) + 1
    vals = [lo + step * i for i in range(npts) if lo + step * i <= 2.0 + 1e-9]
    checked = feasible = 0
    witness = None
    for alpha in itertools.product(vals, repeat=ell - 1):
        checked += 1
        if c * ell * delta - 2.0 - 1e-9 <= sum(alpha) <= 2.0 * delta - 2.0 + 1e-9:
            feasible += 1
            witness = witness or alpha
    return checked, feasible, witness


# every (ell, step) with at most 17**4 grid points; 41**4 takes seconds
@pytest.mark.parametrize(
    "ell, step",
    [(ell, step) for ell in (2, 3, 4, 5) for step in (0.5, 0.25, 0.1) if (ell, step) != (5, 0.1)],
)
def test_grid_count_matches_enumeration(ell, step):
    at = 2.0 / ell
    for c in (0.25, at - 0.1, at, at + 1e-12, at + 0.1, 1.0):
        scan = sparse_feasibility_grid(ell, c, step=step)
        got = (scan.points_checked, scan.feasible_count, scan.witness)
        assert got == _enumerated_grid(ell, c, step), (ell, c, step)


@pytest.mark.parametrize("estimate", [7.0, 8.5, 10.0, 11.2, 13.0])
def test_prefix_len_corrects_an_estimate_a_few_units_off(estimate):
    # the prefix on which i < 10 holds has length 10
    assert _prefix_len(20, lambda i: i < 10, estimate) == 10


@pytest.mark.parametrize("estimate", [6.0, 14.0])
def test_prefix_len_rejects_an_estimate_too_far_off(estimate):
    with pytest.raises(AssertionError, match="did not settle"):
        _prefix_len(20, lambda i: i < 10, estimate)


def test_grid_count_matches_enumeration_off_the_default_grid():
    # values above 2 are cut from the grid, and delta moves both thresholds
    for ell, c, lo, hi, step, delta in [
        (3, 0.5, -1.3, 2.7, 0.2, 1.0),
        (4, 0.4, -0.7, 3.1, 0.3, 1.25),
        (3, 0.9, 0.5, 2.5, 0.25, 2.0),
        (2, 1.0, 2.5, 3.0, 0.1, 1.0),
    ]:
        scan = sparse_feasibility_grid(ell, c, lo=lo, hi=hi, step=step, delta=delta)
        got = (scan.points_checked, scan.feasible_count, scan.witness)
        assert got == _enumerated_grid(ell, c, step, lo, hi, delta)


def _tuples_with_index_sum(dims, n, total):
    """Tuples of dims indices in range(n) with the given sum, by repeated
    convolution with a run of n ones (prefix sums keep it fast)."""
    ways = [1]
    for _ in range(dims):
        prefix = list(itertools.accumulate(ways, initial=0))
        ways = [prefix[min(s + 1, len(ways))] - prefix[max(0, s - n + 1)]
                for s in range(len(ways) + n - 1)]
    return ways[total]


def test_grid_count_reaches_large_ell():
    # 401**9 grid points, where int64 would overflow. At c = 2/ell only
    # sum(alpha) = 0 is feasible: 9 indices that sum to 1800
    scan = sparse_feasibility_grid(10, 0.2)
    assert scan.points_checked == 401**9
    assert scan.feasible_count == _tuples_with_index_sum(9, 401, 1800)
    assert scan.witness == (-2.0, -2.0, -2.0, -2.0, 0.0, 2.0, 2.0, 2.0, 2.0)
    assert sparse_fd_check(SparseFdInstance(10, 11), scan.witness, c=0.2).jointly_satisfied
    assert sparse_feasibility_grid(10, 0.3).empty
    assert sparse_feasibility_grid(100, 1.0).empty


def test_grid_rejects_a_step_floats_cannot_resolve():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bad grid bounds"):
        sparse_feasibility_grid(4, 1.0, step=1e-300)
    assert time.perf_counter() - start < 1.0
    for kwargs in ({"step": math.inf}, {"lo": -math.inf}, {"hi": math.nan}):
        with pytest.raises(ValueError, match="bad grid bounds"):
            sparse_feasibility_grid(3, 0.5, **kwargs)
