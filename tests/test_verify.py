import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import fdsketch.linalg
from fdsketch.linalg import SvdError
from fdsketch.sketch import FdSketch
from fdsketch.verify import (
    DISTRIBUTIONS,
    GRID_BATCH_FACTORS,
    TrialConfig,
    default_grid,
    generate_rows,
    main,
    run_suite,
    run_trial,
    zipf_item_stream,
)

WIRE_KEYS = [
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


def test_config_rejects_unknown_distribution():
    with pytest.raises(ValueError, match="unknown distribution"):
        TrialConfig(n=10, d=4, k=1, eps=0.5, distribution="cauchy")
    with pytest.raises(ValueError, match="must be >= 1"):
        TrialConfig(n=0, d=4, k=1, eps=0.5)


def test_generators_are_deterministic():
    for dist in DISTRIBUTIONS:
        cfg = TrialConfig(n=30, d=8, k=2, eps=0.5, seed=3, distribution=dist)
        assert_array_equal(generate_rows(cfg), generate_rows(cfg))
        assert generate_rows(cfg).shape == (30, 8)


def test_low_rank_generator_has_dominant_signal():
    cfg = TrialConfig(n=60, d=10, k=2, eps=0.5, seed=0,
                      distribution="low-rank-plus-noise")
    rows = generate_rows(cfg)
    s = np.linalg.svd(rows, compute_uv=False)
    # signal singular values near 20 and 10, noise well below
    assert s[0] > 15.0 and s[1] > 7.0
    assert s[2] < 2.0


def test_zipf_rows_repeat_pool_directions():
    cfg = TrialConfig(n=50, d=6, k=1, eps=0.5, seed=1, distribution="zipf-rows")
    rows = generate_rows(cfg)
    unique = np.unique(rows, axis=0)
    assert unique.shape[0] <= 2 * cfg.k + 3


def test_zipf_item_stream_shape_and_skew():
    stream = zipf_item_stream(2000, universe=50, seed=0)
    assert stream.shape == (2000,)
    assert stream.min() >= 0 and stream.max() < 50
    assert_array_equal(stream, zipf_item_stream(2000, universe=50, seed=0))
    counts = Counter(stream.tolist())
    top = counts.most_common(1)[0][1]
    # rank-1 mass under exponent 1 is far above the uniform share
    assert top > 2000 / 50 * 4


def test_trial_passes_and_reports_wire_keys():
    out = run_trial(TrialConfig(n=80, d=10, k=2, eps=0.5, seed=0))
    assert out.passed and not out.inconclusive
    assert list(out.bounds) == WIRE_KEYS
    assert out.worst_identity_residual <= 1e-8
    assert out.delta_monotone
    assert out.millis >= 0.0
    j = out.to_json_dict()
    assert set(j) == {"config", "bounds", "pass", "millis"}
    assert j["config"]["distribution"] == "gaussian"
    json.dumps(j)


def test_trial_is_inconclusive_when_an_oracle_factorization_fails(monkeypatch):
    def no_basis(x):
        raise SvdError("singular value iteration did not converge")

    monkeypatch.setattr(fdsketch.linalg, "rowspace_basis", no_basis)
    out = run_trial(TrialConfig(n=40, d=8, k=2, eps=0.5, seed=0))
    assert out.inconclusive and not out.passed
    assert out.report is None and out.bounds == {}
    assert out.to_json_dict()["pass"] is False


def test_trial_batched_window_branch():
    out = run_trial(TrialConfig(n=90, d=10, k=2, eps=0.5, c=2.0, seed=1))
    assert out.passed
    # every mid-stream checkpoint finds the lost mass inside [ell, m] * Delta
    assert out.worst_identity_residual == 0.0
    assert out.delta_monotone


def test_trial_flags_an_unbooked_shrink_mid_stream(monkeypatch):
    # the first shrinking compression's delta leaves delta_sum again: the
    # rows lost mass that the window [ell, m] * Delta no longer covers
    compress = FdSketch.compress
    unbooked = []

    def drop_first_shrink(sk):
        delta = compress(sk)
        if delta > 0.0 and not unbooked:
            sk._counters.delta_sum.add(-delta)
            unbooked.append(delta)
        return delta

    monkeypatch.setattr(FdSketch, "compress", drop_first_shrink)
    out = run_trial(TrialConfig(n=200, d=30, k=3, eps=0.5, c=2.0, seed=2))
    assert unbooked
    assert out.worst_identity_residual > 0.0
    assert not out.bounds["lemma4_identity"] and not out.passed


def test_trial_fails_a_shrink_total_that_decreases(monkeypatch):
    # the fifth shrinking compression takes its delta and 3% more of Delta
    # back out of delta_sum. At c = 2 the window [ell, m] * Delta still holds
    # the lost mass; only Delta's fall shows it. Compressions come every
    # m - ell = 15 rows, so no other one falls between two checks with it
    compress = FdSketch.compress
    shrinks = []

    def take_back(sk):
        delta = compress(sk)
        if delta > 0.0:
            shrinks.append(delta)
            if len(shrinks) == 5:
                sk._counters.delta_sum.add(-delta - 0.03 * sk.delta_sum)
        return delta

    monkeypatch.setattr(FdSketch, "compress", take_back)
    out = run_trial(TrialConfig(n=300, d=40, k=5, eps=0.5, c=2.0, seed=2))
    assert len(shrinks) > 5
    assert out.worst_identity_residual <= 1e-15
    assert not out.delta_monotone
    assert not out.bounds["lemma4_identity"] and not out.passed


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_trial_passes_every_distribution(dist):
    out = run_trial(
        TrialConfig(n=100, d=12, k=2, eps=0.25, seed=4, distribution=dist)
    )
    assert out.passed, out.bounds


def test_low_rank_trials_exercise_the_topk_window():
    out = run_trial(
        TrialConfig(n=100, d=18, k=3, eps=0.25, seed=5,
                    distribution="low-rank-plus-noise")
    )
    assert out.report is not None
    assert out.report.topk_window_applicable
    assert out.passed


def test_suite_schema_round_trips_through_json():
    summary = run_suite(
        [
            TrialConfig(n=40, d=6, k=1, eps=0.5, seed=s)
            for s in (0, 1)
        ]
    )
    blob = json.dumps(summary)
    parsed = json.loads(blob)
    assert parsed["all_pass"] is True
    assert len(parsed["trials"]) == 2
    for trial in parsed["trials"]:
        assert list(trial["bounds"]) == WIRE_KEYS
        assert trial["pass"] is True


def test_default_grid_covers_the_matrix_of_cases():
    grid = default_grid(seeds=(0, 1))
    assert len(grid) == 3 * 3 * 4 * 2 * 2
    dists = {cfg.distribution for cfg in grid}
    assert dists == set(DISTRIBUTIONS)
    assert {cfg.k for cfg in grid} == {1, 3, 5}
    # the per-row variant and the O(d ell) variant's wider buffer
    assert {cfg.c for cfg in grid} == set(GRID_BATCH_FACTORS) == {1.0, 2.0}


@pytest.mark.filterwarnings("ignore:sketch rows")
def test_main_small_grid_exits_zero(capsys):
    rc = main(["--n", "40", "--d", "8", "--seeds", "0", "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    parsed = json.loads(captured.out)
    assert parsed["all_pass"] is True
    assert len(parsed["trials"]) == 72


def test_module_runs_once_without_import_warning():
    # the package must not import fdsketch.verify before runpy executes it
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fdsketch.verify",
         "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True
    # the default grid keeps every ell below d, so no trial warns
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [["--n", "0"], ["--d", "0"], ["--seeds", "-1"]])
def test_main_exits_two_with_one_line_on_a_bad_argument(capsys, argv):
    # exit 1 is reserved for a violated bound
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("parameter error: ")


@pytest.mark.parametrize("argv, code, err", [
    # k = 5, eps = 0.1 gives ell = 55 sketch rows, more than d = 40
    (["--d", "40", "--n", "3", "--seeds", "0"], 0,
     "warning: sketch rows ell=55 exceed dimension d=40; the sketch will hold "
     "the stream exactly and shrinkage never happens\n"),
    # every ell exceeds d = 1, and the adversarial stream needs d >= k + 1
    (["--d", "1", "--n", "5"], 2,
     "parameter error: need d >= k + 1 for the tail direction\n"),
], ids=["warning", "bad-argument"])
def test_module_prints_warnings_as_one_line_and_errors_alone(argv, code, err):
    proc = subprocess.run([sys.executable, "-m", "fdsketch.verify", "--json", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, err)
