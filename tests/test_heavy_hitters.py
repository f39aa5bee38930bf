from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fdsketch.heavy_hitters import MgCertificate, MgSummary, error_certificate
from fdsketch.verify import zipf_item_stream
from oracles import LinearMgSummary, mg_linear_oracle


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        MgSummary(0)


def test_hand_trace_two_slots():
    # 1 and 2 fill the slots, the second 1 bumps its counter, 3 finds the
    # summary full of other labels and triggers the decrement round
    s = MgSummary(2)
    s.extend([1, 2, 1, 3])
    assert s.items() == {1: 1}
    assert s.estimate(1) == 1
    assert s.estimate(2) == 0
    assert s.estimate(3) == 0
    assert s.decrement_total == 1
    assert s.n_processed == 4


def test_hand_trace_single_slot_empties():
    s = MgSummary(1)
    s.extend([1, 2])
    assert s.items() == {}
    assert s.decrement_total == 1


def test_decrementing_arrival_is_discarded_and_slot_reuse_is_lowest_index():
    s = MgSummary(3)
    s.extend([5, 5, 6, 7, 6, 8])
    # the decrement round drops 7 (count one) and discards 8 itself
    assert s.items() == {5: 1, 6: 1}
    assert s.estimate(8) == 0
    s.update(9)
    # 9 claims the freed slot, order in items() reflects slot positions
    assert list(s.items().items()) == [(5, 1), (6, 1), (9, 1)]


def test_estimates_never_negative_slots():
    s = MgSummary(2)
    s.extend([1, 2, 3, 4, 5, 6])
    for slot_count in s.items().values():
        assert slot_count > 0


def test_certificate_hand_values():
    s = MgSummary(2)
    s.extend([1, 2, 1, 3])
    cert = error_certificate(s, {1: 2, 2: 1, 3: 1}, k=1)
    assert isinstance(cert, MgCertificate)
    assert cert.n == 4
    assert cert.capacity == 2
    assert cert.decrements == 1
    assert cert.top_k_mass == 2
    assert cert.top_k_mass_est == 1
    assert cert.residual_mass == 2
    assert cert.max_item_gap == 1
    # 1 * (2 - 1) <= 2 and (2 - 1) * (2 - 1) <= 1 * 2, both at integer exactness
    assert cert.decrement_bound_ok
    assert cert.topk_mass_bound_ok


def test_certificate_validates_k():
    s = MgSummary(3)
    s.extend([1, 1])
    with pytest.raises(ValueError, match="k must satisfy"):
        error_certificate(s, {1: 2}, k=0)
    with pytest.raises(ValueError, match="k must satisfy"):
        error_certificate(s, {1: 2}, k=3)


def test_certificate_validates_histogram_total():
    s = MgSummary(3)
    s.extend([1, 1, 2])
    with pytest.raises(ValueError, match="histogram covers 2"):
        error_certificate(s, {1: 2}, k=1)


def test_certificate_is_deterministic_under_ties():
    s = MgSummary(2)
    s.extend(["b", "b", "a", "a", "c"])
    hist = {"a": 2, "b": 2, "c": 1}
    first = error_certificate(s, hist, k=1)
    second = error_certificate(s, hist, k=1)
    assert first == second


def test_replay_is_bit_identical():
    stream = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
    a, b = MgSummary(3), MgSummary(3)
    a.extend(stream)
    b.extend(stream)
    assert list(a.items().items()) == list(b.items().items())
    assert a.decrement_total == b.decrement_total


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=200), st.integers(1, 8))
def test_stream_invariants(stream, capacity):
    s = MgSummary(capacity)
    s.extend(stream)
    truth = Counter(stream)
    n = len(stream)
    r = s.decrement_total
    assert s.n_processed == n
    # every decrement round destroys capacity + 1 units of mass, exactly
    assert sum(s.items().values()) == n - r * (capacity + 1)
    assert r * (capacity + 1) <= n
    for label, count in truth.items():
        est = s.estimate(label)
        assert 0 <= est <= count
        assert count - est <= r
    for label in s.items():
        assert label in truth


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=300), st.integers(2, 8), st.data())
def test_certificate_bounds_always_hold(stream, capacity, data):
    s = MgSummary(capacity)
    s.extend(stream)
    k = data.draw(st.integers(1, capacity - 1))
    cert = error_certificate(s, Counter(stream), k=k)
    assert cert.decrement_bound_ok
    assert cert.topk_mass_bound_ok
    assert 0 <= cert.max_item_gap <= cert.decrements
    assert cert.top_k_mass_est <= cert.top_k_mass


@pytest.mark.parametrize("capacity", [6, 10])
@pytest.mark.parametrize("seed", range(5))
def test_zipf_streams_meet_integer_bounds(capacity, seed):
    stream = zipf_item_stream(1000, universe=100, seed=seed)
    truth = Counter(stream)
    s = MgSummary(capacity)
    s.extend(stream)
    cert = error_certificate(s, truth, k=2)
    assert cert.decrement_bound_ok
    assert cert.topk_mass_bound_ok
    # per item the gap stays under the residual spread across free counters
    assert cert.max_item_gap * (capacity - 2) <= cert.residual_mass


def _assert_same_summary(summary, oracle, probes):
    def typed(state):
        return [(type(label), label, count) for label, count in state.items().items()]

    assert typed(summary) == typed(oracle)
    assert summary.decrement_total == oracle.decrement_total
    assert summary.n_processed == oracle.n_processed
    for label in probes:
        assert summary.estimate(label) == oracle.estimate(label)


# 1, 1.0 and True are one label to the scan and to the index alike
MIXED_LABELS = st.one_of(
    st.integers(-2, 3),
    st.sampled_from(["a", "b", "c"]),
    st.tuples(st.integers(0, 1), st.sampled_from(["x", "y"])),
    st.sampled_from([1, 1.0, True]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(MIXED_LABELS, max_size=120), st.integers(1, 8))
def test_index_matches_linear_scan_on_mixed_labels(stream, capacity):
    summary = MgSummary(capacity)
    summary.extend(stream)
    probes = stream + [99, "zz", (5, "x"), 2.5]
    _assert_same_summary(summary, mg_linear_oracle(stream, capacity), probes)


@settings(max_examples=300, deadline=None)
@given(st.lists(MIXED_LABELS, max_size=120), st.integers(1, 8), st.data())
def test_cuts_into_extend_and_update_calls_change_nothing(stream, capacity, data):
    # the loop keeps its state in locals for a call, so only cuts between
    # calls show a state it fails to write back; cut around the rounds that
    # free slots: before one, right after it, both (an update), or neither
    oracle = LinearMgSummary(capacity)
    cuts = set(data.draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    for i, item in enumerate(stream):
        rounds, held = oracle.decrement_total, len(oracle.items())
        oracle.update(item)
        if oracle.decrement_total > rounds and len(oracle.items()) < held:
            cuts.update(data.draw(st.sampled_from([(), (i,), (i + 1,), (i, i + 1)])))
    edges = sorted(cuts | {0, len(stream)})
    summary = MgSummary(capacity)
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo == 1 and data.draw(st.booleans()):
            summary.update(stream[lo])
        else:
            summary.extend(iter(stream[lo:hi]))
    whole = MgSummary(capacity)
    whole.extend(stream)
    probes = stream + [99, "zz", (5, "x"), 2.5]
    _assert_same_summary(summary, whole, probes)
    _assert_same_summary(summary, oracle, probes)


def test_unhashable_arrival_is_rejected_before_it_is_counted():
    s = MgSummary(2)
    with pytest.raises(TypeError):
        s.update([1])
    assert (s.n_processed, s.decrement_total, s.items()) == (0, 0, {})
    # the certificate's histogram holds the accepted arrivals only
    assert error_certificate(s, {}, k=1).n == 0
    s.update(1)
    assert error_certificate(s, {1: 1}, k=1).n == 1


class _StreamBroke(Exception):
    pass


def _breaks_after(items):
    yield from items
    raise _StreamBroke


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_an_extend_that_fails_midway_keeps_the_accepted_prefix(capacity):
    # rounds at capacity 1-3 fall all over this stream, so some failures come
    # right after a round that freed slots
    stream = [1, 2, 1, 3, 4, 1, 5, 5, 6, 2, 7, 1, 1, 8]
    probes = stream + [99]
    for j in range(len(stream) + 1):
        # an unhashable arrival at j, then an iterator that raises after j
        for bad in (stream[:j] + [{}] + stream[j:], _breaks_after(stream[:j])):
            s = MgSummary(capacity)
            with pytest.raises((TypeError, _StreamBroke)):
                s.extend(bad)
            by_update = MgSummary(capacity)
            for item in stream[:j]:
                by_update.update(item)
            _assert_same_summary(s, by_update, probes)
            # and the summary goes on as if the failed arrival never came
            s.extend(stream[j:])
            _assert_same_summary(s, mg_linear_oracle(stream, capacity), probes)


def test_index_matches_linear_scan_on_zipf_at_capacity_128():
    stream = zipf_item_stream(20000, universe=1000, seed=11, exponent=1.1).tolist()
    summary = MgSummary(128)
    summary.extend(stream)
    oracle = mg_linear_oracle(stream, 128)
    assert oracle.decrement_total > 0
    _assert_same_summary(summary, oracle, range(1000))


def test_storage_grows_with_labels_not_capacity():
    # a capacity-sized slot table would not fit in memory here
    s = MgSummary(10**12)
    s.extend([1, 2, 1])
    assert list(s.items().items()) == [(1, 2), (2, 1)]
    assert s.estimate(1) == 2
    assert s.decrement_total == 0


def test_hit_and_estimate_cost_at_most_two_comparisons():
    eq_calls = 0

    class Label:
        def __init__(self, key):
            self.key = key

        def __hash__(self):
            return hash(self.key)

        def __eq__(self, other):
            nonlocal eq_calls
            eq_calls += 1
            return isinstance(other, Label) and self.key == other.key

    s = MgSummary(128)
    s.extend(Label(i) for i in range(128))
    eq_calls = 0
    # fresh but equal objects, so identity cannot stand in for a comparison;
    # a scan would spend i + 1 comparisons on a hit of slot i
    s.extend(Label(j % 128) for j in range(10_000))
    assert s.decrement_total == 0
    assert eq_calls <= 2 * 10_000
    eq_calls = 0
    assert sum(s.estimate(Label(j % 128)) for j in range(10_000)) > 0
    assert eq_calls <= 2 * 10_000
