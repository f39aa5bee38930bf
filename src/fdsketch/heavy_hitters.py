"""Deterministic heavy-hitters summary (Misra-Gries counters).

Keeps at most ``capacity`` labeled counters. Every arrival either bumps its
counter, claims a free slot, or, when the summary is full of other labels,
decrements every counter by one and is itself discarded. Estimates are
therefore never above the true frequency, and each of the ``r`` decrement
rounds destroys ``capacity + 1`` units of count mass, which is where the
error guarantees come from.

Labels are found through a dict, so they compare like dict keys: equal hash,
then identity or ``==``. Labels that are equal collapse to one counter
(``1``, ``1.0`` and ``True`` share a slot); a label that is not equal to
itself, such as NaN, matches only the very object that claimed the slot.

Cost: a hit, a slot claim and an :meth:`MgSummary.estimate` take O(1)
expected time. A decrement round walks the occupied slots once, which is
O(capacity), but it removes ``capacity + 1`` units of count that arrivals
put in, so a stream of n arrivals spends O(n) on all rounds together:
amortized O(1) per arrival. Storage grows with the labels seen, so memory is
O(min(capacity, distinct labels)).
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop
from typing import Hashable, Iterable, Mapping


class MgSummary:
    """Fixed-capacity frequency summary over a stream of hashable items."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        # slot i holds _labels[i] with _counts[i] > 0, or is free with count 0;
        # slots are appended until ``capacity`` exist, then only reused
        self._labels: list[Hashable] = []
        self._counts: list[int] = []
        self._slot_of: dict[Hashable, int] = {}
        # min-heap of free slots, so the lowest-indexed one is claimed first
        # and replays stay bit-identical
        self._free: list[int] = []
        self.n_processed = 0
        self.decrement_total = 0

    def update(self, item: Hashable) -> None:
        """Fold one arrival into the summary."""
        self.n_processed += 1
        slot = self._slot_of.get(item)
        if slot is not None:
            # the slot reports the label as it last arrived (1.0 after 1)
            self._labels[slot] = item
            self._counts[slot] += 1
            return
        if self._free:
            slot = heappop(self._free)
            self._labels[slot] = item
            self._counts[slot] = 1
        elif len(self._counts) < self.capacity:
            slot = len(self._counts)
            self._labels.append(item)
            self._counts.append(1)
        else:
            self._decrement_all()
            return
        self._slot_of[item] = slot

    def _decrement_all(self) -> None:
        """The round a full summary runs for an arrival it has no slot for."""
        self.decrement_total += 1
        counts = [count - 1 for count in self._counts]
        # ascending, hence already a valid heap; the heap was empty, since
        # a round runs only when every slot is taken
        freed = [slot for slot, count in enumerate(counts) if not count]
        for slot in freed:
            del self._slot_of[self._labels[slot]]
            self._labels[slot] = None
        self._counts = counts
        self._free = freed

    def extend(self, items: Iterable[Hashable]) -> None:
        for item in items:
            self.update(item)

    def estimate(self, item: Hashable) -> int:
        """Stored count for ``item``, or 0 when it holds no slot."""
        slot = self._slot_of.get(item)
        return 0 if slot is None else self._counts[slot]

    def items(self) -> dict[Hashable, int]:
        """Currently tracked labels and their counters (counts > 0 only), in
        slot order."""
        return {
            label: count
            for label, count in zip(self._labels, self._counts)
            if count
        }


@dataclass(frozen=True)
class MgCertificate:
    """Exact-oracle audit of a summary against true frequencies.

    ``top_k_mass`` is the true count mass of the k most frequent items,
    ``top_k_mass_est`` the summary's estimate of the same items, and
    ``residual_mass`` everything outside the true top k. The two booleans
    check the decrement-count bound and the top-k mass bound at their exact
    integer thresholds.
    """

    n: int
    capacity: int
    k: int
    decrements: int
    top_k_mass: int
    top_k_mass_est: int
    residual_mass: int
    max_item_gap: int
    decrement_bound_ok: bool
    topk_mass_bound_ok: bool


def error_certificate(
    summary: MgSummary, true_freqs: Mapping[Hashable, int], k: int
) -> MgCertificate:
    """Audit ``summary`` against an exact histogram of the same stream.

    Requires ``k < summary.capacity``. All checks are integer arithmetic:
    with r decrements, ell counters and residual mass R_k, the summary
    guarantees r * (ell - k) <= R_k and (F_k - F_k_est) * (ell - k) <= k * R_k.
    """
    ell = summary.capacity
    if not 0 < k < ell:
        raise ValueError("k must satisfy 0 < k < capacity")
    n = summary.n_processed
    total = sum(true_freqs.values())
    if total != n:
        raise ValueError(
            f"histogram covers {total} items but the summary processed {n}"
        )
    ranked = sorted(true_freqs.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    top = ranked[:k]
    f_k = sum(count for _, count in top)
    f_k_est = sum(summary.estimate(label) for label, _ in top)
    r_k = n - f_k
    r = summary.decrement_total
    gaps = [count - summary.estimate(label) for label, count in ranked]
    max_gap = max(gaps, default=0)
    return MgCertificate(
        n=n,
        capacity=ell,
        k=k,
        decrements=r,
        top_k_mass=f_k,
        top_k_mass_est=f_k_est,
        residual_mass=r_k,
        max_item_gap=max_gap,
        decrement_bound_ok=r * (ell - k) <= r_k,
        topk_mass_bound_ok=(f_k - f_k_est) * (ell - k) <= k * r_k,
    )
