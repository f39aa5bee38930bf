"""The sketch's documented promises, checked over random sequences of its
public operations.

Every rule applies one operation to each replica: ``main`` takes blocks
through ``extend``, ``shadow`` the same rows one ``append`` at a time, and
``twin``, once a copy rule has made it, takes what ``main`` takes. Only
``main`` is read. The replicas must stay bit-identical (cut independence,
copy continuity, reads leave later bits alone), and ``main`` must pass
``error_report`` against the whole stream it summarizes, merged-in rows
included. A merge must leave both its inputs as they were, and a saved and
reloaded sketch must keep its geometry, buffer bits and counters.
"""
import os
import shutil
import tempfile

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from fdsketch.io import load_sketch, save_sketch
from fdsketch.sketch import FdSketch, error_report, sketch_rows_for

BATCH_FACTORS = (1.0, 1.7, 2.0, 3.0)
EPS = 0.5

# (seed, rows, kind); the width comes from the machine
blocks = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(0, 24),
    st.sampled_from(("gaussian", "rank_deficient", "row_scaled", "column_scaled")),
)


def _rows(block, d: int) -> np.ndarray:
    """A block of Gaussian, rank-2, row-scaled (1e+-8) or column-scaled
    (1e+-6) rows, about a tenth of them zero."""
    seed, n, kind = block
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    if kind == "rank_deficient":
        rows = rng.normal(size=(n, 2)) @ rng.normal(size=(2, d))
    elif kind == "row_scaled":
        rows *= 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 1))
    elif kind == "column_scaled":
        rows *= 10.0 ** rng.uniform(-6.0, 6.0, size=d)
    rows[rng.random(n) < 0.1] = 0.0
    return rows


def _bits(sk: FdSketch):
    """What a sketch exposes: geometry, buffer bits and counters."""
    return sk.params, sk._buf.tobytes(), sk.rows_seen, sk.input_frob_sq, sk.delta_sum


def _snapshot(sk: FdSketch) -> list:
    """Every array field by bits and layout, every integer and tuple field,
    and the counters: what an operation that leaves a sketch untouched
    leaves as it was."""
    fields = [sk.rows_seen, sk.input_frob_sq, sk.delta_sum]
    for name, value in sorted(vars(sk).items()):
        if isinstance(value, np.ndarray):
            fields.append((name, value.tobytes(order="A"), value.strides))
        elif isinstance(value, (int, tuple)) or value is None:
            fields.append((name, value))
    return fields


class SketchMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="fdsketch-machine-")
        self.twin = None

    @initialize(k=st.integers(2, 3), extra=st.integers(1, 20))
    def start(self, k, extra):
        self.k = k
        # wider than ell, so one-row compressions take the Gram route; the
        # sketch starts at batch factor 1, the one that defers them, and a
        # merge widens it to the other's
        self.d = sketch_rows_for(k, EPS) + extra
        self.main = FdSketch(k, EPS, self.d)
        self.shadow = FdSketch(k, EPS, self.d)
        self.stream = []

    def _replicas(self) -> list:
        return [sk for sk in (self.main, self.shadow, self.twin) if sk is not None]

    def _extend(self, rows: np.ndarray) -> None:
        self.main.extend(rows)
        if self.twin is not None:
            self.twin.extend(rows)
        for row in rows:
            self.shadow.append(row)
        self.stream.append(rows)

    def _path(self) -> str:
        return os.path.join(self.dir, "s.fdsk")

    @rule(block=blocks)
    def extend(self, block):
        self._extend(_rows(block, self.d))

    @rule()
    def copy(self):
        self.twin = self.main.copy()

    @rule(block=blocks)
    def copy_before_every_row(self, block):
        # so a copy is taken right after every compression the block causes,
        # and must take the next row as the original does
        for row in _rows(block, self.d):
            self.twin = self.main.copy()
            self._extend(row[None])
            assert _bits(self.twin) == _bits(self.main)

    @rule(block=blocks, c=st.sampled_from(BATCH_FACTORS), other_first=st.booleans())
    def merge(self, block, c, other_first):
        other = FdSketch(self.k, EPS, self.d, c)
        rows = _rows(block, self.d)
        other.extend(rows)
        before = _snapshot(other)
        merged = []
        for sk in self._replicas():
            mine = _snapshot(sk)
            merged.append(other.merge(sk) if other_first else sk.merge(other))
            assert _snapshot(sk) == mine
            assert _snapshot(other) == before
        self.main, self.shadow, *twin = merged
        self.twin = twin[0] if twin else None
        self.stream.append(rows)

    @rule()
    def save_and_load(self):
        loaded = []
        for sk in self._replicas():
            save_sketch(self._path(), sk)
            back = load_sketch(self._path())
            assert _bits(back) == _bits(sk)
            loaded.append(back)
        self.main, self.shadow, *twin = loaded
        self.twin = twin[0] if twin else None

    @rule()
    def read(self):
        self.main.copy().query()
        error_report(self._stream(), self.main)
        save_sketch(self._path(), self.main)

    def _stream(self) -> np.ndarray:
        return np.concatenate(self.stream) if self.stream else np.zeros((0, self.d))

    @invariant()
    def replicas_agree(self):
        for sk in self._replicas()[1:]:
            assert _bits(sk) == _bits(self.main)

    @invariant()
    def bounds_hold(self):
        assert error_report(self._stream(), self.main).all_ok

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# the same sequences on every run and machine, in about 4 s
SketchMachine.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=50, stateful_step_count=15
)
TestSketchMachine = SketchMachine.TestCase
