"""Parity tests for the columnar engine's numpy primitives.

The contract of :mod:`repro.simulator.kernels` is strict: every primitive
returns *bit-identical* floats to the expression it replaces, because the
engine's trace-parity discipline tolerates no drift in rates or deadline
instants.  These tests pin

* the water-fill against the scalar reference fold in ``sharing`` on
  adversarial grouped demands (ties, huge multiplicities, degenerate sizes),
* the fused progress/deadline helpers against the engine's unfused numpy
  expressions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import kernels
from repro.simulator.sharing import (
    _hungry_level_grouped,
    _hungry_level_grouped_arrays,
)

demand_values = st.one_of(
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
    st.sampled_from([0.25, 0.5, 1.0, 1.0, 2.0]),  # encourage exact ties
)
group_lists = st.lists(
    st.tuples(demand_values, st.integers(min_value=1, max_value=10_000)),
    min_size=0,
    max_size=12,
)


class TestWaterFillParity:
    @given(
        others=group_lists,
        capacity=st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
        hungry=st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference_exactly(self, others, capacity, hungry):
        scalar = _hungry_level_grouped(others, capacity, hungry)
        demands = np.array([d for d, _ in others])
        counts = np.array([c for _, c in others], dtype=np.int64)
        assert kernels.water_fill_grouped(demands, counts, capacity, hungry) == scalar

    def test_sharing_dispatches_through_kernels(self):
        demands = np.array([1.0, 0.25, 1.0])
        counts = np.array([3, 7, 2], dtype=np.int64)
        assert _hungry_level_grouped_arrays(
            demands, counts, 10.0, 4
        ) == kernels.water_fill_grouped(demands, counts, 10.0, 4)

    def test_empty_group(self):
        assert kernels.water_fill_grouped(np.array([]), np.array([], dtype=np.int64), 8.0, 4) == 2.0

    def test_all_tied_demands(self):
        # Every group at exactly the same demand: either all fit or none do.
        demands = np.full(6, 0.125)
        counts = np.full(6, 5, dtype=np.int64)
        scalar = _hungry_level_grouped([(0.125, 5)] * 6, 100.0, 3)
        assert kernels.water_fill_grouped(demands, counts, 100.0, 3) == scalar


class TestFusedColumnHelpers:
    @given(
        n=st.integers(min_value=0, max_value=64),
        now=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_advance_progress_matches_unfused(self, n, now, seed):
        rng = np.random.default_rng(seed)
        prog = rng.uniform(0.0, 1.0, n)
        tbase = rng.uniform(0.0, 1e6, n)
        rate = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(1e-9, 10.0, n))
        targets = rng.uniform(0.0, 2.0, n)
        advanced = (rate > 0.0) & (now > tbase)
        expected = np.where(
            advanced, np.minimum(targets, prog + (now - tbase) * rate), prog
        )
        got = kernels.advance_progress(prog, tbase, rate, targets, now)
        assert np.array_equal(got, expected)

    @given(
        n=st.integers(min_value=0, max_value=64),
        now=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_deadline_when_matches_unfused(self, n, now, seed):
        rng = np.random.default_rng(seed)
        targets = rng.uniform(0.0, 2.0, n)
        prog = rng.uniform(0.0, 2.0, n)
        rates = rng.uniform(1e-9, 10.0, n)
        expected = now + np.maximum(0.0, targets - prog) / rates
        assert np.array_equal(
            kernels.deadline_when(now, targets, prog, rates), expected
        )
