"""Tests for oblivious primitives: correctness and data-independence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TEEError
from repro.tee.oblivious import (
    TOUCHES,
    ObliviousAggregator,
    oblivious_access,
    oblivious_select,
    oblivious_sort,
    oblivious_write,
)


class TestSelect:
    def test_true_branch(self):
        assert oblivious_select(True, 1.0, 2.0) == 1.0

    def test_false_branch(self):
        assert oblivious_select(False, 1.0, 2.0) == 2.0


class TestAccess:
    def test_reads_correct_value(self):
        array = np.array([10.0, 20.0, 30.0])
        assert oblivious_access(array, 1) == 20.0

    def test_touches_every_element(self):
        array = np.arange(16, dtype=float)
        before = TOUCHES.element_touches
        oblivious_access(array, 3)
        assert TOUCHES.element_touches - before == 16

    def test_touch_count_independent_of_index(self):
        array = np.arange(8, dtype=float)
        counts = []
        for index in range(8):
            before = TOUCHES.element_touches
            oblivious_access(array, index)
            counts.append(TOUCHES.element_touches - before)
        assert len(set(counts)) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(TEEError):
            oblivious_access(np.zeros(3), 5)


class TestWrite:
    def test_writes_correct_slot(self):
        array = np.zeros(4)
        oblivious_write(array, 2, 7.0)
        assert list(array) == [0.0, 0.0, 7.0, 0.0]

    def test_touch_count_independent_of_index(self):
        counts = []
        for index in range(5):
            array = np.zeros(5)
            before = TOUCHES.element_touches
            oblivious_write(array, index, 1.0)
            counts.append(TOUCHES.element_touches - before)
        assert len(set(counts)) == 1


class TestSort:
    def test_sorts_correctly(self):
        values = np.array([5.0, 1.0, 9.0, 3.0, 7.0])
        assert list(oblivious_sort(values)) == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_handles_non_power_of_two(self):
        values = np.array([3.0, 1.0, 2.0])
        assert list(oblivious_sort(values)) == [1.0, 2.0, 3.0]

    def test_empty_and_single(self):
        assert list(oblivious_sort(np.array([]))) == []
        assert list(oblivious_sort(np.array([4.0]))) == [4.0]

    def test_comparison_count_is_data_independent(self):
        rng = np.random.default_rng(1)
        counts = []
        for _ in range(4):
            before = TOUCHES.compare_exchanges
            oblivious_sort(rng.normal(size=13))
            counts.append(TOUCHES.compare_exchanges - before)
        # Same n -> same network -> same compare-exchange count.
        assert len(set(counts)) == 1

    def test_input_not_mutated(self):
        values = np.array([2.0, 1.0])
        oblivious_sort(values)
        assert list(values) == [2.0, 1.0]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), max_size=32))
    def test_matches_numpy_sort(self, values):
        result = oblivious_sort(np.array(values))
        assert np.allclose(result, np.sort(np.array(values)))


class TestAggregator:
    def test_per_bucket_sums(self):
        agg = ObliviousAggregator(num_buckets=3)
        agg.add(0, 1.0)
        agg.add(2, 5.0)
        agg.add(0, 2.0)
        assert list(agg.sums) == [3.0, 0.0, 5.0]
        assert list(agg.counts) == [2.0, 0.0, 1.0]

    def test_every_add_touches_all_buckets(self):
        agg = ObliviousAggregator(num_buckets=4)
        agg.add(1, 1.0)
        agg.add(3, 1.0)
        assert agg.counter.element_touches == 8

    def test_invalid_bucket_rejected(self):
        agg = ObliviousAggregator(num_buckets=2)
        with pytest.raises(TEEError):
            agg.add(5, 1.0)

    def test_zero_buckets_rejected(self):
        with pytest.raises(TEEError):
            ObliviousAggregator(num_buckets=0)
