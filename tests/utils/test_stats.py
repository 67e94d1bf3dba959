"""Unit tests for subset statistics."""

import pytest

from repro.reference import IncrementalStats
from repro.utils.stats import SubsetStats


class TestSubsetStats:
    def test_of_list(self):
        stats = SubsetStats.of([2.0, 5.0, 3.0])
        assert stats.size == 3
        assert stats.weight_sum == 10.0
        assert stats.weight_min == 2.0
        assert stats.weight_max == 5.0

    def test_empty(self):
        stats = SubsetStats.empty()
        assert stats.size == 0
        assert stats.weight_sum == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SubsetStats(-1, 0.0, 0.0, 0.0)

    def test_nonzero_sum_on_empty_rejected(self):
        with pytest.raises(ValueError):
            SubsetStats(0, 1.0, 0.0, 0.0)


class TestIncrementalStats:
    def test_add_then_snapshot(self):
        inc = IncrementalStats()
        for w in [1.0, 4.0, 2.0]:
            inc.add(w)
        snap = inc.snapshot()
        assert snap == SubsetStats(3, 7.0, 1.0, 4.0)

    def test_remove_restores_extrema(self):
        inc = IncrementalStats()
        for w in [1.0, 4.0, 2.0]:
            inc.add(w)
        inc.remove(1.0)
        snap = inc.snapshot()
        assert snap.weight_min == 2.0
        assert snap.weight_sum == 6.0

    def test_remove_absent_raises(self):
        inc = IncrementalStats()
        inc.add(1.0)
        with pytest.raises(KeyError):
            inc.remove(2.0)

    def test_matches_recompute_after_mixed_ops(self):
        inc = IncrementalStats()
        reference: list[float] = []
        ops = [("+", 3.0), ("+", 1.0), ("+", 3.0), ("-", 3.0), ("+", 9.0), ("-", 1.0)]
        for op, w in ops:
            if op == "+":
                inc.add(w)
                reference.append(w)
            else:
                inc.remove(w)
                reference.remove(w)
        assert inc.snapshot() == SubsetStats.of(reference)

    def test_empty_snapshot(self):
        assert IncrementalStats().snapshot() == SubsetStats.empty()

    def test_len_and_properties(self):
        inc = IncrementalStats()
        inc.add(2.0)
        inc.add(3.0)
        assert len(inc) == 2
        assert inc.size == 2
        assert inc.weight_sum == 5.0
