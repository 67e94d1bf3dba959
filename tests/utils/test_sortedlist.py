"""Unit tests for the bisect-backed sorted multiset."""

import pytest

from repro.reference import SortedMultiset


def test_construction_sorts():
    ms = SortedMultiset([3.0, 1.0, 2.0])
    assert list(ms) == [1.0, 2.0, 3.0]


def test_add_keeps_order_and_duplicates():
    ms = SortedMultiset()
    for x in [5.0, 1.0, 5.0, 3.0]:
        ms.add(x)
    assert list(ms) == [1.0, 3.0, 5.0, 5.0]
    assert ms.count(5.0) == 2


def test_remove_one_occurrence():
    ms = SortedMultiset([2.0, 2.0, 3.0])
    ms.remove(2.0)
    assert list(ms) == [2.0, 3.0]


def test_remove_missing_raises():
    ms = SortedMultiset([1.0])
    with pytest.raises(KeyError):
        ms.remove(9.0)


def test_discard_returns_flag():
    ms = SortedMultiset([1.0])
    assert ms.discard(1.0) is True
    assert ms.discard(1.0) is False


def test_min_max_kth():
    ms = SortedMultiset([4.0, 1.0, 3.0])
    assert ms.min() == 1.0
    assert ms.max() == 4.0
    assert ms.kth(1) == 3.0


def test_min_max_empty_raise():
    ms = SortedMultiset()
    with pytest.raises(ValueError):
        ms.min()
    with pytest.raises(ValueError):
        ms.max()


def test_contains():
    ms = SortedMultiset([1.5, 2.5])
    assert 1.5 in ms
    assert 2.0 not in ms
