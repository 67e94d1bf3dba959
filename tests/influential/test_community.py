"""Unit tests for the Community result type."""

import pickle

import numpy as np
import pytest

from repro.aggregators.summation import Sum
from repro.influential.community import Community, community_from_vertices
from repro.influential.expansion import ChildCandidate
from repro.influential.expansion_csr import MemberArray
from repro.utils.zobrist import ZobristHasher


def test_construction_and_accessors():
    c = Community(frozenset({3, 1, 2}), 6.0, "sum", 2)
    assert c.size == 3
    assert c.members() == [1, 2, 3]
    assert c.value == 6.0


def test_empty_rejected():
    with pytest.raises(ValueError):
        Community(frozenset(), 0.0, "sum", 2)


def test_ordering_best_first():
    a = Community(frozenset({1}), 10.0, "sum", 2)
    b = Community(frozenset({2}), 5.0, "sum", 2)
    assert sorted([b, a]) == [a, b]


def test_tie_break_smaller_then_lexicographic():
    big = Community(frozenset({1, 2, 3}), 5.0, "sum", 2)
    small = Community(frozenset({9, 8}), 5.0, "sum", 2)
    assert sorted([big, small]) == [small, big]
    x = Community(frozenset({1, 5}), 5.0, "sum", 2)
    y = Community(frozenset({1, 7}), 5.0, "sum", 2)
    assert sorted([y, x]) == [x, y]


def test_overlaps():
    a = Community(frozenset({1, 2}), 1.0, "sum", 2)
    b = Community(frozenset({2, 3}), 1.0, "sum", 2)
    c = Community(frozenset({4}), 1.0, "sum", 2)
    assert a.overlaps(b)
    assert not a.overlaps(c)


def test_from_vertices_computes_value(triangle):
    c = community_from_vertices(triangle, [0, 1, 2], Sum(), 2)
    assert c.value == 6.0
    assert c.aggregator == "sum"
    assert c.k == 2


def test_labels_and_describe(figure1):
    c = community_from_vertices(figure1, [0, 1, 3], Sum(), 2)
    assert c.labels(figure1) == ["v1", "v2", "v4"]
    text = c.describe(figure1)
    assert "v1" in text and "sum=72" in text


def test_describe_truncates():
    c = Community(frozenset(range(20)), 1.0, "sum", 2)
    assert "+8 more" in c.describe(max_members=12)


def test_hashable_and_frozen():
    c = Community(frozenset({1}), 1.0, "sum", 2)
    assert hash(c) is not None
    with pytest.raises(AttributeError):
        c.value = 2.0  # type: ignore[misc]


def test_boundary_conversion_matches_frozenset_construction():
    """``to_community`` hands a MemberArray's sorted ids straight to the
    result object; it must be indistinguishable from the frozenset
    construction (members, equality, hash, ordering, repr, pickling)."""
    hasher = ZobristHasher(5000)
    ids = np.random.default_rng(3).choice(5000, 1500, replace=False)
    members = MemberArray.from_iterable(ids.tolist(), hasher)
    fast = ChildCandidate(members, 12.5, members.key).to_community("sum", 4)
    old = Community(frozenset(ids.tolist()), 12.5, "sum", 4)
    assert fast.members() == old.members() == sorted(ids.tolist())
    assert fast == old and hash(fast) == hash(old)
    assert fast.sort_key() == old.sort_key()
    assert repr(fast) == repr(old)
    assert pickle.loads(pickle.dumps(fast)).members() == old.members()
    # The reference engine's frozensets take the ordinary constructor.
    plain = ChildCandidate(frozenset(ids.tolist()), 12.5, 0)
    assert plain.to_community("sum", 4) == old
    with pytest.raises(ValueError):
        Community._from_sorted((), 0.0, "sum", 2)
