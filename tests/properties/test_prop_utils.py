"""Property-based tests for the utility data structures."""

from hypothesis import given
from hypothesis import strategies as st

from repro.reference import IncrementalStats, SortedMultiset
from repro.utils.heaps import IndexedMaxHeap, LazyMaxHeap
from repro.utils.stats import SubsetStats
from repro.utils.topr import TopR
from repro.utils.zobrist import ZobristHasher


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
def test_indexed_heap_pops_sorted(values):
    heap = IndexedMaxHeap()
    for i, v in enumerate(values):
        heap.push(i, v)
    popped = [heap.pop()[1] for __ in range(len(values))]
    assert popped == sorted(values, reverse=True)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1),
    st.data(),
)
def test_indexed_heap_random_removals(values, data):
    heap = IndexedMaxHeap()
    for i, v in enumerate(values):
        heap.push(i, v)
    alive = dict(enumerate(values))
    removals = data.draw(
        st.lists(st.sampled_from(sorted(alive)), unique=True, max_size=len(alive))
    )
    for item in removals:
        heap.remove(item)
        del alive[item]
    popped = [heap.pop()[1] for __ in range(len(heap))]
    assert popped == sorted(alive.values(), reverse=True)


@given(st.lists(st.tuples(st.floats(0, 100), st.integers()), min_size=1))
def test_lazy_heap_max_invariant(entries):
    heap: LazyMaxHeap[int] = LazyMaxHeap()
    for priority, payload in entries:
        heap.push(priority, payload)
    top_priority, __ = heap.pop()
    assert top_priority == max(p for p, __ in entries)


@given(st.lists(st.floats(0, 1000), min_size=1), st.integers(1, 10))
def test_topr_equals_sorted_prefix(values, r):
    top: TopR[float] = TopR(r, key=lambda v: v)
    top.offer_all(values)
    assert top.ranked() == sorted(values, reverse=True)[:r]


@given(st.lists(st.floats(0, 1000), min_size=1), st.integers(1, 10))
def test_topr_threshold_is_rth(values, r):
    top: TopR[float] = TopR(r, key=lambda v: v)
    top.offer_all(values)
    if len(values) >= r:
        assert top.threshold() == sorted(values, reverse=True)[r - 1]
    else:
        assert top.threshold() == float("-inf")


@given(st.lists(st.floats(0, 100)))
def test_sorted_multiset_matches_sorted_list(values):
    ms = SortedMultiset()
    for v in values:
        ms.add(v)
    assert list(ms) == sorted(values)


@given(
    st.lists(
        st.tuples(st.booleans(), st.sampled_from([1.0, 2.0, 3.0, 5.0])),
        max_size=50,
    )
)
def test_incremental_stats_equals_recompute(ops):
    inc = IncrementalStats()
    reference: list[float] = []
    for add, value in ops:
        if add or not reference:
            inc.add(value)
            reference.append(value)
        else:
            victim = reference.pop()
            inc.remove(victim)
    assert inc.snapshot() == SubsetStats.of(reference)


@given(st.sets(st.integers(0, 63)), st.sets(st.integers(0, 63)))
def test_zobrist_symmetric_difference(a, b):
    hasher = ZobristHasher(64)
    assert hasher.hash_set(a) ^ hasher.hash_set(b) == hasher.hash_set(
        a.symmetric_difference(b)
    )
