"""Weight statistics of vertex subsets, with incremental maintenance.

Every aggregation function in the paper's Table I is a function of the tuple
``(|H|, w(H), min w, max w)`` plus the graph-level total weight (needed only
by balanced density).  :class:`SubsetStats` is the immutable tuple;
:class:`IncrementalStats` maintains it under vertex insertions and removals
so a caller can re-evaluate ``f(C)`` in O(log s) per move instead of
O(|C|).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.utils.sortedlist import SortedMultiset


class _Fields(NamedTuple):
    size: int
    weight_sum: float
    weight_min: float
    weight_max: float


class SubsetStats(_Fields):
    """Immutable weight statistics of a vertex subset.

    A validated named tuple: local search evaluates ``f`` on every prefix
    it tests, and a tuple is about three times cheaper to build than a
    frozen dataclass.
    """

    __slots__ = ()

    def __new__(
        cls, size: int, weight_sum: float, weight_min: float, weight_max: float
    ) -> "SubsetStats":
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if size == 0 and weight_sum != 0.0:
            raise ValueError("empty subset must have zero weight sum")
        return _Fields.__new__(cls, size, weight_sum, weight_min, weight_max)

    @staticmethod
    def empty() -> "SubsetStats":
        """Statistics of the empty set (min/max are +/-inf sentinels)."""
        return SubsetStats(0, 0.0, float("inf"), float("-inf"))

    @staticmethod
    def of(weights: "list[float]") -> "SubsetStats":
        """Compute statistics of an explicit weight list."""
        if not weights:
            return SubsetStats.empty()
        return SubsetStats(len(weights), float(sum(weights)), min(weights), max(weights))


class IncrementalStats:
    """Mutable subset statistics with O(log s) add/remove.

    Minima/maxima are kept exact through a :class:`SortedMultiset`, so unlike
    the common sum-only accumulators this structure supports *removals*
    without ever recomputing from scratch — the property-based tests pin the
    equivalence with recomputation.
    """

    __slots__ = ("_weights", "_sum")

    def __init__(self) -> None:
        self._weights = SortedMultiset()
        self._sum = 0.0

    def __len__(self) -> int:
        return len(self._weights)

    def add(self, weight: float) -> None:
        """Account for one vertex of ``weight`` joining the subset."""
        self._weights.add(weight)
        self._sum += weight

    def remove(self, weight: float) -> None:
        """Account for one vertex of ``weight`` leaving the subset."""
        self._weights.remove(weight)
        self._sum -= weight

    @property
    def size(self) -> int:
        """Current subset cardinality."""
        return len(self._weights)

    @property
    def weight_sum(self) -> float:
        """Current total weight."""
        return self._sum

    def snapshot(self) -> SubsetStats:
        """Freeze the current statistics into a :class:`SubsetStats`."""
        if not self._weights:
            return SubsetStats.empty()
        return SubsetStats(
            len(self._weights), self._sum, self._weights.min(), self._weights.max()
        )
