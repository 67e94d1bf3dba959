"""Weight statistics of vertex subsets.

Every aggregation function in the paper's Table I is a function of the tuple
``(|H|, w(H), min w, max w)`` plus the graph-level total weight (needed only
by balanced density).  :class:`SubsetStats` is that immutable tuple.
"""

from __future__ import annotations

from typing import NamedTuple


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
