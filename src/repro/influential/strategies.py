"""Candidate-construction strategies for the local search (Algorithm 4).

A strategy receives the ordered neighbourhood ``V_i`` of a seed vertex and
the current top-r list ``L`` and decides which prefix-based candidate
communities to offer.  The paper gives two:

* :class:`SumStrategy` (Procedure SumStrategy) — take the first ``s``
  vertices as a block, then shrink from the tail until the block is a
  k-core whose value beats the current r-th best;
* :class:`AvgStrategy` (Procedure AvgStrategy) — grow the prefix one
  vertex at a time, testing every intermediate prefix; in greedy mode the
  first qualifying prefix wins (later vertices only lower the average, so
  it is safe to stop), otherwise the best qualifying prefix is kept.

Every candidate either strategy tests is a prefix of the ordered block —
shrinking from the tail walks the prefixes downwards — so one forward
:class:`PrefixSweep` per seed answers "is this prefix a connected
k-core?" for all of them, in the incremental style of a seed-set sweep
cut.  Values come from a running sum, minimum and maximum, in the same
float order as a recount (the forward total, minus the popped tail), so
every threshold comparison matches :mod:`repro.reference`'s strategies
bit for bit.

Cost per seed, for a block of ``s`` vertices: O(s) for the values; for
the prefixes actually tested, one O(min(d(v), p)) set intersection per
vertex counted (each at most once while the prefix grows) plus O(1) per
verdict the current witness still fails; and an O(p + edges) BFS for
each tested prefix that passes the degree test.  The paper's accounting
re-tests every prefix from scratch — a fresh set and a rescan of each
member's adjacency, O(s^2 d) per seed — and that form lives on in
:mod:`repro.reference` as the oracle.

Strategies are registered by aggregator family in ``strategy_for``; new
aggregators fall back to :class:`AvgStrategy`'s grow-and-test scheme, which
makes no monotonicity assumption (paper Remark 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import accumulate
from typing import Sequence

from repro.aggregators.base import Aggregator
from repro.graphs.graph import Graph
from repro.influential.community import Community, community_from_vertices
from repro.utils.stats import SubsetStats
from repro.utils.topr import TopR


class PrefixSweep:
    """Connected-k-core verdicts for the prefixes of one ordered block.

    The sweep holds the prefix last asked about as a set and moves it to
    each length asked.  A degree verdict needs one vertex below ``k`` to
    fail, or every vertex at ``k`` or more to pass, and internal degrees
    only rise while a prefix grows and only fall while it shrinks:

    * the vertex a failed verdict found below k (the witness) keeps a
      running degree, raised by each vertex that joins next to it.
      While it stays below k every verdict fails at once;
    * a vertex once counted at degree >= k stays there while the prefix
      grows.  Vertices not yet counted there wait on a stack, newest
      first, and a grown prefix is cohesive once the stack empties.  A
      shrink makes every count stale, so the next count starts over.

    Each count is one set intersection, O(min(d(v), p)).  The sweep
    reaches only as far as the longest prefix asked about, and the
    connectivity BFS runs only for a prefix that passed the degree test.
    """

    __slots__ = (
        "_adjacency", "_block", "_k", "_inside", "_length", "_unsure",
        "_stale", "_witness", "_witness_degree",
    )

    def __init__(self, adjacency: Sequence[set[int]], block: Sequence[int], k: int) -> None:
        self._adjacency = adjacency
        self._block = block
        self._k = k
        self._inside: set[int] = set()  # the first _length vertices of block
        self._length = 0
        self._unsure: list[int] = []  # inside, not yet counted at degree >= k
        self._stale = False  # a shrink voided the counts: all of inside is unsure
        self._witness: int | None = None  # inside and below k, or None
        self._witness_degree = 0

    def is_candidate(self, length: int) -> bool:
        """The strategies' "C is k-core" test for the first ``length``
        vertices: minimum induced degree >= k and connected (Definition
        3 needs both, and a weight-sorted prefix can be disconnected even
        when its BFS origin was connected)."""
        block, inside, witness = self._block, self._inside, self._witness
        if length < self._length:
            inside.difference_update(block[length : self._length])
            self._stale = True
            if witness not in inside:
                witness = self._witness = None
            # A witness kept keeps its old count, which is now an upper
            # bound: while that stays below k the verdict still fails, and
            # once it reaches k the stale recount below decides.
        else:
            joined = block[self._length : length]
            inside.update(joined)
            if not self._stale:
                self._unsure += joined
            if witness is not None:
                joined_adjacent = self._adjacency[witness].intersection(joined)
                self._witness_degree += len(joined_adjacent)
        self._length = length
        k = self._k
        if witness is not None:
            if self._witness_degree < k:
                return False
            self._witness = None
        if self._stale:
            self._unsure = list(block[:length])
            self._stale = False
        adjacency, unsure = self._adjacency, self._unsure
        while unsure:
            v = unsure.pop()
            degree = len(adjacency[v] & inside)
            if degree < k:
                self._witness, self._witness_degree = v, degree
                return False
        return self._connected(length)

    def _connected(self, length: int) -> bool:
        adjacency = self._adjacency
        root = self._block[0]
        unreached = set(self._block[:length])
        unreached.discard(root)
        frontier = [root]
        while frontier and unreached:
            found = adjacency[frontier.pop()] & unreached
            unreached -= found
            frontier.extend(found)
        return not unreached


class Strategy(ABC):
    """Turns an ordered seed neighbourhood into candidate communities."""

    def __init__(self, graph: Graph, k: int, s: int, aggregator: Aggregator) -> None:
        self.graph = graph
        self.k = k
        self.s = s
        self.aggregator = aggregator
        self._graph_total = (
            graph.total_weight if aggregator.needs_graph_total else None
        )
        self._adjacency = graph.adjacency
        self._weights = graph.weights.tolist()

    def _value(self, size: int, total: float, low: float, high: float) -> float:
        stats = SubsetStats(size, total, low, high)
        return self.aggregator.from_stats(stats, self._graph_total)

    def _make(self, vertices: Sequence[int]) -> Community:
        return community_from_vertices(self.graph, vertices, self.aggregator, self.k)

    @abstractmethod
    def offer_candidates(self, ordered: Sequence[int], top: TopR[Community]) -> None:
        """Derive candidates from ``ordered`` and offer them to ``top``."""


class SumStrategy(Strategy):
    """Procedure SumStrategy: block of s, shrink from the tail.

    For size-proportional aggregators the largest feasible prefix has the
    largest value, so the search starts from the full block and drops the
    last (in greedy mode: lightest) vertices until the k-core test passes
    or the value no longer beats the threshold.
    """

    def offer_candidates(self, ordered: Sequence[int], top: TopR[Community]) -> None:
        block = ordered[: self.s]  # Lines 3-5: first s vertices
        weights = [self._weights[v] for v in block]
        lows = list(accumulate(weights, min))
        highs = list(accumulate(weights, max))
        total = 0.0
        for weight in weights:
            total += weight
        sweep = PrefixSweep(self._adjacency, block, self.k)
        # Lines 6-12: shrink from the tail while worthwhile.  Nothing is
        # offered before the loop ends, so the threshold holds still.
        threshold = top.threshold()
        size = len(block)
        while size > self.k and self._value(
            size, total, lows[size - 1], highs[size - 1]
        ) > threshold:
            if sweep.is_candidate(size):
                top.offer(self._make(block[:size]))
                break
            size -= 1  # C.last leaves
            total -= weights[size]


class AvgStrategy(Strategy):
    """Procedure AvgStrategy: grow the prefix, test each step.

    ``greedy`` mirrors the paper's flag: with a descending-weight order the
    first qualifying prefix cannot be improved by adding lighter vertices,
    so greedy mode stops there (Lines 6-8); random mode collects every
    qualifying prefix and keeps the best (Lines 9-13).
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        s: int,
        aggregator: Aggregator,
        greedy: bool,
    ) -> None:
        super().__init__(graph, k, s, aggregator)
        self.greedy = greedy

    def offer_candidates(self, ordered: Sequence[int], top: TopR[Community]) -> None:
        block = ordered[: self.s]
        weights = self._weights
        sweep = PrefixSweep(self._adjacency, block, self.k)
        threshold = top.threshold()  # nothing is offered before the loop ends
        total, low, high = 0.0, float("inf"), float("-inf")
        best: tuple[float, int] | None = None
        for size, v in enumerate(block, 1):  # Lines 3-10
            weight = weights[v]
            total += weight
            if weight < low:
                low = weight
            if weight > high:
                high = weight
            if size <= self.k:
                continue
            value = self._value(size, total, low, high)
            if value > threshold and sweep.is_candidate(size):
                if self.greedy:
                    top.offer(self._make(block[:size]))  # Lines 6-8
                    return
                if best is None or value > best[0]:  # Line 10 collects; 12 argmax
                    best = (value, size)
        if best is not None:
            top.offer(self._make(block[: best[1]]))  # Line 13


def strategy_for(
    graph: Graph,
    k: int,
    s: int,
    aggregator: Aggregator,
    greedy: bool,
) -> Strategy:
    """Pick the paper's strategy for ``aggregator``.

    Size-proportional aggregators get SumStrategy; everything else the
    grow-and-test AvgStrategy (Remark 1's generic fallback).
    """
    if aggregator.is_size_proportional:
        return SumStrategy(graph, k, s, aggregator)
    return AvgStrategy(graph, k, s, aggregator, greedy)
