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
cut.  Values come from a running sum, plus a running minimum and maximum
for aggregators that read them (``reads_extremes``), in the same float
order as a recount (the forward total, minus the popped tail), and go
through :meth:`~repro.aggregators.base.Aggregator.from_scalars`, so
every threshold comparison matches :mod:`repro.reference`'s strategies
bit for bit without a :class:`~repro.utils.stats.SubsetStats` per length.

Cost per seed, for a block of ``s`` vertices: O(s) for the values, and
one value when SumStrategy's full block cannot beat the threshold; for
the prefixes actually tested, one O(min(d(v), p)) set intersection per
vertex counted plus O(1) per verdict the current witness still fails;
and an O(p + edges) BFS for each tested prefix that passes the degree
test.  While the prefix grows each vertex is counted at most once.  A
shrink recounts head first, and the first vertex below k fails every
length down to its own position, so SumStrategy pays one recount per
witness, not per length, and walks the lengths in between on values
alone.  The paper's accounting re-tests every prefix from scratch — a
fresh set and a rescan of each member's adjacency, O(s^2 d) per seed —
and that form lives on in :mod:`repro.reference` as the oracle.

Each strategy keeps one loop, run two ways.  :meth:`Strategy
.offer_candidates` runs it at the live threshold, as Algorithm 4 does;
:meth:`Strategy.capture` runs it at threshold -inf and returns what the
seed would offer at *any* threshold, which an
:class:`~repro.influential.local_search.OfferLog` replays for any r.

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
from repro.utils.counters import count
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
      shrink makes every count stale, so the next count starts over,
      head first.

    A witness at position ``i`` fails every prefix that still holds it at
    a degree no higher, so a failed verdict covers the lengths from
    :meth:`failing_from` up to the one asked; a head-first recount finds
    the earliest witness and so the widest such range.

    Each count is one set intersection, O(min(d(v), p)).  The sweep
    reaches only as far as the longest prefix asked about, and the
    connectivity BFS runs only for a prefix that passed the degree test.
    """

    __slots__ = (
        "_adjacency", "_block", "_k", "_inside", "_length", "_unsure",
        "_stale", "_witness", "_witness_at", "_witness_degree",
    )

    def __init__(self, adjacency: Sequence[set[int]], block: Sequence[int], k: int) -> None:
        self._adjacency = adjacency
        self._block = block
        self._k = k
        self._inside: set[int] = set()  # the first _length vertices of block
        self._length = 0
        self._unsure: list[int] = []  # positions inside, not yet counted at >= k
        self._stale = True  # every vertex inside is unsure, to count head first
        self._witness: set[int] | None = None  # neighbours of the witness
        self._witness_at = 0  # its position in block: inside and below k
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
            if self._witness_at >= length:
                witness = self._witness = None
            # A witness kept keeps its old count, which is now an upper
            # bound: while that stays below k the verdict still fails, and
            # once it reaches k the stale recount below decides.
        else:
            joined = block[self._length : length]
            inside.update(joined)
            if not self._stale:
                self._unsure += range(self._length, length)
            if witness is not None:
                self._witness_degree += len(witness.intersection(joined))
        self._length = length
        k = self._k
        if witness is not None:
            if self._witness_degree < k:
                return False
            self._witness = None
        adjacency = self._adjacency
        if self._stale:
            self._stale = False
            for i in range(length):
                near = adjacency[block[i]]
                degree = len(near & inside)
                if degree < k:
                    self._witness, self._witness_at = near, i
                    self._witness_degree = degree
                    # The rest is uncounted, the earliest on top.
                    self._unsure = list(range(length - 1, i, -1))
                    return False
            self._unsure = []
        else:
            unsure = self._unsure
            while unsure:
                i = unsure.pop()
                near = adjacency[block[i]]
                degree = len(near & inside)
                if degree < k:
                    self._witness, self._witness_at = near, i
                    self._witness_degree = degree
                    return False
        return self._connected(length)

    def failing_from(self) -> int:
        """After a False verdict, the shortest length it covers: every
        prefix from this length to the one asked fails too."""
        if self._witness is None:  # disconnected: this length alone
            return self._length
        return self._witness_at + 1

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

    def _make(self, vertices: Sequence[int]) -> Community:
        return community_from_vertices(self.graph, vertices, self.aggregator, self.k)

    @abstractmethod
    def offer_candidates(self, ordered: Sequence[int], top: TopR[Community]) -> None:
        """Derive candidates from ``ordered`` and offer them to ``top``."""

    @abstractmethod
    def capture(self, ordered: Sequence[int]) -> tuple[tuple[float, int], ...]:
        """What :meth:`offer_candidates` would offer from ``ordered`` at
        any threshold, as ``(value, length)`` steps with rising values:
        at threshold T the offer is the prefix of the first step whose
        value is above T, and nothing when no step is."""


class SumStrategy(Strategy):
    """Procedure SumStrategy: block of s, shrink from the tail.

    For size-proportional aggregators the largest feasible prefix has the
    largest value, so the search starts from the full block and drops the
    last (in greedy mode: lightest) vertices until the k-core test passes
    or the value no longer beats the threshold.  A failed verdict also
    decides the shorter lengths it covers (:meth:`PrefixSweep.failing_from`),
    so the walk down to the next open length compares values only.
    """

    def offer_candidates(self, ordered: Sequence[int], top: TopR[Community]) -> None:
        found = self._shrink(ordered[: self.s], top.threshold())
        if found is not None:
            top.offer(self._make(ordered[: found[1]]))

    def capture(self, ordered: Sequence[int]) -> tuple[tuple[float, int], ...]:
        """The shrink at threshold -inf: the largest cohesive prefix and
        the lowest value walked down to it.  At threshold T the shrink
        offers that prefix exactly when the lowest value is above T,
        and nothing otherwise."""
        found = self._shrink(ordered[: self.s], float("-inf"))
        return () if found is None else (found,)

    def _shrink(
        self, block: Sequence[int], threshold: float
    ) -> tuple[float, int] | None:
        """Lines 6-12: walk the lengths down from the whole block while
        the value stays above ``threshold``; the first cohesive one wins.
        Returns ``(lowest value walked, length)``, or None."""
        weights = [self._weights[v] for v in block]  # Lines 3-5: first s
        total = 0.0
        for weight in weights:
            total += weight
        value_of, graph_total = self.aggregator.from_scalars, self._graph_total
        k = self.k
        size = len(block)
        if size <= k or not value_of(
            size, total, min(weights), max(weights), graph_total
        ) > threshold:
            count("prefixes_tested", 0)
            return None
        if self.aggregator.reads_extremes:
            lows = list(accumulate(weights, min))
            highs = list(accumulate(weights, max))
        else:  # value_of ignores min and max: skip the prefix scans
            lows = highs = weights
        sweep = PrefixSweep(self._adjacency, block, k)
        decided = size + 1  # lengths >= decided are known to fail
        tested = 0
        lowest = float("inf")
        while size > k:
            value = value_of(size, total, lows[size - 1], highs[size - 1], graph_total)
            if not value > threshold:
                break
            if value < lowest:
                lowest = value
            tested += 1
            if size < decided:
                if sweep.is_candidate(size):
                    count("prefixes_tested", tested)
                    return lowest, size
                decided = sweep.failing_from()
            size -= 1  # C.last leaves
            total -= weights[size]
        count("prefixes_tested", tested)
        return None


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
        hits = self._grow(ordered[: self.s], top.threshold(), rising=False)
        if hits:
            top.offer(self._make(ordered[: hits[-1][1]]))  # Line 13

    def capture(self, ordered: Sequence[int]) -> tuple[tuple[float, int], ...]:
        """The grow at threshold -inf, the threshold raised to each hit.

        The hits are the cohesive prefixes whose value beats every
        earlier cohesive one.  At threshold T greedy mode offers the
        first cohesive prefix above T, which is always a hit: the first
        hit above T.  Random mode offers the first argmax when its value
        is above T: the last hit.
        """
        hits = self._grow(ordered[: self.s], float("-inf"), rising=True)
        return tuple(hits) if self.greedy else tuple(hits[-1:])

    def _grow(
        self, block: Sequence[int], threshold: float, rising: bool
    ) -> list[tuple[float, int]]:
        """Lines 3-12: the cohesive prefixes above ``threshold`` that beat
        every earlier one, as ``(value, length)``.  Greedy mode stops at
        the first unless ``rising``, which instead raises the threshold
        to each one's value, so only a better prefix is tested next."""
        weights = self._weights
        value_of, graph_total = self.aggregator.from_scalars, self._graph_total
        k = self.k
        stop = self.greedy and not rising
        sweep = None  # built by the first test
        total, low, high = 0.0, float("inf"), float("-inf")
        hits: list[tuple[float, int]] = []
        tested = 0
        for size, v in enumerate(block, 1):  # Lines 3-10
            weight = weights[v]
            total += weight
            if weight < low:
                low = weight
            if weight > high:
                high = weight
            if size <= k:
                continue
            value = value_of(size, total, low, high, graph_total)
            if not value > threshold:
                continue
            tested += 1
            if sweep is None:
                sweep = PrefixSweep(self._adjacency, block, k)
            if sweep.is_candidate(size):
                if not hits or value > hits[-1][0]:  # Line 10 collects; 12 argmax
                    hits.append((value, size))
                if rising:
                    threshold = value
                elif stop:
                    break  # Lines 6-8: the first qualifying prefix wins
        count("prefixes_tested", tested)
        return hits


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
