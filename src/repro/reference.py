"""Reference implementations: the original set-of-sets engine.

Production runs one engine — flat CSR arrays and the kernel tier.  The
pure-Python implementations it replaced live on here, unchanged, as the
oracle that tests and benches compare against:

* :func:`core_decomposition` — Batagelj–Zaveršnik bucket peeling over
  the set adjacency;
* :func:`edge_supports` — forward-neighbour set intersections;
* :class:`ExpansionContext` — the dict/set expansion engine of
  Algorithms 1 and 2, with :func:`seed_candidates` and
  :func:`expansion_context` as drop-in set twins of the factories in
  :mod:`repro.influential.expansion`;
* :class:`SumStrategy` / :class:`AvgStrategy` (picked by
  :func:`strategy_for`) — Algorithm 4's candidate strategies, which
  re-test every prefix with :func:`_is_candidate` (a fresh set and a
  rescan of each member's adjacency, via :func:`is_kcore_subset`) and
  evaluate ``f`` through :class:`IncrementalStats` (exact running
  min/max over a :class:`SortedMultiset`);
* :func:`min_family` / :func:`max_family` — the min and max community
  families by a threshold sweep over every weight, the oracle for
  :mod:`repro.influential.minmax_solvers`' forest;
* :func:`set_engine` — run the solvers on these engines for one block;
* :func:`validate_graph` / :func:`assert_same_topology` — structural
  checks the generator and loader tests run on the graphs they build.

No production module imports this one (a test enforces it).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.aggregators.base import Aggregator
from repro.core.kcore import _check_k, connected_kcore_components, kcore_worklist
from repro.errors import GraphError, WeightError
from repro.graphs.components import components_bfs, is_connected_subset
from repro.graphs.csr import check_csr
from repro.graphs.graph import Graph
from repro.influential.community import Community, community_from_vertices
from repro.influential.expansion import (
    ChildCandidate,
    members_frozenset,
    removal_loss,
    sum_alpha_of,
)
from repro.utils.stats import SubsetStats
from repro.utils.topr import TopR
from repro.utils.zobrist import ZobristHasher

__all__ = [
    "AvgStrategy",
    "ExpansionContext",
    "IncrementalStats",
    "SortedMultiset",
    "Strategy",
    "SumStrategy",
    "assert_same_topology",
    "core_decomposition",
    "edge_supports",
    "expansion_context",
    "is_kcore_subset",
    "max_family",
    "min_family",
    "seed_candidates",
    "set_engine",
    "strategy_for",
    "validate_graph",
]


def core_decomposition(graph: Graph) -> np.ndarray:
    """Core number of every vertex by BZ bucket peeling, O(n + m).

    Vertices sorted by current degree in a flat array with bucket
    boundaries; repeatedly peel the minimum-degree vertex and decrement
    neighbours, swapping them down a bucket.  Returns the same int64
    array as :func:`repro.core.decomposition.core_decomposition`.
    """
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = graph.adjacency
    degree = [len(adj[v]) for v in range(n)]
    max_degree = max(degree)

    # Counting sort of vertices by degree.
    bin_start = [0] * (max_degree + 2)
    for d in degree:
        bin_start[d + 1] += 1
    for d in range(1, max_degree + 2):
        bin_start[d] += bin_start[d - 1]
    # bin_start[d] = first index of the degree-d block in `order`.
    position = [0] * n
    order = [0] * n
    cursor = bin_start[:]
    for v in range(n):
        position[v] = cursor[degree[v]]
        order[position[v]] = v
        cursor[degree[v]] += 1

    core = degree[:]
    for i in range(n):
        v = order[i]
        for u in adj[v]:
            if core[u] > core[v]:
                # Swap u with the first vertex of its degree block, then
                # shrink the block from the left — an O(1) bucket demotion.
                du = core[u]
                pu = position[u]
                pw = bin_start[du]
                w = order[pw]
                if u != w:
                    order[pu], order[pw] = w, u
                    position[u], position[w] = pw, pu
                bin_start[du] += 1
                core[u] -= 1
    return np.asarray(core, dtype=np.int64)


def edge_supports(graph: Graph) -> dict[tuple[int, int], int]:
    """Triangle count of every edge, keyed by (u, v) with u < v.

    Orients edges from lower to higher (degree, id) rank and intersects
    forward neighbour sets edge by edge — the O(m^1.5) scheme that
    :func:`repro.truss.decomposition.edge_supports` runs in the kernel
    tier.
    """
    adj = graph.adjacency
    support = {(u, v): 0 for u, v in graph.edges()}
    # Orient edges from lower to higher (degree, id) rank.
    rank = sorted(range(graph.n), key=lambda v: (len(adj[v]), v))
    position = {v: i for i, v in enumerate(rank)}
    forward: list[list[int]] = [[] for __ in range(graph.n)]
    for u, v in graph.edges():
        if position[u] < position[v]:
            forward[u].append(v)
        else:
            forward[v].append(u)
    forward_sets = [set(neigh) for neigh in forward]
    for u in range(graph.n):
        for v in forward[u]:
            common = forward_sets[u] & forward_sets[v]
            for w in common:
                for a, b in ((u, v), (u, w), (v, w)):
                    key = (a, b) if a < b else (b, a)
                    support[key] += 1
    return support


class ExpansionContext:
    """Per-component state for fast child generation.

    Precomputes, once per component, the component-local adjacency,
    induced degrees and articulation vertices (iterative Tarjan).  Most
    removals then take the fast path: if no neighbour of ``v`` has induced
    degree exactly k and ``v`` is not an articulation vertex, the single
    child is ``C - {v}``; otherwise a localised cascade runs on a copied
    degree map and the survivors are split by BFS.

    ``parent_value`` is ``f(component)`` and ``parent_key`` its Zobrist
    hash; both are updated incrementally into every child.
    """

    __slots__ = (
        "graph",
        "k",
        "component",
        "aggregator",
        "parent_value",
        "parent_key",
        "hasher",
        "local_adj",
        "degree",
        "articulation",
        "weights",
        "_sum_alpha",
    )

    def __init__(
        self,
        graph: Graph,
        component: frozenset[int],
        k: int,
        aggregator: Aggregator,
        parent_value: float,
        hasher: ZobristHasher,
        parent_key: int | None = None,
    ) -> None:
        self.graph = graph
        self.k = k
        self.component = component
        self.aggregator = aggregator
        self.parent_value = parent_value
        self.hasher = hasher
        self.parent_key = (
            parent_key if parent_key is not None else hasher.hash_set(component)
        )
        adj = graph.adjacency
        self.local_adj = {v: adj[v] & component for v in component}
        self.degree = {v: len(neigh) for v, neigh in self.local_adj.items()}
        self.articulation = _articulation_vertices(self.local_adj)
        self.weights = graph.weights
        # Sum-family detection for incremental values: alpha is the
        # per-vertex surcharge (0 for plain sum, None for non-sum-family).
        self._sum_alpha = sum_alpha_of(aggregator)

    def min_removal_loss(self, v: int) -> float:
        """A lower bound on ``f(component) - f(child)`` over all children
        produced by removing ``v``.

        For the sum family the loss is at least the removed vertex's own
        contribution; for other aggregators no cheap bound exists (return
        0, i.e. never skip).
        """
        if self._sum_alpha is None:
            return 0.0
        return float(self.weights[v]) + self._sum_alpha

    def _value_of(self, child: frozenset[int], removed: set[int]) -> float:
        """Child influence value, incrementally for the sum family.

        Non-incremental evaluation walks the members in ascending id order
        (not frozenset order) so both engines sum in the same sequence and
        return bit-identical floats.
        """
        if self._sum_alpha is None:
            return self.aggregator.value(self.graph, sorted(child))
        lost = removal_loss(self.weights, sorted(removed))
        return self.parent_value - lost - self._sum_alpha * len(removed)

    def _key_of(self, removed: set[int]) -> int:
        """Child Zobrist key: parent key XOR removed tokens."""
        key = self.parent_key
        hasher = self.hasher
        for u in removed:
            key = hasher.toggle(key, u)
        return key

    def expand(
        self, floor=float("-inf"), rank: int | None = None
    ) -> Iterator[ChildCandidate]:
        """All children of the component, one removal at a time.

        Vertices are visited in ascending id order; per vertex, children
        come out in the order of :meth:`children_after_removal`.  ``floor``
        is a value prefilter: removals whose cheapest possible child
        (:meth:`min_removal_loss`) already falls below it generate nothing.
        It may be a float or a zero-argument callable (e.g. the bound
        method ``TopR.threshold``) — a callable is re-read per removal, so
        a threshold that tightens while children are consumed keeps
        pruning mid-batch.  A callable floor must be non-decreasing across
        calls (pruning bounds only tighten): the CSR engine prefilters the
        whole batch against the first reading, so a floor that later
        *dropped* would prune differently there.  The floor is
        conservative either way; callers must still re-check each child
        against their current bound.

        ``rank`` is accepted for signature parity with the CSR engine and
        ignored: this engine never applies the certified floor, so under
        :func:`set_engine` Algorithm 2 runs un-floored and serves as the
        oracle for it.
        """
        floor_now = floor if callable(floor) else (lambda: floor)
        parent_value = self.parent_value
        for v in sorted(self.component):
            if parent_value - self.min_removal_loss(v) < floor_now():
                continue
            yield from self.children_after_removal(v)

    def children_after_removal(self, v: int) -> list[ChildCandidate]:
        """Connected k-core components of ``component - {v}`` with values."""
        component, k = self.component, self.k
        weak = [u for u in self.local_adj[v] if self.degree[u] == k]
        if not weak and v not in self.articulation:
            # Fast path: no cascade, still connected.
            if len(component) - 1 <= k:
                return []
            child = component - {v}
            removed = {v}
            return [
                ChildCandidate(child, self._value_of(child, removed),
                               self._key_of(removed))
            ]
        # Slow path: localised cascade on a copied degree map.
        degree = self.degree.copy()
        removed = {v}
        stack = [v]
        local_adj = self.local_adj
        while stack:
            x = stack.pop()
            for u in local_adj[x]:
                if u in removed:
                    continue
                degree[u] -= 1
                if degree[u] < k:
                    removed.add(u)
                    stack.append(u)
        survivors = component - removed
        if len(survivors) <= k:
            return []
        pieces = _split_components(local_adj, survivors)
        children = []
        for piece in pieces:
            piece_removed = removed if len(pieces) == 1 else set(component - piece)
            children.append(
                ChildCandidate(
                    piece,
                    self._value_of(piece, piece_removed),
                    self._key_of(piece_removed),
                )
            )
        return children


def _split_components(
    local_adj: dict[int, set[int]], survivors: set[int]
) -> list[frozenset[int]]:
    """Connected components of the survivor set under component-local
    adjacency, ordered by smallest member."""
    remaining = set(survivors)
    components: list[frozenset[int]] = []
    while remaining:
        seed = next(iter(remaining))
        remaining.discard(seed)
        stack = [seed]
        members = {seed}
        while stack:
            u = stack.pop()
            for w in local_adj[u] & remaining:
                remaining.discard(w)
                members.add(w)
                stack.append(w)
        components.append(frozenset(members))
    components.sort(key=min)
    return components


def _articulation_vertices(local_adj: dict[int, set[int]]) -> set[int]:
    """Articulation (cut) vertices of the graph given by ``local_adj``.

    Iterative Tarjan lowpoint algorithm — recursion-free because component
    sizes reach thousands and CPython's stack does not.
    """
    visited: set[int] = set()
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    articulation: set[int] = set()
    for root in local_adj:
        if root in visited:
            continue
        root_children = 0
        # Each frame: (vertex, parent, iterator over neighbours).
        stack = [(root, None, iter(local_adj[root]))]
        visited.add(root)
        depth[root] = 0
        low[root] = 0
        while stack:
            v, parent, neighbours = stack[-1]
            advanced = False
            for u in neighbours:
                if u == parent:
                    continue
                if u in visited:
                    if depth[u] < low[v]:
                        low[v] = depth[u]
                else:
                    visited.add(u)
                    depth[u] = depth[v] + 1
                    low[u] = depth[u]
                    if v == root:
                        root_children += 1
                    stack.append((u, v, iter(local_adj[u])))
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            if parent is not None:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if parent != root and low[v] >= depth[parent]:
                    articulation.add(parent)
        if root_children > 1:
            articulation.add(root)
    return articulation


def seed_candidates(
    graph: Graph,
    k: int,
    aggregator: Aggregator,
    hasher: ZobristHasher,
    pool=None,
    labels=None,
) -> Iterator[ChildCandidate]:
    """Set twin of :func:`repro.influential.expansion.seed_candidates`:
    the worklist k-core peel and set-adjacency BFS, seeds as frozensets.
    ``pool`` is accepted for signature parity and ignored."""
    if labels is None:
        vertices = set(range(graph.n))
    else:
        from repro.influential.constraints import matching_mask

        vertices = set(np.flatnonzero(matching_mask(graph, labels)).tolist())
    core = kcore_worklist(graph, vertices, k)
    for component in components_bfs(graph, core) if core else []:
        members = frozenset(component)
        value = aggregator.value(graph, sorted(component))
        yield ChildCandidate(members, value, hasher.hash_set(members))


def expansion_context(
    graph: Graph,
    members,
    k: int,
    aggregator: Aggregator,
    parent_value: float,
    hasher: ZobristHasher,
    parent_key: int | None = None,
    pool=None,
) -> ExpansionContext:
    """Set twin of :func:`repro.influential.expansion.expansion_context`.
    ``pool`` is accepted for signature parity and ignored."""
    return ExpansionContext(
        graph, members_frozenset(members), k, aggregator, parent_value,
        hasher, parent_key,
    )


def is_kcore_subset(graph: Graph, vertices: Iterable[int], k: int) -> bool:
    """True if ``G[vertices]`` already has minimum induced degree >= k.

    This is the "C is k-core" test of the local-search strategies —
    note it checks cohesiveness only, not connectivity.
    """
    _check_k(k)
    subset = set(vertices)
    if not subset:
        return False
    adj = graph.adjacency
    return all(len(adj[v] & subset) >= k for v in subset)


class SortedMultiset:
    """Sorted multiset of floats supporting add/discard/min/max/median.

    Backs :class:`IncrementalStats`' exact minima/maxima under removals: a
    bisect-backed list gives O(log n) search and O(n) insert/remove with
    tiny constants at the sizes the strategies touch (at most ``s``).
    """

    __slots__ = ("_data",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._data = sorted(values)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[float]:
        return iter(self._data)

    def __contains__(self, value: float) -> bool:
        i = bisect_left(self._data, value)
        return i < len(self._data) and self._data[i] == value

    def add(self, value: float) -> None:
        """Insert ``value`` (duplicates allowed)."""
        insort(self._data, value)

    def remove(self, value: float) -> None:
        """Remove one occurrence of ``value``; KeyError if absent."""
        i = bisect_left(self._data, value)
        if i >= len(self._data) or self._data[i] != value:
            raise KeyError(f"value {value!r} not in multiset")
        del self._data[i]

    def discard(self, value: float) -> bool:
        """Remove one occurrence if present; return whether removed."""
        try:
            self.remove(value)
        except KeyError:
            return False
        return True

    def min(self) -> float:
        """Smallest element; ValueError when empty."""
        if not self._data:
            raise ValueError("min of empty multiset")
        return self._data[0]

    def max(self) -> float:
        """Largest element; ValueError when empty."""
        if not self._data:
            raise ValueError("max of empty multiset")
        return self._data[-1]

    def kth(self, k: int) -> float:
        """The k-th smallest element (0-based)."""
        return self._data[k]

    def count(self, value: float) -> int:
        """Number of occurrences of ``value``."""
        lo = bisect_left(self._data, value)
        count = 0
        for x in self._data[lo:]:
            if x != value:
                break
            count += 1
        return count


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


def _is_candidate(graph: Graph, vertices: Sequence[int], k: int) -> bool:
    """The strategies' "C is k-core" test.

    Cohesiveness (min induced degree >= k) plus connectivity — Definition 3
    requires both, and a greedy weight-sorted prefix can be disconnected
    even when its BFS origin was connected.
    """
    subset = set(vertices)
    return is_kcore_subset(graph, subset, k) and is_connected_subset(graph, subset)


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

    def _value(self, stats: IncrementalStats) -> float:
        return self.aggregator.from_stats(stats.snapshot(), self._graph_total)

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
        block = list(ordered[: self.s])  # Lines 3-5: first s vertices
        stats = IncrementalStats()
        weights = self.graph.weights
        for v in block:
            stats.add(float(weights[v]))
        # Lines 6-12: shrink from the tail while worthwhile.
        while len(block) > self.k and self._value(stats) > top.threshold():
            if _is_candidate(self.graph, block, self.k):
                top.offer(self._make(block))
                break
            removed = block.pop()  # C.last
            stats.remove(float(weights[removed]))


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
        prefix: list[int] = []
        stats = IncrementalStats()
        weights = self.graph.weights
        best: tuple[float, list[int]] | None = None
        for v in ordered[: self.s]:  # Lines 3-10
            prefix.append(v)
            stats.add(float(weights[v]))
            if len(prefix) <= self.k:
                continue
            value = self._value(stats)
            if value > top.threshold() and _is_candidate(self.graph, prefix, self.k):
                if self.greedy:
                    top.offer(self._make(prefix))  # Lines 6-8
                    return
                if best is None or value > best[0]:  # Line 10 collects; 12 argmax
                    best = (value, list(prefix))
        if best is not None:
            top.offer(self._make(best[1]))  # Line 13


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


def min_family(graph: Graph, k: int) -> list[Community]:
    """Every k-influential community under min, by threshold sweep.

    For each weight t, the components of the k-core of ``G[w >= t]`` are
    communities valued at their own minimum weight; the family is the set
    of distinct ones, best first.
    """
    return _threshold_family(graph, k, "min")


def max_family(graph: Graph, k: int) -> list[Community]:
    """Every k-influential community under max: the mirror image of
    :func:`min_family` over ``G[w <= t]``."""
    return _threshold_family(graph, k, "max")


def _threshold_family(graph: Graph, k: int, name: str) -> list[Community]:
    weights = graph.weights.tolist()
    extreme, sign = (min, 1) if name == "min" else (max, -1)
    family = set()
    for t in set(weights):
        kept = [v for v, w in enumerate(weights) if sign * w >= sign * t]
        for component in connected_kcore_components(graph, kept, k):
            value = extreme(weights[v] for v in component)
            family.add(Community(frozenset(component), value, name, k))
    return sorted(family)


@contextmanager
def set_engine() -> Iterator[None]:
    """Run Algorithms 1, 2 and 4 on the reference engines for the block.

    Rebinds the engine factories that :mod:`repro.influential.improved`
    and :mod:`repro.influential.naive_sum` call — ``seed_candidates`` and
    ``expansion_context`` — to the set twins above, so a solver call
    seeds and expands exactly as the original set engine did; and the
    ``strategy_for`` that :mod:`repro.influential.local_search` calls to
    the one above, so Algorithm 4 tests its prefixes as it originally
    did.  The rebinding is module-global: single-threaded use only, in
    tests and benches, never in production code.
    """
    from repro.influential import improved, local_search, naive_sum

    modules = (improved, naive_sum)
    saved = [(m.seed_candidates, m.expansion_context) for m in modules]
    saved_strategy_for = local_search.strategy_for
    for module in modules:
        module.seed_candidates = seed_candidates
        module.expansion_context = expansion_context
    local_search.strategy_for = strategy_for
    try:
        yield
    finally:
        for module, (seeds, context) in zip(modules, saved):
            module.seed_candidates = seeds
            module.expansion_context = context
        local_search.strategy_for = saved_strategy_for


def validate_graph(graph: Graph) -> None:
    """Raise if any structural invariant of ``graph`` is violated.

    Checks: the CSR invariants (endpoint ranges, no self-loops, sorted
    duplicate-free runs, symmetry — :func:`repro.graphs.csr.check_csr`),
    weight domain, and label arity.  O(n + m log m), vectorised.
    """
    n = graph.n
    check_csr(graph.csr.indptr, graph.csr.indices)
    weights = graph.weights
    if weights.shape != (n,):
        raise WeightError(f"weights shape {weights.shape} for {n} vertices")
    if n and (not np.all(np.isfinite(weights)) or float(weights.min()) < 0.0):
        raise WeightError("weights must be finite and non-negative")
    if graph.labels is not None and len(graph.labels) != n:
        raise GraphError(f"{len(graph.labels)} labels for {n} vertices")


def assert_same_topology(a: Graph, b: Graph) -> None:
    """Raise unless the two graphs have identical vertex/edge sets."""
    if a.n != b.n:
        raise GraphError(f"vertex counts differ: {a.n} vs {b.n}")
    if not (
        np.array_equal(a.csr.indptr, b.csr.indptr)
        and np.array_equal(a.csr.indices, b.csr.indices)
    ):
        raise GraphError("edge sets differ")
