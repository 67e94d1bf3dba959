"""The batched multi-query serving layer: one graph, many queries.

A :class:`QueryService` owns everything that should be paid **once per
graph** instead of once per query:

* the flattened CSR arrays (warmed at construction);
* the full core decomposition (eager — it powers the per-k seed splits
  and the ``k > kmax`` fast path) and the truss decomposition (lazy —
  only ``cohesion="truss"`` traffic needs it);
* an :class:`~repro.serving.engine_pool.ExpansionEnginePool` sharing
  relabelled component-local CSRs and the Zobrist table across every
  query it serves;
* a keyed LRU **result cache** over canonical
  :meth:`~repro.serving.query.InfluentialQuery.cache_key` identities,
  with explicit invalidation (per key, per k, or on weight updates);
  each entry is a :class:`CachedAnswer`, whose opaque ``body`` slot lets
  the HTTP front end keep the answer's encoded response beside it.

``submit`` answers one query; ``submit_many`` answers a batch in
submission order, solving each distinct query once (duplicates are
cache hits).  Scaling past one process is the serving fleet's job
(:mod:`repro.serving.fleet`).

Results are **byte-identical to cold single queries** by construction:
the pool is a pure cache, cache keys are canonical, and the oracle /
property suites under ``tests/serving`` enforce the equivalence against
both the direct API and the brute-force oracle.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SolverError
from repro.graphs.delta import GraphDelta
from repro.graphs.graph import Graph
from repro.index import InfluentialIndex
from repro.influential.api import top_r_communities
from repro.influential.results import ResultSet
from repro.serving.cache import LRUCache
from repro.serving.engine_pool import ExpansionEnginePool
from repro.serving.query import InfluentialQuery
from repro.serving.updates import (
    UpdateReport,
    component_mask,
    evict_truss_entries,
    refresh_truss_numbers,
)

__all__ = ["CachedAnswer", "QueryService"]


class CachedAnswer:
    """One result-cache entry: an answer plus one opaque ``body`` slot.

    The service never reads ``body``; the HTTP front end keeps the
    answer's encoded ``POST /v1/query`` response there.  The slot lives
    and dies with its entry, so every invalidation and eviction that
    drops the answer drops the body with it.
    """

    __slots__ = ("result", "body")

    def __init__(self, result: ResultSet) -> None:
        self.result = result
        self.body: object = None


class QueryService:
    """Serve many top-r influential-community queries over one graph.

    Usage::

        service = QueryService(graph)
        best = service.submit(InfluentialQuery(k=4, r=5, f="sum"))
        batch = service.submit_many(workload)          # list[ResultSet]
        service.update_weights(new_weights)            # invalidates results

    Thread-unsafe by design (wrap submissions in a lock, or give each
    thread its own service over the shared graph); process-parallelism is
    the fleet's (:class:`~repro.serving.fleet.Fleet`).
    """

    def __init__(
        self,
        graph: Graph,
        cache_size: int = 1024,
        pool_capacity: int = 1024,
        core_numbers: "np.ndarray | None" = None,
        truss_numbers: "dict[tuple[int, int], int] | None" = None,
        index: "InfluentialIndex | None" = None,
    ) -> None:
        self._graph = graph
        self._cache_size = cache_size
        self._pool_capacity = pool_capacity
        graph.csr  # noqa: B018 — warm the flattening once, up front
        # ``core_numbers``/``truss_numbers`` seed the decomposition caches
        # with precomputed arrays (a loaded snapshot, typically) so a fresh
        # service comes up without re-peeling anything; when absent the core
        # decomposition runs eagerly here (seeds + the kmax fast path).
        self._pool = ExpansionEnginePool(
            graph, capacity=pool_capacity, core_numbers=core_numbers
        )
        self._pool.core_numbers  # noqa: B018 — eager: seeds + kmax fast path
        self._results = LRUCache(cache_size)
        self._truss_numbers = truss_numbers
        # Vertex mask of components whose truss numbers were evicted by an
        # edge update and await lazy recomputation (None = nothing pending).
        self._truss_pending: "np.ndarray | None" = None
        # The (optional) precomputed community index: a snapshot-loaded
        # instance arrives here; enable_index builds a fresh one.
        self._index = index
        self.queries_served = 0
        self.solver_calls = 0
        self.invalidations = 0
        self.edge_updates = 0

    # ------------------------------------------------------------------
    # Shared state accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph currently being served (changes on weight updates)."""
        return self._graph

    @property
    def core_numbers(self) -> np.ndarray:
        """Cached core number per vertex."""
        return self._pool.core_numbers

    @property
    def kmax(self) -> int:
        """Maximum core number (queries with ``k > kmax`` short-circuit)."""
        return self._pool.kmax

    @property
    def truss_numbers(self) -> dict[tuple[int, int], int]:
        """Cached truss number per edge (computed on first truss query).

        After an edge update, only the affected components' entries were
        evicted; the first access afterwards recomputes exactly those
        components and merges them back (truss numbers never cross a
        component boundary).
        """
        if self._truss_numbers is None:
            from repro.truss.decomposition import truss_decomposition

            self._truss_numbers = truss_decomposition(self._graph)
            self._truss_pending = None
        elif self._truss_pending is not None:
            self._truss_numbers = refresh_truss_numbers(
                self._graph,
                self._truss_numbers,
                self._truss_pending,
            )
            self._truss_pending = None
        return self._truss_numbers

    def peek_truss_numbers(self) -> "dict[tuple[int, int], int] | None":
        """The truss cache if one was ever computed (refreshed), else None.

        Snapshot saves and substrate publication use this: they must never
        ship a partially evicted dict, but must not force a cold
        decomposition on a service that never served truss traffic either.
        """
        if self._truss_numbers is None:
            return None
        return self.truss_numbers

    @property
    def truss_pending(self) -> bool:
        """True while an edge update's truss refresh is still lazy.

        Substrate publication checks this instead of touching
        :attr:`truss_numbers` (which would force the refresh on whatever
        thread asked — the event loop, typically)."""
        return self._truss_pending is not None

    @property
    def tmax(self) -> int:
        """Largest k with a non-empty k-truss (0 on edgeless graphs)."""
        numbers = self.truss_numbers
        return max(numbers.values()) if numbers else 0

    @property
    def engine_pool(self) -> ExpansionEnginePool:
        """The shared expansion-engine pool (exposed for diagnostics)."""
        return self._pool

    @property
    def index(self) -> "InfluentialIndex | None":
        """The precomputed community index, if one is enabled."""
        return self._index

    def enable_index(
        self,
        depth: int = 32,
        aggregators: Sequence[str] = ("sum",),
    ) -> InfluentialIndex:
        """Build (or rebuild) the precomputed community index.

        Afterwards every indexed ``(k, r, f)`` query — sum-family
        aggregators under a method that resolves to the exact best-first
        search — is answered by slicing the stored per-k ranking instead
        of running a solver; everything else keeps the solver path.  The
        build itself runs one capture per ``(k, aggregator)`` level
        through the shared engine pool.
        """
        index = InfluentialIndex(depth=depth, aggregators=aggregators)
        index.build(self._graph, self._pool)
        self._index = index
        return index

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self, query: "InfluentialQuery | Mapping[str, object]", **overrides
    ) -> ResultSet:
        """Answer one query, from cache when possible.

        ``queries_served`` counts *answered* queries, so it is bumped
        after the solve: a query the solver rejects shows up in no
        counter rather than inflating the served tally.
        """
        query = InfluentialQuery.create(query, **overrides)
        key = query.cache_key()
        cached = self._results.get(key)
        if cached is not None:
            self.queries_served += 1
            return cached.result
        result = self._solve(query)
        self._results.put(key, CachedAnswer(result))
        self.queries_served += 1
        return result

    def peek(
        self, query: "InfluentialQuery | Mapping[str, object]"
    ) -> ResultSet | None:
        """The cached answer for ``query``, or ``None`` — never solves.

        The HTTP front end uses this to split the cache probe from the
        (event-loop-unfriendly) solve: a hit is answered inline, a miss is
        dispatched to an executor and later recorded via :meth:`store`.
        """
        query = InfluentialQuery.create(query)
        cached = self._results.get(query.cache_key())
        return None if cached is None else cached.result

    def cached_entry(self, query: InfluentialQuery) -> "CachedAnswer | None":
        """``query``'s live result-cache entry, or ``None`` — never solves,
        and touches neither recency nor the hit/miss counters (the read
        that follows, through :meth:`peek`, counts)."""
        return self._results.lookup(query.cache_key())

    def store(
        self, query: "InfluentialQuery | Mapping[str, object]", result: ResultSet
    ) -> None:
        """Record an externally computed answer under ``query``'s key.

        The result must be what a cold solve of ``query`` would return —
        the cache trusts it exactly as it trusts its own solves.  The HTTP
        front end stores what its solver thread computed through the
        cache-free :meth:`_solve`, keeping the cache loop-owned.
        """
        query = InfluentialQuery.create(query)
        self._results.put(query.cache_key(), CachedAnswer(result))

    def submit_many(
        self, queries: Iterable["InfluentialQuery | Mapping[str, object]"]
    ) -> list[ResultSet]:
        """Answer a batch, in submission order, one :meth:`submit` each.

        Duplicates are solved once and then served from the result cache.
        A malformed spec raises before anything is solved; a query the
        solver rejects stops the batch, and the queries before it stay
        answered and counted.
        """
        batch = [InfluentialQuery.create(q) for q in queries]
        return [self.submit(query) for query in batch]

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _solve(self, query: InfluentialQuery) -> ResultSet:
        # Index first: an indexed (k, r, f) answer is a precomputed slice,
        # byte-identical to the solver's, and counts as an index hit, not
        # a solver call.  Everything unindexed (truss, min/max, TONIC,
        # eps > 0, boundary value ties...) falls through to the solvers.
        if self._index is not None:
            served = self._index.serve(query, self._graph, self._pool)
            if served is not None:
                return served
        if query.cohesion == "truss":
            result = self._solve_truss(query)
        else:
            result = top_r_communities(
                self._graph,
                engine_pool=self._pool,
                **query.solver_kwargs(),
            )
        # Counted on success only, so a rejected query (the solver raise
        # propagates to the caller) never inflates the stats.
        self.solver_calls += 1
        return result

    def _solve_truss(self, query: InfluentialQuery) -> ResultSet:
        from repro.influential.truss_search import (
            truss_top_r_min,
            truss_top_r_sum,
        )

        if query.s is not None or query.non_overlapping:
            raise SolverError(
                "truss cohesion serves the size-unconstrained overlapping "
                "problem only"
            )
        if query.constraints is not None:
            raise SolverError(
                "label constraints are supported for core cohesion only; "
                "truss cohesion has no constrained solver"
            )
        aggregator = query.aggregator
        if aggregator.is_size_proportional:
            if query.k < 2 or query.r < 1:
                # Delegate so parameter errors carry the solver's message.
                return truss_top_r_sum(
                    self._graph, query.k, query.r, aggregator
                )
            return self._truss_sum_from_numbers(query.k, query.r, aggregator)
        if aggregator.name == "min":
            # Invalid k/r must raise the solver's own error, never be
            # swallowed (and cached) by the tmax short circuit.
            if query.k >= 2 and query.r >= 1 and query.k > self.tmax:
                return ResultSet(())
            return truss_top_r_min(self._graph, query.k, query.r)
        raise SolverError(
            f"truss cohesion serves sum-family or min aggregators, "
            f"not {aggregator.name!r}"
        )

    def _truss_sum_from_numbers(self, k, r, aggregator) -> ResultSet:
        """``truss_top_r_sum`` served from the cached truss decomposition.

        The maximal k-truss is exactly the edges with truss number >= k,
        so no per-query support peel runs; the component split mirrors
        :func:`repro.truss.ktruss.connected_ktruss_components` (connectivity
        over surviving truss edges, components emitted smallest member
        first), which keeps served answers identical to the solver's —
        the truss golden tests pin the equivalence.
        """
        from repro.influential.community import community_from_vertices
        from repro.utils.topr import TopR

        adjacency: dict[int, set[int]] = {}
        for (u, v), t in self.truss_numbers.items():
            if t >= k:
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)
        top: TopR = TopR(r, key=lambda c: c.value)
        unvisited = set(adjacency)
        for seed in sorted(adjacency):
            if seed not in unvisited:
                continue
            component = {seed}
            unvisited.discard(seed)
            stack = [seed]
            while stack:
                x = stack.pop()
                for w in adjacency[x] & unvisited:
                    unvisited.discard(w)
                    component.add(w)
                    stack.append(w)
            top.offer(
                community_from_vertices(self._graph, component, aggregator, k)
            )
        return ResultSet(top.ranked())

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def update_weights(self, weights: "np.ndarray | Sequence[float]") -> None:
        """Serve a re-weighted twin of the graph.

        Topology-derived state (CSR, decompositions, every relabelled
        structure in the engine pool) survives; the result cache — whose
        entries embed influence values — is fully invalidated.
        """
        self._reweight_shared_state(weights)
        self._drop_results()

    def _reweight_shared_state(
        self, weights: "np.ndarray | Sequence[float]"
    ) -> None:
        """The engine-pool half of a weight update (no cache writes).

        Split out so the HTTP front end can run this on its solver thread
        (which owns the pool) while the result-cache drop happens on the
        event-loop thread (which owns the cache).
        """
        graph = self._graph.with_weights(weights)
        self._graph = graph
        self._pool.reweight(graph)
        if self._index is not None:
            # Value-only refresh: topology survives (the pool just
            # re-gathered weight slices in place), so each index level
            # re-seals lazily with one warm replay on next use.
            self._index.invalidate_values()

    def _drop_results(self) -> None:
        """The result-cache half of a weight update."""
        self.invalidations += len(self._results)
        self._results.clear()

    def update_edges(
        self,
        insert: "Sequence[tuple[int, int]] | Sequence[Sequence[int]]" = (),
        delete: "Sequence[tuple[int, int]] | Sequence[Sequence[int]]" = (),
    ) -> UpdateReport:
        """Apply edge insertions/deletions without resetting the service.

        The topology change goes through :class:`~repro.graphs.delta
        .GraphDelta` (patched CSR, incrementally repaired core numbers)
        and invalidation is scoped by its locality bound: engine-pool
        state and cached results survive for every degree constraint
        whose k-core the batch provably left untouched, and truss numbers
        are evicted per affected component only.  A rejected batch
        (malformed pairs, self-loops, duplicates, inserting an existing
        edge, deleting a missing one) raises :class:`~repro.errors
        .GraphError` before any state changes.
        """
        report = self._apply_edges_shared_state(insert, delete)
        self._drop_results_for_update(report)
        return report

    def _apply_edges_shared_state(self, insert=(), delete=()) -> UpdateReport:
        """The graph/pool/truss half of an edge update (no cache writes).

        Split from the result-cache drop for the same reason as
        :meth:`_reweight_shared_state`: the HTTP front end runs this on
        its solver thread while the loop thread owns the result cache.
        """
        delta = GraphDelta(self._graph, core_numbers=self._pool.core_numbers)
        report = delta.apply(insert=insert, delete=delete)
        self._graph = report.graph
        structures_dropped = self._pool.apply_update(
            report.graph,
            report.core_numbers,
            report.max_affected_core,
            report.inserted + report.deleted,
        )
        if self._index is not None:
            # Same locality bound as the pool and the result cache: index
            # levels strictly above max_affected_core survive verbatim.
            self._index.apply_update(
                report.max_affected_core, self._pool.kmax
            )
        truss_dropped = 0
        if self._truss_numbers is not None:
            affected = component_mask(report.graph.csr, report.touched)
            self._truss_numbers, truss_dropped = evict_truss_entries(
                self._truss_numbers, affected
            )
            if self._truss_pending is None:
                self._truss_pending = affected
            else:
                self._truss_pending = self._truss_pending | affected
        self.edge_updates += 1
        return UpdateReport(
            delta=report,
            structures_dropped=structures_dropped,
            truss_entries_dropped=truss_dropped,
        )

    def _drop_results_for_update(self, report: UpdateReport) -> None:
        """The result-cache half of an edge update.

        Core-cohesion results survive when their degree constraint lies
        strictly above the delta's locality bound (identical k-core ⇒
        identical answer); truss-cohesion results are always dropped —
        the truss lattice has no equally tight bound.
        """
        kbar = report.delta.max_affected_core
        dropped = self._results.invalidate_where(
            lambda key: key[0] == "truss" or key[1] <= kbar
        )
        self.invalidations += dropped
        report.results_dropped = dropped

    def replace_graph(self, graph: Graph) -> None:
        """Point the service at a different graph (full cache reset)."""
        self._graph = graph
        graph.csr  # noqa: B018
        self._pool = ExpansionEnginePool(graph, capacity=self._pool_capacity)
        self._pool.core_numbers  # noqa: B018
        self.invalidations += len(self._results)
        self._results.clear()
        self._truss_numbers = None
        self._truss_pending = None
        if self._index is not None:
            self._index.reset(self._pool.kmax)

    def invalidate(self, k: int | None = None) -> int:
        """Drop cached results — all of them, or only degree constraint k.

        Returns the number of entries dropped.  Cache keys place ``k`` at
        index 1 (see :meth:`InfluentialQuery.cache_key`).
        """
        if k is None:
            dropped = len(self._results)
            self._results.clear()
        else:
            dropped = self._results.invalidate_where(lambda key: key[1] == k)
        self.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Serving counters plus both caches' stats, JSON-ready."""
        return {
            "graph": {"n": self._graph.n, "m": self._graph.m},
            "kmax": self.kmax,
            "queries_served": self.queries_served,
            "solver_calls": self.solver_calls,
            "invalidations": self.invalidations,
            "edge_updates": self.edge_updates,
            "result_cache": self._results.stats(),
            "engine_pool": self._pool.stats(),
            "index": self._index.stats() if self._index is not None else None,
        }

    def __repr__(self) -> str:
        return (
            f"QueryService(n={self._graph.n}, m={self._graph.m}, "
            f"served={self.queries_served}, cached={len(self._results)})"
        )
