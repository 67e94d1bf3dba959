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
  with explicit invalidation (per key, per k, or on weight updates).

``submit`` answers one query; ``submit_many`` answers a batch — in
submission order, deduplicating identical queries, and optionally
sharding distinct queries across a :class:`~concurrent.futures
.ProcessPoolExecutor` whose workers rebuild the graph from the shared
int32 CSR arrays exactly once (fork start method inherits the pages
copy-on-write; spawn falls back to one pickled payload per worker).

Results are **byte-identical to cold single queries** by construction:
the pool is a pure cache, cache keys are canonical, and the oracle /
property suites under ``tests/serving`` enforce the equivalence against
both the direct API and the brute-force oracle.
"""

from __future__ import annotations

import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor
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
from repro.utils.parallel import cap_workers
from repro.serving.updates import (
    UpdateReport,
    component_mask,
    evict_truss_entries,
    refresh_truss_numbers,
)

__all__ = ["QueryService"]

_MISS = object()


def _stable_shard(key: tuple) -> int:
    """Deterministic shard digest of a cache key.

    ``hash()`` of a tuple containing strings is salted per process by
    ``PYTHONHASHSEED``, so using it to shard would shuffle worker
    assignment — and therefore load balance and bench timings — run to
    run.  ``repr`` of a cache key is canonical (ints, floats, strings,
    bools, None in a fixed layout; float repr is shortest-roundtrip and
    stable), so a CRC over its UTF-8 encoding pins the shard everywhere.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


class QueryService:
    """Serve many top-r influential-community queries over one graph.

    Usage::

        service = QueryService(graph)
        best = service.submit(InfluentialQuery(k=4, r=5, f="sum"))
        batch = service.submit_many(workload)          # list[ResultSet]
        service.update_weights(new_weights)            # invalidates results

    Thread-unsafe by design (wrap submissions in a lock, or give each
    thread its own service over the shared graph); process-parallelism is
    built in via ``submit_many(..., workers=N)``.
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

        Snapshot saves and worker payloads use this: they must never ship
        a partially evicted dict, but must not force a cold decomposition
        on a service that never served truss traffic either.
        """
        if self._truss_numbers is None:
            return None
        return self.truss_numbers

    @property
    def truss_pending(self) -> bool:
        """True while an edge update's truss refresh is still lazy.

        Substrate publication and worker payloads check this instead of
        touching :attr:`truss_numbers` (which would force the refresh on
        whatever thread asked — the event loop, typically)."""
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
        cached = self._results.get(key, _MISS)
        if cached is not _MISS:
            self.queries_served += 1
            return cached  # type: ignore[return-value]
        result = self._solve(query)
        self._results.put(key, result)
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
        cached = self._results.get(query.cache_key(), _MISS)
        return None if cached is _MISS else cached  # type: ignore[return-value]

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
        self._results.put(query.cache_key(), result)

    def submit_many(
        self,
        queries: Iterable["InfluentialQuery | Mapping[str, object]"],
        workers: int | None = None,
        zero_copy: bool = True,
    ) -> list[ResultSet]:
        """Answer a batch, in submission order.

        ``workers > 1`` shards the *distinct, uncached* queries across a
        process pool; duplicates are answered once, and every computed
        result lands in this service's cache for later batches.  A query
        that raises (malformed spec, method mismatch) raises here exactly
        as it would cold, whichever path computed it — but counters stay
        consistent: ``solver_calls`` reflects every shard that *did*
        complete (its results are cached), and ``queries_served`` counts
        only batches that were actually answered in full.

        ``zero_copy=True`` (default) publishes the shared arrays into a
        :class:`~repro.serving.substrate.SharedSubstrate` once and hands
        workers its descriptor: each worker attaches read-only views and
        lazily materialises only the neighbour sets it touches, instead
        of receiving a pickled copy of everything and rebuilding an
        eager adjacency.  The segments are unlinked when the pool shuts
        down.  ``zero_copy=False`` keeps the legacy pickled payload
        (the fleet benchmark uses it as the RSS comparison point).
        """
        batch = [InfluentialQuery.create(q) for q in queries]
        if workers is None or workers <= 1 or len(batch) <= 1:
            return [self.submit(query) for query in batch]

        # Distinct cache keys, first submission wins the solve.
        distinct: dict[tuple, InfluentialQuery] = {}
        for query in batch:
            distinct.setdefault(query.cache_key(), query)
        resolved: dict[tuple, ResultSet] = {}
        todo: dict[tuple, InfluentialQuery] = {}
        for key, query in distinct.items():
            cached = self._results.get(key, _MISS)
            if cached is _MISS:
                todo[key] = query
            else:
                resolved[key] = cached  # type: ignore[assignment]
        if todo and self._index is not None and self._index.built:
            # Indexed queries never reach the worker pool: a dict lookup
            # plus a slice is far cheaper than shipping them anywhere.
            for key, query in list(todo.items()):
                served = self._index.serve(query, self._graph, self._pool)
                if served is not None:
                    resolved[key] = served
                    self._results.put(key, served)
                    del todo[key]
        if todo:
            shards: list[list[InfluentialQuery]] = [[] for _ in range(workers)]
            for key, query in todo.items():
                # A stable digest, not hash(): tuple hashes are salted by
                # PYTHONHASHSEED, which would shuffle shard assignment
                # (and bench timings) across runs.
                shards[_stable_shard(key) % workers].append(query)
            shards = [shard for shard in shards if shard]
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            substrate = None
            if zero_copy:
                from repro.serving.substrate import SharedSubstrate

                substrate = SharedSubstrate.publish(self)
            failure: BaseException | None = None
            try:
                # Shard count stays as requested (assignment is part of
                # the workload's determinism), but the pool never forks
                # more processes than there are usable cores: extra
                # workers beyond that only add fork/IPC overhead, and
                # queued shard futures drain through the capped pool
                # unchanged.
                with ProcessPoolExecutor(
                    max_workers=cap_workers(len(shards)),
                    mp_context=context,
                    initializer=_worker_init,
                    initargs=self.worker_initargs(substrate),
                ) as executor:
                    futures = [
                        executor.submit(_worker_solve_counted, shard)
                        for shard in shards
                    ]
                    for shard, future in zip(shards, futures):
                        try:
                            results, solved = future.result()
                        except BaseException as exc:  # noqa: BLE001 — re-raised
                            # Keep draining: sibling shards that completed
                            # must still land in the cache and the solve
                            # counter.
                            if failure is None:
                                failure = exc
                            continue
                        self.solver_calls += solved
                        for query, result in zip(shard, results):
                            key = query.cache_key()
                            resolved[key] = result
                            self._results.put(key, result)
            finally:
                if substrate is not None:
                    substrate.unlink()
            if failure is not None:
                raise failure
        self.queries_served += len(batch)
        return [resolved[query.cache_key()] for query in batch]

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
    # Introspection / worker plumbing
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

    def worker_initargs(self, substrate=None) -> tuple:
        """``initargs`` for a :func:`_worker_init`-initialised pool.

        With a :class:`~repro.serving.substrate.SharedSubstrate`, the
        payload is its (small, JSON-able) descriptor plus the service
        knobs — workers attach read-only views and build a lazy-adjacency
        service, copying nothing.  Without one, the legacy pickled-array
        payload ships (fork inherits the pages copy-on-write; spawn pays
        one pickle per worker *and* an eager set adjacency each).
        """
        if substrate is None:
            return (self._worker_payload(),)
        return (
            {
                "substrate": substrate.descriptor(),
                "cache_size": self._cache_size,
                "pool_capacity": self._pool_capacity,
            },
        )

    def _worker_payload(self) -> dict[str, object]:
        csr = self._graph.csr
        return {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "weights": self._graph.weights,
            "labels": self._graph.labels,
            "cache_size": self._cache_size,
            "pool_capacity": self._pool_capacity,
            # Ship the decompositions this service already paid for, so
            # workers come up without re-peeling (fork shares the pages;
            # spawn pickles them once per worker).
            "core_numbers": self._pool.core_numbers,
            # Never a *stale* truss cache, but never a recomputation
            # either: building the payload must stay cheap.  While a
            # post-update refresh is pending, workers simply start without
            # the cache and lazily recompute if they serve truss traffic.
            "truss_numbers": (
                self._truss_numbers if self._truss_pending is None else None
            ),
            # Flat-array form of the community index (when enabled), so
            # workers serve indexed queries from the same precomputed
            # rankings instead of re-running captures of their own.
            "index": (
                self._index.to_payload()
                if self._index is not None and self._index.built
                else None
            ),
        }

    def __repr__(self) -> str:
        return (
            f"QueryService(n={self._graph.n}, m={self._graph.m}, "
            f"served={self.queries_served}, cached={len(self._results)})"
        )


# ----------------------------------------------------------------------
# Process-pool workers (module level: must be picklable by reference)
# ----------------------------------------------------------------------
_WORKER_SERVICE: QueryService | None = None
# The worker's substrate attachment, when zero-copy init was used: held
# at module level so the mapped segments stay alive for the worker's
# whole lifetime (the service's arrays are views into them).
_WORKER_SUBSTRATE = None


def _worker_init(payload: dict) -> None:
    """Build this worker's service once, from the shared CSR arrays."""
    global _WORKER_SERVICE, _WORKER_SUBSTRATE
    from repro.graphs.builder import graph_from_csr_arrays

    if "substrate" in payload:
        from repro.serving.substrate import SharedSubstrate

        _WORKER_SUBSTRATE = SharedSubstrate.attach(payload["substrate"])
        _WORKER_SERVICE = _WORKER_SUBSTRATE.build_service(
            cache_size=payload["cache_size"],
            pool_capacity=payload["pool_capacity"],
        )
        return
    graph = graph_from_csr_arrays(
        payload["indptr"],
        payload["indices"],
        payload["weights"],
        labels=payload["labels"],
        # Same-machine payload straight from the parent's validated Graph:
        # skip the O(m) per-edge revalidation at every worker startup.
        trusted=True,
    )
    index_payload = payload.get("index")
    _WORKER_SERVICE = QueryService(
        graph,
        cache_size=payload["cache_size"],
        pool_capacity=payload["pool_capacity"],
        core_numbers=payload.get("core_numbers"),
        truss_numbers=payload.get("truss_numbers"),
        index=(
            InfluentialIndex.from_payload(index_payload)
            if index_payload is not None
            else None
        ),
    )


def _worker_solve_counted(
    shard: list[InfluentialQuery],
) -> tuple[list[ResultSet], int]:
    """Answer one shard through the worker-local service, also reporting
    how many solver calls actually ran (a worker may answer from its
    local cache — the parent's ``solver_calls`` must not count those)."""
    assert _WORKER_SERVICE is not None, "worker initializer did not run"
    before = _WORKER_SERVICE.solver_calls
    results = [_WORKER_SERVICE.submit(query) for query in shard]
    return results, _WORKER_SERVICE.solver_calls - before
