"""Batched multi-query serving over one shared CSR graph.

The ROADMAP's north star is serving heavy traffic, and PR 1/2 made single
queries fast; this package is the layer that makes *many* queries fast
together:

* :class:`~repro.serving.query.InfluentialQuery` — one request, with a
  canonical cache key;
* :class:`~repro.serving.cache.LRUCache` — the keyed LRU both serving
  caches use;
* :class:`~repro.serving.engine_pool.ExpansionEnginePool` — shared
  expansion-engine state (seed components, relabelled local CSRs,
  Zobrist tables) reused across queries;
* :class:`~repro.serving.service.QueryService` — loads a graph once,
  caches decompositions and results, and answers queries and batches;
* :mod:`~repro.serving.http` — the asyncio HTTP front end
  (:class:`~repro.serving.http.ServingApp`, :func:`~repro.serving.http
  .serve`) with single-flight request coalescing;
* :mod:`~repro.serving.updates` — scoped invalidation for live edge
  updates (:meth:`~repro.serving.service.QueryService.update_edges`):
  topology deltas from :class:`repro.graphs.delta.GraphDelta` drop only
  the caches the batch can actually have changed;
* :mod:`~repro.serving.store` — persistent graph snapshots
  (:func:`~repro.serving.store.save_snapshot` /
  :func:`~repro.serving.store.load_service`): mmapped CSR arrays,
  weights, labels and cached decompositions, so a restarted server
  skips both graph rebuild and re-peeling;
* :mod:`~repro.serving.fleet` — ``repro serve --fleet N``: N server
  processes over one :class:`~repro.serving.substrate.SharedSubstrate`,
  the package's only multi-process mechanism;
* :mod:`~repro.serving.oracle` — the small-graph oracle harness pinning
  every served answer to the brute-force reference.

Entry points: ``QueryService(graph).submit(...)`` /
``submit_many(...)``, :func:`repro.influential.api.top_r_many`, and the
``repro batch`` / ``repro serve`` / ``repro snapshot`` CLI subcommands.
"""

from repro.serving.cache import LRUCache
from repro.serving.engine_pool import ExpansionEnginePool
from repro.serving.http import ServingApp, run_server_in_thread, serve
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService
from repro.serving.store import (
    Snapshot,
    load_service,
    load_snapshot,
    save_snapshot,
)
from repro.serving.updates import UpdateReport

__all__ = [
    "ExpansionEnginePool",
    "InfluentialQuery",
    "LRUCache",
    "QueryService",
    "ServingApp",
    "Snapshot",
    "UpdateReport",
    "load_service",
    "load_snapshot",
    "run_server_in_thread",
    "save_snapshot",
    "serve",
]
