"""Index lifecycle through the serving stack.

Covers what the golden suite doesn't: the :class:`QueryService`
integration (counters, cache interplay, worker payloads), snapshot
persistence, and incremental maintenance — edge updates retaining
every level above the locality bound, weight updates going through the
lazy value-only refresh, ``replace_graph`` resetting everything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.builder import graph_from_edges
from repro.graphs.generators.examples import barbell_graph
from repro.index import InfluentialIndex
from repro.influential.api import top_r_communities
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService
from repro.serving.store import load_service, load_snapshot, save_snapshot


def _byte_identical(produced, expected):
    return produced == expected and produced.values() == expected.values()


@pytest.fixture
def weighted_random():
    from tests.conftest import random_weighted_graph

    return random_weighted_graph(40, 0.25, seed=11)


def test_enable_index_builds_every_level(weighted_random):
    service = QueryService(weighted_random)
    index = service.enable_index(depth=4)
    assert service.index is index
    assert index.built
    assert len(index) == service.kmax
    assert index.pending_levels() == 0
    stats = index.stats()
    assert stats["levels_ready"] == service.kmax
    assert stats["builds"] == service.kmax


def test_indexed_hits_bypass_the_solver_and_count(weighted_random):
    service = QueryService(weighted_random, cache_size=0)
    index = service.enable_index(depth=4)
    query = InfluentialQuery(k=2, r=2, f="sum")
    served = service.submit(query)
    assert service.solver_calls == 0
    assert service.queries_served == 1
    assert index.hits == 1
    cold = top_r_communities(weighted_random, k=2, r=2, f="sum")
    assert _byte_identical(served, cold)


def test_result_cache_still_fronts_the_index(weighted_random):
    service = QueryService(weighted_random, cache_size=8)
    index = service.enable_index(depth=4)
    query = InfluentialQuery(k=2, r=2, f="sum")
    service.submit(query)
    service.submit(query)
    # First submit hits the index (via _solve), second the result cache.
    assert index.hits == 1
    assert service.queries_served == 2
    assert service.stats()["result_cache"]["hits"] == 1


def test_stats_exposes_the_index_section(weighted_random):
    service = QueryService(weighted_random)
    assert service.stats()["index"] is None
    service.enable_index(depth=2)
    section = service.stats()["index"]
    assert section["built"] is True
    assert section["depth"] == 2


def test_submit_many_answers_indexed_queries_without_workers(weighted_random):
    service = QueryService(weighted_random, cache_size=0)
    service.enable_index(depth=4)
    batch = [
        InfluentialQuery(k=k, r=r, f="sum")
        for k in range(1, service.kmax + 1)
        for r in (1, 4)
    ]
    results = service.submit_many(batch, workers=2)
    assert service.solver_calls == 0
    assert service.queries_served == len(batch)
    for query, served in zip(batch, results):
        cold = top_r_communities(
            weighted_random, **query.solver_kwargs()
        )
        assert _byte_identical(served, cold)


def test_worker_payload_ships_the_index(weighted_random):
    service = QueryService(weighted_random)
    service.enable_index(depth=4)
    payload = service._worker_payload()
    assert payload["index"] is not None
    restored = InfluentialIndex.from_payload(payload["index"])
    assert restored.built
    assert len(restored) == len(service.index)
    assert restored.aggregators == service.index.aggregators


def test_snapshot_roundtrip_restores_the_index(tmp_path, weighted_random):
    service = QueryService(weighted_random)
    service.enable_index(depth=4, aggregators=("sum", "sum-surplus(1.5)"))
    query = InfluentialQuery(k=2, r=3, f="sum-surplus(1.5)")
    expected = service.submit(query)

    path = tmp_path / "snap"
    save_snapshot(service, path)
    snapshot = load_snapshot(path)
    assert snapshot.index_payload is not None

    restored = load_service(path, cache_size=0)
    assert restored.index is not None and restored.index.built
    assert restored.index.depth == 4
    again = restored.submit(query)
    assert _byte_identical(again, expected)
    # Served straight off the persisted arrays: nothing was re-captured.
    assert restored.index.stats()["builds"] == 0
    assert restored.solver_calls == 0


def test_snapshot_roundtrip_preserves_pending_levels(tmp_path, weighted_random):
    service = QueryService(weighted_random)
    index = service.enable_index(depth=4)
    rng = np.random.default_rng(5)
    service.update_weights(rng.uniform(0.5, 9.0, weighted_random.n))
    assert index.pending_levels() == len(index)

    path = tmp_path / "snap"
    save_snapshot(service, path)
    restored = load_service(path)
    assert restored.index.pending_levels() == len(restored.index)
    # A pending level re-captures on first touch and matches cold.
    query = InfluentialQuery(k=2, r=2, f="sum")
    served = restored.submit(query)
    cold = top_r_communities(restored.graph, k=2, r=2, f="sum")
    assert _byte_identical(served, cold)


def test_snapshot_without_index_loads_indexless(tmp_path, weighted_random):
    service = QueryService(weighted_random)
    path = tmp_path / "snap"
    save_snapshot(service, path)
    assert load_snapshot(path).index_payload is None
    assert load_service(path).index is None


def test_edge_update_retains_levels_above_the_bound():
    # A barbell: two K6 cliques joined by a long path.  Inserting a path
    # chord only disturbs low cores — the cliques' k=5 core is untouched,
    # so every high level must survive verbatim (no re-capture).
    graph = barbell_graph(clique=6, path=6)
    service = QueryService(graph, cache_size=0)
    index = service.enable_index(depth=4)
    high_query = InfluentialQuery(k=5, r=2, f="sum")
    expected = service.submit(high_query)
    builds_before = index.builds

    path_vertices = [v for v in range(graph.n) if graph.degrees()[v] <= 2]
    u, v = path_vertices[0], path_vertices[-1]
    report = service.update_edges(insert=[(min(u, v), max(u, v))])
    bound = report.delta.max_affected_core
    assert bound < 5

    assert index.pending_levels() == sum(
        1 for k in range(1, service.kmax + 1) if k <= bound
    )
    assert index.level_state(5, "sum") != "pending"
    again = service.submit(high_query)
    assert _byte_identical(again, expected)
    assert index.builds == builds_before  # retained, not re-captured
    assert service.solver_calls == 0

    # Invalidated low levels lazily re-capture and match cold solves.
    low = InfluentialQuery(k=1, r=4, f="sum")
    served = service.submit(low)
    cold = top_r_communities(service.graph, k=1, r=4, f="sum")
    assert _byte_identical(served, cold)
    assert index.builds == builds_before + 1


def test_edge_update_covers_grown_kmax(two_triangles):
    service = QueryService(two_triangles, cache_size=0)
    index = service.enable_index(depth=4)
    kmax_before = service.kmax
    # Densify one triangle into K4: kmax grows by one; the new level must
    # be registered (pending) and serveable.
    service.update_edges(insert=[(0, 3), (1, 3), (2, 3)])
    assert service.kmax == kmax_before + 1
    assert (service.kmax, "sum") in [
        (k, f) for (k, f) in index._entries  # noqa: SLF001 — coverage probe
    ]
    query = InfluentialQuery(k=service.kmax, r=2, f="sum")
    served = service.submit(query)
    cold = top_r_communities(
        service.graph, k=service.kmax, r=2, f="sum"
    )
    assert _byte_identical(served, cold)


def test_weight_update_is_a_value_only_refresh(weighted_random):
    service = QueryService(weighted_random, cache_size=0)
    index = service.enable_index(depth=4)
    pool_misses_before = service.engine_pool.structure_misses
    rng = np.random.default_rng(9)
    new_weights = np.round(rng.uniform(0.5, 9.0, weighted_random.n), 3)
    service.update_weights(new_weights)
    assert index.pending_levels() == len(index)
    assert index.stats()["weight_refreshes"] == len(index)

    query = InfluentialQuery(k=2, r=2, f="sum")
    served = service.submit(query)
    cold = top_r_communities(service.graph, k=2, r=2, f="sum")
    assert _byte_identical(served, cold)
    # The re-capture replays over the pool's reweighted-in-place seed
    # structures: no new peel/relabel of the seeds themselves.
    assert service.engine_pool.structure_hits > 0
    assert service.core_numbers is not None
    assert pool_misses_before <= service.engine_pool.structure_misses


def test_replace_graph_resets_the_index(weighted_random, two_triangles):
    service = QueryService(weighted_random, cache_size=0)
    index = service.enable_index(depth=4)
    service.replace_graph(two_triangles)
    assert index.pending_levels() == len(index)
    query = InfluentialQuery(k=2, r=2, f="sum")
    served = service.submit(query)
    cold = top_r_communities(two_triangles, k=2, r=2, f="sum")
    assert _byte_identical(served, cold)


def test_indexed_service_over_http(weighted_random):
    from tests.serving.test_http import get, post

    from repro.serving.http import ServingApp, run_server_in_thread

    service = QueryService(weighted_random, cache_size=0)
    service.enable_index(depth=4)
    app = ServingApp(service)
    with run_server_in_thread(app) as base_url:
        status, payload = post(
            base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum"}
        )
        assert status == 200
        cold = top_r_communities(weighted_random, k=2, r=2, f="sum")
        assert payload["values"] == cold.values()
        status, stats = get(base_url, "/v1/stats")
        assert status == 200
        assert stats["index"]["hits"] == 1
        assert stats["solver_calls"] == 0


def test_core_level_sizes_matches_decomposition(weighted_random):
    service = QueryService(weighted_random)
    sizes = service.engine_pool.core_level_sizes()
    cores = service.core_numbers
    assert sizes[0] == weighted_random.n
    for k in range(service.kmax + 1):
        assert sizes[k] == int((cores >= k).sum())
    assert all(int(a) >= int(b) for a, b in zip(sizes, sizes[1:]))


def test_level_state_rendering(two_triangles):
    service = QueryService(two_triangles)
    index = service.enable_index(depth=2)
    assert index.level_state(1, "sum").startswith(("partial", "complete"))
    assert index.level_state(99, "sum") == "absent"
    service.update_weights(np.arange(1.0, two_triangles.n + 1.0))
    assert index.level_state(1, "sum") == "pending"


def test_payload_roundtrip_is_lossless(weighted_random):
    service = QueryService(weighted_random)
    index = service.enable_index(depth=3)
    payload = index.to_payload()
    restored = InfluentialIndex.from_payload(payload)
    assert restored.depth == index.depth
    assert restored.aggregators == index.aggregators
    for key, entry in index._entries.items():  # noqa: SLF001 — exact compare
        other = restored._entries[key]  # noqa: SLF001
        if entry is None:
            assert other is None
            continue
        assert other.complete == entry.complete
        assert other.values == entry.values
        assert [c.vertices for c in other.communities] == [
            c.vertices for c in entry.communities
        ]


def test_empty_graph_index(empty_graph):
    service = QueryService(empty_graph)
    index = service.enable_index(depth=2)
    assert index.built
    assert len(index) == 0
    assert index.to_payload()["entries"] == []
    restored = InfluentialIndex.from_payload(index.to_payload())
    assert restored.built and len(restored) == 0
