"""Edge updates through the serving stack: correctness and scoped caches.

Three layers under test:

* ``QueryService.update_edges`` — post-update answers must equal cold
  runs against a from-scratch rebuild of the updated graph, on the CSR
  and reference set engines, for core and truss cohesion alike;
* the *scope* of invalidation — results and engine-pool state for
  degree constraints the delta provably left alone must survive, truss
  numbers must be evicted per affected component only;
* the ``POST /v1/update-edges`` endpoint and ``repro update-edges`` CLI —
  including every documented error path (malformed lists, self-loops,
  duplicates, deleting a nonexistent edge, inserting an existing one).
"""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.cli import main
from repro.graphs.builder import graph_from_edges
from repro.influential.api import top_r_communities
from repro.serving import (
    InfluentialQuery,
    QueryService,
    ServingApp,
    load_service,
    run_server_in_thread,
    save_snapshot,
)
from repro.truss.decomposition import truss_decomposition
from tests.conftest import ENGINES, engine


def _request(base_url, method, path, payload=None):
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def post(base_url, path, payload):
    return _request(base_url, "POST", path, payload)


def rebuild(graph):
    """A cold from-scratch twin of ``graph`` (shares no caches)."""
    edges = [
        (u, v) for u in range(graph.n) for v in graph.adjacency[u] if u < v
    ]
    return graph_from_edges(edges, weights=graph.weights, n=graph.n)


def clique_plus_path():
    """K6 on 0..5 (core 5) plus the disjoint path 6-7-8-9 (core 1)."""
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    edges += [(6, 7), (7, 8), (8, 9)]
    return graph_from_edges(edges, weights=np.arange(1.0, 11.0), n=10)


QUERIES = [
    InfluentialQuery(k=2, r=2, f="sum"),
    InfluentialQuery(k=3, r=3, f="avg", eps=0.0),
    InfluentialQuery(k=2, r=2, f="min"),
    InfluentialQuery(k=4, r=1, f="sum-surplus(1)"),
    InfluentialQuery(k=2, r=2, f="sum", cohesion="truss"),
]


# ----------------------------------------------------------------------
# Served answers == cold rebuilds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ENGINES)
def test_update_edges_matches_cold_rebuild(engine_name):
    """The live service solves on ``engine_name``; the cold rebuild on
    the production engine."""
    service = QueryService(clique_plus_path())
    with engine(engine_name):
        for query in QUERIES:
            service.submit(query)
    report = service.update_edges(insert=[(6, 8), (0, 6)], delete=[(1, 2)])
    assert report.delta.edges_applied == 3
    cold_graph = rebuild(service.graph)
    cold_service = QueryService(cold_graph)
    for query in QUERIES:
        with engine(engine_name):
            served = service.submit(query)
        cold = cold_service.submit(query)
        assert served == cold
        assert served.values() == cold.values()
    assert np.array_equal(
        service.core_numbers, cold_service.core_numbers
    )


def test_update_edges_then_update_weights_compose(figure1):
    service = QueryService(figure1)
    query = InfluentialQuery(k=2, r=3, f="sum")
    service.submit(query)
    service.update_edges(insert=[(0, 9)])
    new_weights = np.arange(1.0, figure1.n + 1.0)
    service.update_weights(new_weights)
    cold = top_r_communities(
        rebuild(service.graph), **query.solver_kwargs()
    )
    assert service.submit(query) == cold


def test_rejected_update_changes_nothing(figure1):
    service = QueryService(figure1)
    query = InfluentialQuery(k=2, r=2, f="sum")
    service.submit(query)
    before = service.graph
    with pytest.raises(Exception, match="self-loop"):
        service.update_edges(insert=[(3, 3)])
    assert service.graph is before
    assert service.peek(query) is not None
    assert service.edge_updates == 0


# ----------------------------------------------------------------------
# Invalidation scope
# ----------------------------------------------------------------------
def test_results_survive_for_unaffected_degree_constraints():
    service = QueryService(clique_plus_path())
    low = InfluentialQuery(k=1, r=2, f="sum")
    high = InfluentialQuery(k=4, r=2, f="sum")
    low_result, high_result = service.submit(low), service.submit(high)
    report = service.update_edges(insert=[(6, 8)])  # path-side, kbar == 2
    assert report.delta.max_affected_core == 2
    assert service.peek(low) is None  # affected level: dropped
    assert service.peek(high) is high_result  # untouched level: kept
    solver_calls = service.solver_calls
    assert service.submit(high) == high_result
    assert service.solver_calls == solver_calls  # answered from cache
    assert service.submit(low) is not low_result


def test_hub_attachment_keeps_the_bound_low():
    # Attaching a low-core vertex to a member of the K6 clique must not
    # invalidate the clique's levels: the inserted edge is induced in
    # k-cores only up to its *smaller* endpoint's core number, so the
    # bound is min-based, not max-based.
    service = QueryService(clique_plus_path())
    high = InfluentialQuery(k=4, r=2, f="sum")
    high_result = service.submit(high)
    report = service.update_edges(insert=[(0, 6)])  # hub 0 (core 5) ← 6 (core 1)
    assert report.delta.cores_changed == 0
    assert report.delta.max_affected_core == 1
    assert service.peek(high) is high_result


def test_engine_pool_state_survives_above_the_bound():
    service = QueryService(clique_plus_path())
    service.submit(InfluentialQuery(k=1, r=2, f="sum"))
    service.submit(InfluentialQuery(k=4, r=2, f="sum"))
    pool = service.engine_pool
    assert {1, 4} <= set(pool._per_k)
    kept_state = pool._per_k[4]
    service.update_edges(insert=[(6, 8)])
    assert 1 not in pool._per_k  # k <= kbar: dropped, rebuilt lazily
    assert pool._per_k[4] is kept_state  # k > kbar: survives verbatim
    assert pool.kmax == 5


def test_truss_cache_evicted_per_component_and_lazily_refreshed():
    # Two disjoint components: a triangle and a 4-cycle.  A chord in the
    # cycle must evict (and later refresh) only the cycle's entries.
    graph = graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)],
        weights=[1.0] * 7,
    )
    service = QueryService(graph)
    full = dict(service.truss_numbers)
    triangle_edges = {(0, 1), (0, 2), (1, 2)}
    report = service.update_edges(insert=[(3, 5)])
    assert report.truss_entries_dropped == 4  # the cycle's edges only
    assert set(service._truss_numbers) == triangle_edges
    assert service._truss_pending is not None
    refreshed = service.truss_numbers  # lazy per-component recompute
    assert service._truss_pending is None
    assert refreshed == truss_decomposition(rebuild(service.graph))
    for edge in triangle_edges:
        assert refreshed[edge] == full[edge]


def test_truss_results_always_dropped(figure1):
    service = QueryService(figure1)
    query = InfluentialQuery(k=2, r=2, f="sum", cohesion="truss")
    service.submit(query)
    service.update_edges(insert=[(0, 9)])
    assert service.peek(query) is None


def test_worker_payload_never_ships_a_stale_truss_cache(figure1):
    service = QueryService(figure1)
    service.truss_numbers  # noqa: B018 — warm the cache, then poke it
    service.update_edges(insert=[(0, 9)])
    # While the per-component refresh is pending, the payload ships no
    # truss cache at all (it must neither be stale nor trigger a truss
    # peel — the HTTP front end builds payloads on the event loop).
    assert service._worker_payload()["truss_numbers"] is None
    refreshed = service.truss_numbers  # resolve the pending components
    assert service._worker_payload()["truss_numbers"] == refreshed
    assert refreshed == truss_decomposition(rebuild(service.graph))


def test_snapshot_after_deltas_round_trips(tmp_path, figure1):
    service = QueryService(figure1)
    service.truss_numbers  # noqa: B018 — persist a truss cache too
    service.update_edges(insert=[(0, 9)], delete=[(0, 1)])
    save_snapshot(service, tmp_path / "snap")
    restored = load_service(tmp_path / "snap")
    assert restored.graph.m == service.graph.m
    for query in QUERIES:
        assert restored.submit(query) == service.submit(query)
    assert np.array_equal(restored.core_numbers, service.core_numbers)
    assert restored.truss_numbers == service.truss_numbers


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------
@pytest.fixture
def served(figure1):
    service = QueryService(figure1)
    app = ServingApp(service)
    with run_server_in_thread(app) as base_url:
        yield service, app, base_url


def test_update_edges_over_http_matches_cold(served):
    service, app, base_url = served
    status, body = post(
        base_url, "/v1/update-edges", {"insert": [[0, 9]], "delete": [[0, 1]]}
    )
    assert status == 200
    assert body["status"] == "updated"
    assert body["inserted"] == 1 and body["deleted"] == 1
    assert body["epoch"] == app._epoch == 1
    status, answer = post(base_url, "/v1/query", {"k": 2, "r": 3, "f": "sum"})
    assert status == 200
    cold = top_r_communities(rebuild(service.graph), k=2, r=3, f="sum")
    assert answer["communities"] == [sorted(c.vertices) for c in cold]
    assert answer["values"] == cold.values()


@pytest.mark.parametrize(
    "payload, fragment",
    [
        (None, "at least one"),
        ({}, "at least one"),
        ({"weights": [1]}, "at least one"),
        ({"insert": [[0, 9]], "extra": 1}, "unknown edge-update field"),
        ({"insert": 123}, "JSON array"),
        ({"insert": [[0, 9]], "delete": {"0": 9}}, "JSON array"),
        ({"insert": [], "delete": []}, "empty"),
        ({"insert": [[1, 1]]}, "self-loop"),
        ({"insert": [[0, 9], [9, 0]]}, "more than once"),
        ({"insert": [[0, 1, 2]]}, "pair"),
        ({"insert": ["xy"]}, "integers"),
        ({"insert": [[0, 99]]}, "not in graph"),
        ({"insert": [[0, 1]]}, "already exists"),
        ({"delete": [[0, 9]]}, "does not exist"),
        ({"insert": [[0, 9]], "delete": [[0, 9]]}, "both insert and delete"),
    ],
)
def test_update_edges_http_error_paths(served, payload, fragment):
    service, app, base_url = served
    status, body = post(base_url, "/v1/update-edges", payload)
    assert status == 400
    assert fragment in body["error"]["detail"]
    # A rejected batch costs nothing: no epoch bump, no graph change.
    assert app._epoch == 0
    assert service.graph.m == 16
    assert service.edge_updates == 0


def test_update_edges_http_preserves_unaffected_cache_entries():
    graph = clique_plus_path()
    service = QueryService(graph)
    app = ServingApp(service)
    with run_server_in_thread(app) as base_url:
        high = {"k": 4, "r": 2, "f": "sum"}
        post(base_url, "/v1/query", high)
        solver_calls = service.solver_calls
        status, body = post(base_url, "/v1/update-edges", {"insert": [[6, 8]]})
        assert status == 200 and body["max_affected_core"] == 2
        status, __ = post(base_url, "/v1/query", high)
        assert status == 200
        assert service.solver_calls == solver_calls  # cache hit survived


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_updates_a_running_server(served, capsys):
    service, __, base_url = served
    exit_code = main(
        ["update-edges", "--url", base_url, "--insert", "0,9"]
    )
    assert exit_code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["status"] == "updated" and body["m"] == 17
    assert service.graph.has_edge(0, 9)


def test_cli_reports_server_rejections(served, capsys):
    __, __, base_url = served
    exit_code = main(
        ["update-edges", "--url", base_url, "--delete", "0,9"]
    )
    assert exit_code == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_unreachable_server(capsys):
    exit_code = main(
        ["update-edges", "--url", "http://127.0.0.1:9", "--insert", "0,1"]
    )
    assert exit_code == 2
    assert "cannot reach" in capsys.readouterr().err


def test_cli_patches_a_snapshot(tmp_path, figure1, capsys):
    snap = tmp_path / "snap"
    save_snapshot(QueryService(figure1), snap)
    edits = tmp_path / "edits.json"
    edits.write_text(json.dumps({"insert": [[0, 9]], "delete": [[0, 1]]}))
    exit_code = main(["update-edges", "--snapshot", str(snap), "--edits", str(edits)])
    assert exit_code == 0
    restored = load_service(snap)
    assert restored.graph.has_edge(0, 9)
    assert not restored.graph.has_edge(0, 1)
    query = InfluentialQuery(k=2, r=3, f="sum")
    assert restored.submit(query) == top_r_communities(
        rebuild(restored.graph), **query.solver_kwargs()
    )


def test_cli_snapshot_out_leaves_source_untouched(tmp_path, figure1):
    source, patched = tmp_path / "src", tmp_path / "patched"
    save_snapshot(QueryService(figure1), source)
    exit_code = main(
        [
            "update-edges", "--snapshot", str(source),
            "--insert", "0,9", "--out", str(patched),
        ]
    )
    assert exit_code == 0
    assert not load_service(source).graph.has_edge(0, 9)
    assert load_service(patched).graph.has_edge(0, 9)


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--insert", "1;2"], "comma-separated"),
        (["--insert", "1,2,3"], "comma-separated"),
        (["--insert", "a,b"], "non-integer"),
        ([], "nothing to apply"),
        (["--insert", "3,3"], "self-loop"),
        (["--delete", "0,9"], "does not exist"),
    ],
)
def test_cli_error_paths_exit_2(tmp_path, figure1, argv, fragment, capsys):
    snap = tmp_path / "snap"
    save_snapshot(QueryService(figure1), snap)
    exit_code = main(["update-edges", "--snapshot", str(snap)] + argv)
    assert exit_code == 2
    assert fragment in capsys.readouterr().err


def test_cli_rejects_out_with_url(capsys):
    exit_code = main(
        [
            "update-edges", "--url", "http://127.0.0.1:9",
            "--insert", "0,1", "--out", "somewhere/",
        ]
    )
    assert exit_code == 2
    assert "--out only applies to --snapshot" in capsys.readouterr().err


def test_cli_rejects_malformed_edits_file(tmp_path, figure1, capsys):
    snap = tmp_path / "snap"
    save_snapshot(QueryService(figure1), snap)
    edits = tmp_path / "edits.json"
    edits.write_text("[1, 2]")
    exit_code = main(
        ["update-edges", "--snapshot", str(snap), "--edits", str(edits)]
    )
    assert exit_code == 2
    assert "must be" in capsys.readouterr().err
