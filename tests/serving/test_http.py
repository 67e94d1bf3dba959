"""The HTTP front end: served-over-HTTP answers must equal cold solves.

Every test talks real HTTP (``http.client`` over a loopback socket) to a
server hosted on a background thread via
:func:`repro.serving.http.run_server_in_thread` — no handler is invoked
directly, so the request-line/header/body plumbing, keep-alive, and JSON
round-tripping are all under test.  The core guarantees:

* ``POST /v1/query`` / ``POST /v1/batch`` payloads are **identical** to
  payloads built from cold :func:`~repro.influential.api
  .top_r_communities` runs (the acceptance bar of the serving layer);
* concurrent identical requests **coalesce onto one solver call**
  (single-flight dedup keyed on the canonical cache key);
* malformed requests surface as structured 4xx JSON errors, with the
  same messages the library raises cold;
* weight updates and invalidation behave over HTTP exactly as they do
  on the in-process service.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.influential.api import top_r_communities
from repro.serving.http import (
    ServingApp,
    result_payload_v1,
    run_server_in_thread,
)
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService


# ----------------------------------------------------------------------
# Tiny HTTP client helpers (stdlib only, one connection per call)
# ----------------------------------------------------------------------
def _request(base_url: str, method: str, path: str, payload=None):
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def get(base_url: str, path: str):
    return _request(base_url, "GET", path)


def post(base_url: str, path: str, payload):
    return _request(base_url, "POST", path, payload)


@pytest.fixture
def served(figure1):
    """A served figure-1 graph: (service, app, base_url)."""
    service = QueryService(figure1)
    app = ServingApp(service)
    with run_server_in_thread(app) as base_url:
        yield service, app, base_url


def as_query(envelope: dict) -> InfluentialQuery:
    """The query a v1 envelope asks for (tuning lifted out of options)."""
    flat = {name: value for name, value in envelope.items() if name != "options"}
    return InfluentialQuery.create({**flat, **envelope.get("options", {})})


# ----------------------------------------------------------------------
# Correctness: HTTP answers == cold solves
# ----------------------------------------------------------------------
QUERIES = [
    {"k": 2, "r": 2, "f": "sum"},
    {"k": 2, "r": 3, "f": "sum", "options": {"eps": 0.1}},
    {"k": 2, "r": 2, "f": "min"},
    {"k": 2, "r": 1, "f": "max"},
    {"k": 2, "r": 2, "f": "avg", "s": 5},
    {"k": 2, "r": 2, "f": "sum-surplus(1)"},
    {"k": 99, "r": 1, "f": "sum"},  # far above kmax: empty, served fast-path
]


def test_query_payloads_match_cold_runs(served, figure1):
    __, ___, base_url = served
    for raw in QUERIES:
        status, payload = post(base_url, "/v1/query", raw)
        assert status == 200, payload
        query = as_query(raw)
        cold = top_r_communities(figure1, **query.solver_kwargs())
        assert payload == result_payload_v1(query, cold)


def test_batch_matches_cold_runs_in_order(served, figure1):
    __, ___, base_url = served
    batch = QUERIES + QUERIES[:3]  # duplicates exercise dedup
    status, payload = post(base_url, "/v1/batch", batch)
    assert status == 200, payload
    assert payload["count"] == len(batch)
    for raw, served_payload in zip(batch, payload["results"]):
        query = as_query(raw)
        cold = top_r_communities(figure1, **query.solver_kwargs())
        assert served_payload == result_payload_v1(query, cold)


def test_batch_accepts_queries_wrapper(served):
    __, ___, base_url = served
    status, payload = post(
        base_url, "/v1/batch", {"queries": [{"k": 2, "r": 1, "f": "sum"}]}
    )
    assert status == 200
    assert payload["count"] == 1


def test_truss_cohesion_served(served, figure1):
    service, __, base_url = served
    status, payload = post(
        base_url, "/v1/query", {"k": 3, "r": 2, "f": "sum", "cohesion": "truss"}
    )
    assert status == 200
    cold = QueryService(figure1).submit(
        InfluentialQuery(k=3, r=2, f="sum", cohesion="truss")
    )
    assert payload["values"] == cold.values()
    assert payload["communities"] == [sorted(c.vertices) for c in cold]


def test_repeated_query_is_cached(served):
    service, __, base_url = served
    raw = {"k": 2, "r": 2, "f": "sum"}
    first = post(base_url, "/v1/query", raw)
    calls_after_first = service.solver_calls
    second = post(base_url, "/v1/query", raw)
    assert first == second
    assert service.solver_calls == calls_after_first


def test_aggregator_spellings_share_cache_entry(served):
    service, __, base_url = served
    post(base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum-surplus(2)"})
    calls = service.solver_calls
    status, __payload = post(
        base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum-surplus(alpha=2)"}
    )
    assert status == 200
    assert service.solver_calls == calls  # canonical key collapsed them


def test_keep_alive_connection_reuse(served):
    __, ___, base_url = served
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        for __ in range(3):
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Single-flight dedup
# ----------------------------------------------------------------------
def test_concurrent_identical_requests_coalesce(served):
    service, app, base_url = served
    original_solve = service._solve
    release = threading.Event()

    def slow_solve(query):
        release.wait(timeout=30)  # hold until every request has arrived
        return original_solve(query)

    service._solve = slow_solve
    raw = {"k": 2, "r": 2, "f": "sum", "options": {"eps": 0.1}}
    answers: list = [None] * 6
    threads = [
        threading.Thread(
            target=lambda i=i: answers.__setitem__(
                i, post(base_url, "/v1/query", raw)
            )
        )
        for i in range(len(answers))
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 30
    while app.coalesced < len(answers) - 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    release.set()
    for thread in threads:
        thread.join(timeout=60)
    assert all(status == 200 for status, __ in answers)
    assert len({json.dumps(payload) for __, payload in answers}) == 1
    assert service.solver_calls == 1, "identical burst must solve once"
    assert app.coalesced == len(answers) - 1


def test_failing_batch_member_does_not_cancel_coalesced_waiters(served):
    """A bad member 400s its batch without killing solves other
    connections coalesced onto (regression: gather() used to cancel the
    shared in-flight task, dropping the waiter's connection)."""
    service, app, base_url = served
    original_solve = service._solve
    release = threading.Event()

    def slow_solve(query):
        release.wait(timeout=30)
        return original_solve(query)

    service._solve = slow_solve
    good = {"k": 2, "r": 2, "f": "sum"}
    batch_answer: list = []
    waiter_answer: list = []
    batch_thread = threading.Thread(
        target=lambda: batch_answer.append(
            post(base_url, "/v1/batch", [{"k": 0, "r": 1, "f": "sum"}, good])
        )
    )
    batch_thread.start()
    deadline = time.monotonic() + 30
    while len(app._inflight) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)  # both members' solves are now in flight
    waiter_thread = threading.Thread(
        target=lambda: waiter_answer.append(post(base_url, "/v1/query", good))
    )
    waiter_thread.start()
    deadline = time.monotonic() + 30
    while app.coalesced < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    release.set()
    batch_thread.join(timeout=60)
    waiter_thread.join(timeout=60)
    assert batch_answer and batch_answer[0][0] == 400
    assert waiter_answer, "coalesced waiter never got an HTTP response"
    status, payload = waiter_answer[0]
    assert status == 200
    assert payload["values"] == top_r_communities(
        service.graph, k=2, r=2, f="sum"
    ).values()


def test_loop_stays_responsive_during_solve(served):
    """Health checks answer while a slow solve occupies the solver thread."""
    service, __, base_url = served
    original_solve = service._solve
    release = threading.Event()

    def slow_solve(query):
        release.wait(timeout=30)
        return original_solve(query)

    service._solve = slow_solve
    result: list = []
    solver = threading.Thread(
        target=lambda: result.append(
            post(base_url, "/v1/query", {"k": 2, "r": 1, "f": "sum"})
        )
    )
    solver.start()
    try:
        status, payload = get(base_url, "/v1/healthz")
        assert status == 200 and payload["status"] == "ok"
    finally:
        release.set()
        solver.join(timeout=60)
    assert result and result[0][0] == 200


# ----------------------------------------------------------------------
# Validation / error paths
# ----------------------------------------------------------------------
def test_unknown_route_404(served):
    __, ___, base_url = served
    status, payload = get(base_url, "/nope")
    assert status == 404
    assert "endpoints" in payload


def test_wrong_method_405(served):
    __, ___, base_url = served
    status, __payload = get(base_url, "/v1/query")
    assert status == 405


def test_invalid_json_400(served):
    __, ___, base_url = served
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        connection.request("POST", "/v1/query", body="{not json")
        response = connection.getresponse()
        assert response.status == 400
        body = json.loads(response.read())
        assert body["error"]["code"] == "invalid_json"
        assert "JSON" in body["error"]["detail"]
    finally:
        connection.close()


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ([1, 2, 3], "JSON object"),
        ({"k": "four", "r": 5}, "integer"),
        ({"k": 2, "r": 2, "flavor": "sum"}, "unknown v1 query field"),
        ({"k": 2, "r": 2, "f": "bogus"}, "unknown aggregator"),
        ({"k": 2, "r": 2, "cohesion": "lattice"}, "cohesion"),
        ({"k": 0, "r": 2, "f": "sum"}, "k"),
    ],
)
def test_bad_queries_400_with_library_message(served, raw, fragment):
    __, ___, base_url = served
    status, payload = post(base_url, "/v1/query", raw)
    assert status == 400
    assert fragment in payload["error"]["detail"]


def test_batch_rejects_non_array(served):
    __, ___, base_url = served
    status, payload = post(base_url, "/v1/batch", {"k": 2, "r": 2})
    assert status == 400
    assert "array" in payload["error"]["detail"]


def test_oversized_body_413(served):
    from repro.serving.http import MAX_BODY_BYTES

    __, ___, base_url = served
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        connection.putrequest("POST", "/v1/query")
        connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 413
    finally:
        connection.close()


def test_chunked_transfer_encoding_refused(served):
    """Chunked bodies are not implemented: a clear 501 + close, never a
    silent empty-body misread that desyncs the keep-alive stream."""
    __, ___, base_url = served
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        connection.putrequest("POST", "/v1/query")
        connection.putheader("Transfer-Encoding", "chunked")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 501
        body = json.loads(response.read())
        assert body["error"]["code"] == "not_implemented"
        assert "transfer-encoding" in body["error"]["detail"]
    finally:
        connection.close()


def test_header_flood_431(served):
    __, ___, base_url = served
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        connection.putrequest("GET", "/v1/healthz")
        for index in range(150):
            connection.putheader(f"x-flood-{index}", "y")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 431
    finally:
        connection.close()


def test_oversized_request_line_drops_connection_quietly(served):
    """A >64 KiB request line must not crash the handler task; the
    connection just closes (regression: asyncio's over-limit ValueError
    escaped the handler)."""
    import socket

    __, ___, base_url = served
    host, port = base_url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=60) as sock:
        sock.sendall(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        sock.settimeout(10)
        received = sock.recv(4096)
    assert received == b""  # closed without a response, and no crash
    # ... and the server is still alive for the next client:
    status, payload = get(base_url, "/v1/healthz")
    assert status == 200 and payload["status"] == "ok"


def test_per_k_invalidate_spares_inflight_other_ks(served):
    """Invalidating k=2 must not discard the in-flight k=3 single-flight
    entry (regression: the epoch bump dropped unrelated solves)."""
    service, app, base_url = served
    original_solve = service._solve
    release = threading.Event()

    def slow_solve(query):
        release.wait(timeout=30)
        return original_solve(query)

    service._solve = slow_solve
    slow_answer: list = []
    slow_thread = threading.Thread(
        target=lambda: slow_answer.append(
            post(base_url, "/v1/query", {"k": 3, "r": 1, "f": "sum"})
        )
    )
    slow_thread.start()
    deadline = time.monotonic() + 30
    while not app._inflight and time.monotonic() < deadline:
        time.sleep(0.01)
    epoch_before = app._epoch
    status, __payload = post(base_url, "/v1/invalidate", {"k": 2})
    assert status == 200
    assert app._epoch == epoch_before  # per-k: no global epoch bump
    assert app._inflight, "per-k invalidate dropped an unrelated in-flight solve"
    release.set()
    slow_thread.join(timeout=60)
    assert slow_answer and slow_answer[0][0] == 200
    # the k=3 result completed and cached despite the k=2 invalidation
    assert service.peek(InfluentialQuery(k=3, r=1, f="sum")) is not None


def test_http_error_counter(served):
    __, app, base_url = served
    before = app.http_errors
    post(base_url, "/v1/query", {"k": 2, "r": 2, "f": "bogus"})
    get(base_url, "/nope")
    assert app.http_errors == before + 2


# ----------------------------------------------------------------------
# Mutation endpoints
# ----------------------------------------------------------------------
def test_update_weights_over_http(served, figure1):
    __, ___, base_url = served
    post(base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum"})  # warm the cache
    new_weights = [1.0] * figure1.n
    status, payload = post(base_url, "/v1/update-weights", {"weights": new_weights})
    assert status == 200
    assert payload["status"] == "reweighted"
    status, answer = post(base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum"})
    assert status == 200
    cold = top_r_communities(figure1.with_weights(new_weights), k=2, r=2, f="sum")
    assert answer["values"] == cold.values()
    assert answer["communities"] == [sorted(c.vertices) for c in cold]


def test_update_weights_validation(served, figure1):
    __, ___, base_url = served
    status, payload = post(base_url, "/v1/update-weights", {"weights": [1.0]})
    assert status == 400
    assert str(figure1.n) in payload["error"]["detail"]
    status, __payload = post(base_url, "/v1/update-weights", {"nope": 1})
    assert status == 400
    status, payload = post(
        base_url, "/v1/update-weights", {"weights": [-1.0] * figure1.n}
    )
    assert status == 400  # WeightError surfaces as a client error
    bad = ["x"] + [1.0] * (figure1.n - 1)
    status, health = get(base_url, "/v1/healthz")
    epoch_before = health["epoch"]
    status, payload = post(base_url, "/v1/update-weights", {"weights": bad})
    assert status == 400  # non-numeric elements: client error, not a 500
    assert "numbers" in payload["error"]["detail"]
    # a rejected body must not have cost any serving state (no epoch bump)
    status, health = get(base_url, "/v1/healthz")
    assert health["epoch"] == epoch_before


def test_invalidate_endpoint(served):
    service, __, base_url = served
    post(base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum"})
    post(base_url, "/v1/query", {"k": 3, "r": 2, "f": "sum"})
    status, payload = post(base_url, "/v1/invalidate", {"k": 2})
    assert status == 200
    assert payload["dropped"] == 1
    status, payload = post(base_url, "/v1/invalidate", {})
    assert status == 200
    assert payload["dropped"] == 1
    status, __payload = post(base_url, "/v1/invalidate", {"k": "two"})
    assert status == 400


def test_stats_and_index_endpoints(served, figure1):
    __, ___, base_url = served
    post(base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum"})
    status, stats = get(base_url, "/v1/stats")
    assert status == 200
    assert stats["graph"] == {"n": figure1.n, "m": figure1.m}
    assert stats["http"]["requests"] >= 2
    assert "result_cache" in stats and "engine_pool" in stats
    status, index = get(base_url, "/")
    assert status == 200
    assert "POST /v1/query" in index["endpoints"]


# ----------------------------------------------------------------------
# Snapshot-backed serving
# ----------------------------------------------------------------------
def test_serving_from_snapshot_over_http(figure1, tmp_path):
    from repro.serving.store import load_service, save_snapshot

    path = save_snapshot(QueryService(figure1), tmp_path / "snap")
    service = load_service(path)
    with run_server_in_thread(service) as base_url:
        status, payload = post(base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum"})
        assert status == 200
        cold = top_r_communities(figure1, k=2, r=2, f="sum")
        assert payload["values"] == cold.values()


# ----------------------------------------------------------------------
# Queue bound: fresh misses beyond the depth shed with 503 + Retry-After
# ----------------------------------------------------------------------
def _request_with_headers(base_url: str, method: str, path: str, payload=None):
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return (
            response.status,
            json.loads(response.read()),
            dict(response.getheaders()),
        )
    finally:
        connection.close()


@pytest.fixture
def slow_served(figure1, monkeypatch):
    """A served app whose every solve takes ~0.3s, queue depth 1."""
    from repro.serving import service as service_module

    original = service_module.QueryService._solve

    def _slow_solve(self, query):
        time.sleep(0.3)
        return original(self, query)

    monkeypatch.setattr(service_module.QueryService, "_solve", _slow_solve)
    app = ServingApp(QueryService(figure1), max_queue_depth=1)
    with run_server_in_thread(app) as base_url:
        yield app, base_url


def test_queue_bound_sheds_with_retry_after(slow_served):
    app, base_url = slow_served
    distinct = [
        {"k": 2, "r": 2, "f": "sum"},
        {"k": 3, "r": 2, "f": "sum"},
        {"k": 2, "r": 1, "f": "min"},
    ]
    outcomes = []

    def _fire(raw):
        outcomes.append(
            _request_with_headers(base_url, "POST", "/v1/query", raw)
        )

    threads = [
        threading.Thread(target=_fire, args=(raw,)) for raw in distinct
    ]
    threads[0].start()
    time.sleep(0.1)  # let the first solve occupy the queue
    for thread in threads[1:]:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    statuses = sorted(status for status, _b, _h in outcomes)
    assert statuses == [200, 503, 503]
    for status, body, headers in outcomes:
        if status == 503:
            assert "Retry-After" in headers
            assert int(headers["Retry-After"]) >= 1
            assert body["error"]["code"] == "queue_full"
            assert "queue is full" in body["error"]["detail"]
    assert app.shed == 2
    # Once the convoy clears, the same queries are admitted again.
    status, _body, _headers = _request_with_headers(
        base_url, "POST", "/v1/query", distinct[1]
    )
    assert status == 200


def test_coalesced_and_cached_never_shed(slow_served):
    app, base_url = slow_served
    raw = {"k": 2, "r": 2, "f": "sum"}
    outcomes = []

    def _fire():
        outcomes.append(post(base_url, "/v1/query", raw))

    # Identical queries coalesce onto one in-flight solve: depth 1 is
    # never exceeded, nobody sheds.
    threads = [threading.Thread(target=_fire) for _ in range(3)]
    for thread in threads:
        thread.start()
        time.sleep(0.05)
    for thread in threads:
        thread.join(timeout=30)
    assert [status for status, _b in outcomes] == [200, 200, 200]
    assert app.shed == 0
    # And a cache hit while the queue is "full" of another solve.
    blocker = threading.Thread(
        target=post, args=(base_url, "/v1/query", {"k": 3, "r": 1, "f": "sum"})
    )
    blocker.start()
    time.sleep(0.1)
    status, _body = post(base_url, "/v1/query", raw)  # cached from above
    assert status == 200
    blocker.join(timeout=30)
    assert app.shed == 0


def test_stats_expose_queue_and_fleet_fields(served):
    __, app, base_url = served
    status, stats = get(base_url, "/v1/stats")
    assert status == 200
    assert stats["http"]["shed"] == 0
    assert stats["http"]["max_queue_depth"] == 0
    assert stats["http"]["draining"] is False
    assert stats["epoch"] == 0
    assert stats["rss_bytes"] > 0
    assert stats["replication_lag"] is None
    status, health = get(base_url, "/v1/healthz")
    assert health["rss_bytes"] > 0
    assert health["replication_lag"] is None
    assert "member" not in health


# ----------------------------------------------------------------------
# Stored response bodies: a cache entry keeps its /v1/query bytes from
# its first hit on; every route that drops the entry drops the bytes
# ----------------------------------------------------------------------
def post_raw(base_url: str, path: str, payload) -> tuple[int, bytes]:
    """One POST, answering the status and the body bytes as served."""
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        connection.request("POST", path, body=json.dumps(payload))
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def cold_bytes(graph, raw: dict) -> bytes:
    """The bytes today's encode path serves for ``raw`` on ``graph``."""
    query = as_query(raw)
    cold = top_r_communities(graph, **query.solver_kwargs())
    return json.dumps(result_payload_v1(query, cold)).encode("utf-8")


def body_hits(base_url: str) -> int:
    status, stats = get(base_url, "/v1/stats")
    assert status == 200
    return stats["result_cache"]["body_hits"]


SUM_K2 = {"k": 2, "r": 2, "f": "sum"}


def test_repeat_reads_are_answered_from_the_stored_body(served, figure1):
    service, __, base_url = served
    expected = cold_bytes(figure1, SUM_K2)
    seen = []
    for __read in range(4):
        status, body = post_raw(base_url, "/v1/query", SUM_K2)
        assert status == 200
        assert body == expected
        seen.append(body_hits(base_url))
    # miss, first hit (stores the body), then two reads of the stored body
    assert seen == [0, 0, 1, 2]
    assert service.cached_entry(as_query(SUM_K2)).body == expected


def test_no_body_hits_when_the_cache_is_emptied_before_each_read(served, figure1):
    service, __, base_url = served
    for __read in range(3):
        assert post(base_url, "/v1/invalidate", {})[0] == 200
        status, body = post_raw(base_url, "/v1/query", SUM_K2)
        assert status == 200
        assert body == cold_bytes(figure1, SUM_K2)
    assert body_hits(base_url) == 0
    assert service.stats()["result_cache"]["hits"] == 0


def _reweight(base_url, service, figure1, two_triangles):
    weights = [float(w) for w in reversed(figure1.weights)]
    assert post(base_url, "/v1/update-weights", {"weights": weights})[0] == 200
    return figure1.with_weights(weights)


def _delete_edge(base_url, service, figure1, two_triangles):
    from repro.graphs.delta import GraphDelta

    assert post(base_url, "/v1/update-edges", {"delete": [[0, 1]]})[0] == 200
    return GraphDelta(figure1).apply(delete=[(0, 1)]).graph


def _replace_graph(base_url, service, figure1, two_triangles):
    # The loop thread owns the result cache; it is idle between requests.
    service.replace_graph(two_triangles)
    return two_triangles


def _invalidate_k(base_url, service, figure1, two_triangles):
    assert post(base_url, "/v1/invalidate", {"k": 2})[0] == 200
    return figure1


def _invalidate_all(base_url, service, figure1, two_triangles):
    assert post(base_url, "/v1/invalidate", {})[0] == 200
    return figure1


@pytest.mark.parametrize(
    "drop",
    [_invalidate_k, _invalidate_all, _delete_edge, _reweight, _replace_graph],
    ids=[
        "invalidate-k",
        "invalidate-all",
        "update-edges",
        "update-weights",
        "replace-graph",
    ],
)
def test_dropping_an_entry_drops_its_stored_body(served, figure1, two_triangles, drop):
    service, __, base_url = served
    for __read in range(2):
        post_raw(base_url, "/v1/query", SUM_K2)
    assert service.cached_entry(as_query(SUM_K2)).body is not None
    graph = drop(base_url, service, figure1, two_triangles)
    assert service.cached_entry(as_query(SUM_K2)) is None
    if graph is not figure1:
        assert cold_bytes(graph, SUM_K2) != cold_bytes(figure1, SUM_K2)
    for __read in range(2):
        status, body = post_raw(base_url, "/v1/query", SUM_K2)
        assert status == 200
        assert body == cold_bytes(graph, SUM_K2)


@pytest.mark.parametrize(
    "spellings",
    [
        (
            {"k": 2, "r": 2, "f": "sum-surplus(2)"},
            {"k": 2, "r": 2, "f": "sum-surplus(alpha=2)"},
        ),
        (
            {"k": 2, "r": 2, "constraints": {"labels": {"any": ["b", "a", "a"]}}},
            {"k": 2, "r": 2, "constraints": {"labels": ["a", "b"]}},
        ),
    ],
    ids=["aggregator", "labels"],
)
def test_spellings_of_one_key_get_identical_hit_bodies(figure1, spellings):
    graph = figure1.with_labels(["abc"[v % 3] for v in range(figure1.n)])
    first, second = spellings
    assert as_query(first).cache_key() == as_query(second).cache_key()
    with run_server_in_thread(QueryService(graph)) as base_url:
        bodies = [post_raw(base_url, "/v1/query", first)[1] for __ in range(2)]
        bodies += [post_raw(base_url, "/v1/query", second)[1] for __ in range(2)]
        assert body_hits(base_url) == 2
    assert bodies == [cold_bytes(graph, first)] * 4
    assert json.loads(bodies[0])["count"] > 0
    assert cold_bytes(graph, second) == cold_bytes(graph, first)


def test_evicted_entry_takes_its_body_with_it(figure1):
    service = QueryService(figure1, cache_size=1)
    other = {"k": 3, "r": 1, "f": "sum"}
    with run_server_in_thread(service) as base_url:
        for __read in range(3):
            post_raw(base_url, "/v1/query", SUM_K2)
        assert body_hits(base_url) == 1
        calls = service.solver_calls
        assert post_raw(base_url, "/v1/query", other)[1] == cold_bytes(figure1, other)
        assert service.cached_entry(as_query(SUM_K2)) is None
        reads = [post_raw(base_url, "/v1/query", SUM_K2)[1] for __ in range(3)]
        assert service.solver_calls == calls + 2  # ``other``, then SUM_K2 again
        # the re-solved entry is a fresh one: its first hit stores anew
        assert body_hits(base_url) == 2
    assert reads == [cold_bytes(figure1, SUM_K2)] * 3
