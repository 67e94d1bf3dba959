"""The versioned v1 HTTP contract: envelopes, errors, removed routes, analytics.

Everything the API promises, over real loopback HTTP:

* ``POST /v1/query`` takes the nested envelope (tuning under
  ``options``, labels under ``constraints``), answers with
  ``api_version`` plus a normalized query echo that round-trips as a
  valid request body;
* constrained answers equal cold constrained solves, and ``/v1/query``
  and ``/v1/batch`` share one cache (one solve serves both routes);
* every error, on any endpoint, is ``{"error": {"code", "detail"}}``;
* the pre-v1 flat routes are gone: each answers 404, with no
  ``Deprecation`` or ``Link`` header;
* the analytics endpoints reproduce the pure functions in
  :mod:`repro.analytics` exactly.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.analytics import community_leaders, community_summary, khop_reach
from repro.influential.api import top_r_communities
from repro.serving.http import (
    API_VERSION,
    ServingApp,
    query_envelope,
    run_server_in_thread,
)
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService


def _request(base_url: str, method: str, path: str, payload=None):
    """(status, headers, parsed body) over one fresh connection."""
    host = base_url.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        headers = dict(response.getheaders())
        return response.status, headers, json.loads(response.read())
    finally:
        connection.close()


def get(base_url, path):
    return _request(base_url, "GET", path)


def post(base_url, path, payload):
    return _request(base_url, "POST", path, payload)


@pytest.fixture
def served(figure1):
    """A served labeled figure-1 graph: (graph, service, app, base_url)."""
    graph = figure1.with_labels(
        ["g:db" if v % 2 == 0 else "g:ml" for v in range(figure1.n)]
    )
    service = QueryService(graph)
    app = ServingApp(service)
    with run_server_in_thread(app) as base_url:
        yield graph, service, app, base_url


V1_BODY = {
    "k": 2,
    "r": 2,
    "f": "sum",
    "constraints": {"labels": {"prefix": "g:"}},
    "options": {"method": "improved"},
}


# ----------------------------------------------------------------------
# The v1 query envelope
# ----------------------------------------------------------------------
def test_v1_constrained_query_matches_cold_solve(served):
    graph, __, ___, base_url = served
    status, headers, payload = post(base_url, "/v1/query", V1_BODY)
    assert status == 200, payload
    assert payload["api_version"] == API_VERSION
    assert "Deprecation" not in headers
    cold = top_r_communities(
        graph, k=2, r=2, f="sum", method="improved", labels={"prefix": "g:"},
    )
    assert payload["count"] == len(cold)
    assert payload["values"] == list(cold.values())
    assert payload["communities"] == [sorted(c.vertices) for c in cold]


def test_v1_echo_round_trips_as_a_request(served):
    __, ___, ____, base_url = served
    status, __h, first = post(base_url, "/v1/query", V1_BODY)
    assert status == 200
    echo = first["query"]
    assert echo["constraints"] == {"labels": {"prefix": "g:"}}
    assert echo["options"]["method"] == "improved"
    status, __h, second = post(base_url, "/v1/query", echo)
    assert status == 200
    assert second == first  # the echo is canonical: idempotent resubmission


def test_envelope_round_trips_through_the_v1_parser(served):
    __, ___, app, ____ = served
    queries = [
        InfluentialQuery(k=4, r=2),
        InfluentialQuery(k=4, r=2, constraints={"labels": {"prefix": "g:"}}),
        InfluentialQuery(k=3, r=1, f="sum-surplus(1.5)", eps=0.25),
        InfluentialQuery(k=2, r=2, non_overlapping=True, constraints={"labels": "x"}),
    ]
    for query in queries:
        body = json.loads(json.dumps(query_envelope(query)))  # JSON-able
        clone = app._parse_v1_query(body)
        assert clone.cache_key() == query.cache_key()
    assert query_envelope(InfluentialQuery(k=4, r=2))["constraints"] is None


def test_v1_query_and_batch_share_one_cache(served):
    __, service, ___, base_url = served
    before = service.stats()["solver_calls"]
    status, __h, single = post(
        base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum", "options": {}}
    )
    assert status == 200
    status, __h, batch = post(
        base_url, "/v1/batch", {"queries": [{"k": 2, "r": 2, "f": "sum"}]}
    )
    assert status == 200
    assert service.stats()["solver_calls"] == before + 1  # second hit was cached
    assert batch["results"] == [single]


def test_v1_rejects_misplaced_tuning_field(served):
    __, ___, ____, base_url = served
    status, __h, payload = post(
        base_url, "/v1/query", {"k": 2, "r": 2, "method": "improved"}
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert "options" in payload["error"]["detail"]


def test_v1_rejects_unknown_fields(served):
    __, ___, ____, base_url = served
    for body in (
        {"k": 2, "r": 2, "shape": "round"},
        {"k": 2, "r": 2, "options": {"volume": 11}},
        {"k": 2, "r": 2, "options": {"backend": "csr"}},
        {"k": 2, "r": 2, "options": []},
    ):
        status, __h, payload = post(base_url, "/v1/query", body)
        assert status == 400, body
        assert payload["error"]["code"] == "bad_request"


def test_v1_batch_wrapper_and_bare_array(served):
    __, ___, ____, base_url = served
    for body in ([{"k": 2, "r": 1}], {"queries": [{"k": 2, "r": 1}]}):
        status, __h, payload = post(base_url, "/v1/batch", body)
        assert status == 200
        assert payload["api_version"] == API_VERSION
        assert payload["count"] == 1


def test_v1_healthz_and_stats_carry_api_version(served):
    __, ___, ____, base_url = served
    for path in ("/v1/healthz", "/v1/stats"):
        status, __h, payload = get(base_url, path)
        assert status == 200
        assert payload["api_version"] == API_VERSION


def test_stats_http_section_has_no_workers_key(served):
    __, ___, ____, base_url = served
    status, __h, stats = get(base_url, "/v1/stats")
    assert status == 200
    assert "workers" not in stats["http"]  # one solver thread, no pool knob


# ----------------------------------------------------------------------
# Error envelope + removed routes
# ----------------------------------------------------------------------
def test_error_envelope_codes(served):
    __, ___, ____, base_url = served
    status, __h, payload = post(base_url, "/v1/query", {"k": "two", "r": 1})
    assert status == 400 and payload["error"]["code"] == "spec_error"
    status, __h, payload = post(
        base_url, "/v1/query", {"k": 2, "r": 1, "f": "bogus"}
    )
    assert status == 400 and payload["error"]["code"] == "aggregator_error"
    status, __h, payload = get(base_url, "/v1/nope")
    assert status == 404 and payload["error"]["code"] == "not_found"
    assert "endpoints" in payload
    status, __h, payload = get(base_url, "/v1/query")  # POST-only route
    assert status == 405 and payload["error"]["code"] == "method_not_allowed"


def test_every_error_status_has_a_reason_phrase():
    from repro.serving.http import _REASONS, _STATUS_CODES

    # A status missing here goes out as "HTTP/1.1 <status> Unknown".
    assert set(_STATUS_CODES) <= set(_REASONS)


def test_constrained_query_on_unlabeled_graph_is_spec_error():
    from repro.graphs.builder import graph_from_edges

    unlabeled = graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3)], weights=[1.0, 2.0, 3.0, 4.0], n=4
    )
    assert unlabeled.labels is None
    app = ServingApp(QueryService(unlabeled))
    with run_server_in_thread(app) as base_url:
        status, __h, payload = post(base_url, "/v1/query", V1_BODY)
    assert status == 400
    assert payload["error"]["code"] == "spec_error"
    assert "labels" in payload["error"]["detail"]


@pytest.mark.parametrize(
    "method, path, body",
    [
        ("GET", "/healthz", None),
        ("GET", "/stats", None),
        ("POST", "/query", {"k": 2, "r": 1}),
        ("POST", "/batch", [{"k": 2, "r": 1}]),
        ("POST", "/update-weights", {"weights": []}),
        ("POST", "/update-edges", {"insert": [[0, 9]]}),
        ("POST", "/invalidate", {}),
    ],
)
def test_former_flat_routes_answer_404(served, method, path, body):
    __, service, ___, base_url = served
    status, headers, payload = _request(base_url, method, path, body)
    assert status == 404
    assert payload["error"]["code"] == "not_found"
    assert "Deprecation" not in headers and "Link" not in headers
    assert service.edge_updates == 0  # nothing behind the old path ran


def test_banner_lists_v1_routes_only(served):
    __, ___, ____, base_url = served
    status, __h, payload = get(base_url, "/")
    assert status == 200
    assert payload["api_version"] == API_VERSION
    assert "deprecated" not in payload and "workers" not in payload
    assert all(
        endpoint.split()[1] == "/" or "/v1/" in endpoint
        for endpoint in payload["endpoints"]
    )


# ----------------------------------------------------------------------
# Analytics endpoints == the pure functions
# ----------------------------------------------------------------------
def _cold_result(graph):
    query = InfluentialQuery.create(
        {"k": 2, "r": 2, "f": "sum", "constraints": {"labels": {"prefix": "g:"}}}
    )
    return query, top_r_communities(graph, **query.solver_kwargs())


def test_analytics_leaders_endpoint(served):
    graph, __, ___, base_url = served
    query, result = _cold_result(graph)
    status, __h, payload = post(
        base_url,
        "/v1/analytics/leaders",
        {"query": V1_BODY, "deputies": 2},
    )
    assert status == 200
    assert payload["api_version"] == API_VERSION
    assert payload["count"] == len(result)
    assert payload["leaders"] == community_leaders(graph, result, 2)


def test_analytics_reach_endpoint(served):
    graph, __, ___, base_url = served
    __q, result = _cold_result(graph)
    status, __h, payload = post(
        base_url, "/v1/analytics/reach", {"query": V1_BODY, "hops": 3}
    )
    assert status == 200
    assert payload["hops"] == 3
    assert payload["reach"] == khop_reach(graph, result, 3)


def test_analytics_summary_endpoint(served):
    graph, __, ___, base_url = served
    __q, result = _cold_result(graph)
    status, __h, payload = post(
        base_url, "/v1/analytics/summary", {"query": V1_BODY}
    )
    assert status == 200
    assert payload["summary"] == community_summary(graph, result)


def test_analytics_reuses_the_query_cache(served):
    __, service, ___, base_url = served
    status, __h, ____ = post(base_url, "/v1/query", V1_BODY)
    assert status == 200
    before = service.stats()["solver_calls"]
    status, __h, ____ = post(
        base_url, "/v1/analytics/leaders", {"query": V1_BODY}
    )
    assert status == 200
    assert service.stats()["solver_calls"] == before  # warm pool, no re-solve


def test_analytics_input_validation(served):
    __, ___, ____, base_url = served
    cases = [
        ("/v1/analytics/leaders", {"query": V1_BODY, "deputies": -1}),
        ("/v1/analytics/leaders", {"query": V1_BODY, "hops": 2}),
        ("/v1/analytics/reach", {"query": V1_BODY, "hops": 0}),
        ("/v1/analytics/summary", {"k": 2, "r": 1}),
        ("/v1/analytics/summary", {"query": "nope"}),
    ]
    for path, body in cases:
        status, __h, payload = post(base_url, path, body)
        assert status == 400, (path, body, payload)
        assert payload["error"]["code"] == "bad_request"
