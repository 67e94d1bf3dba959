"""Counter consistency.

``submit`` used to bump ``queries_served`` *before* a solve that could
raise, so rejected queries inflated the served tally forever.  Both
counters now move only on success: ``queries_served`` counts answered
queries, ``solver_calls`` completed solver runs.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService

BAD_QUERY = InfluentialQuery(k=-1, r=2, f="sum")
GOOD_QUERIES = [
    InfluentialQuery(k=2, r=2, f="sum"),
    InfluentialQuery(k=2, r=3, f="sum"),
    InfluentialQuery(k=1, r=2, f="min"),
    InfluentialQuery(k=3, r=1, f="avg"),
]


def test_rejected_submit_moves_no_counters(two_triangles):
    service = QueryService(two_triangles)
    with pytest.raises(ReproError):
        service.submit(BAD_QUERY)
    assert service.queries_served == 0
    assert service.solver_calls == 0


def test_successful_submit_counts_once(two_triangles):
    service = QueryService(two_triangles)
    service.submit(GOOD_QUERIES[0])
    assert service.queries_served == 1
    assert service.solver_calls == 1
    service.submit(GOOD_QUERIES[0])  # cache hit: served, not solved
    assert service.queries_served == 2
    assert service.solver_calls == 1


def test_sequential_batch_failure_is_also_consistent(two_triangles):
    service = QueryService(two_triangles)
    with pytest.raises(ReproError):
        service.submit_many([GOOD_QUERIES[0], BAD_QUERY])
    # submit_many delegates to submit(): the good query was answered
    # before the bad one raised.
    assert service.queries_served == 1
    assert service.solver_calls == 1


def test_rejected_http_query_moves_no_counters(two_triangles):
    # The HTTP front end had the same drift: answer() bumped
    # queries_served before the solve.  Now a 4xx leaves both counters
    # untouched, and a 200 counts exactly one served query per waiter.
    from tests.serving.test_http import post

    from repro.serving.http import ServingApp, run_server_in_thread

    service = QueryService(two_triangles)
    app = ServingApp(service)
    with run_server_in_thread(app) as base_url:
        status, __ = post(base_url, "/v1/query", {"k": -1, "r": 2, "f": "sum"})
        assert status == 400
        assert service.queries_served == 0
        assert service.solver_calls == 0
        status, __ = post(base_url, "/v1/query", {"k": 2, "r": 2, "f": "sum"})
        assert status == 200
        assert service.queries_served == 1
        assert service.solver_calls == 1
