"""Counter consistency and deterministic sharding (PR 6 bugfixes).

Two drift bugs are pinned here.  ``submit`` used to bump
``queries_served`` *before* a solve that could raise, so rejected
queries inflated the served tally forever; ``submit_many`` used to add
``len(todo)`` to ``solver_calls`` whether or not the shard futures
succeeded.  Both counters now move only on success — ``queries_served``
counts answered queries, ``solver_calls`` completed solver runs — and
shard assignment goes through a stable CRC-32 digest instead of
``hash()``, whose PYTHONHASHSEED salting shuffled shards (and bench
timings) across interpreter runs.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService, _stable_shard

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


def test_failed_batch_counts_completed_shards_only(two_triangles):
    service = QueryService(two_triangles)
    batch = GOOD_QUERIES + [BAD_QUERY]
    with pytest.raises(ReproError):
        service.submit_many(batch, workers=2)
    # The batch as a whole was never answered...
    assert service.queries_served == 0
    # ...but whatever shards completed were counted and cached: their
    # results must serve later batches without re-solving.
    completed_keys = [
        q.cache_key() for q in GOOD_QUERIES if service.peek(q) is not None
    ]
    assert service.solver_calls == len(completed_keys)
    before = service.solver_calls
    results = service.submit_many(GOOD_QUERIES, workers=2)
    assert len(results) == len(GOOD_QUERIES)
    assert service.queries_served == len(GOOD_QUERIES)
    assert service.solver_calls == before + (len(GOOD_QUERIES) - len(completed_keys))


def test_sequential_batch_failure_is_also_consistent(two_triangles):
    service = QueryService(two_triangles)
    with pytest.raises(ReproError):
        service.submit_many([GOOD_QUERIES[0], BAD_QUERY], workers=1)
    # Sequential path delegates to submit(): the good query was answered
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


def test_stable_shard_is_pinned_across_interpreters():
    # Literal digests: a change in the key layout or the digest function
    # silently reshuffles shard assignment — this test makes it loud.
    # (Re-pinned when the key gained its constraints slot.)
    assert _stable_shard(InfluentialQuery(k=2, r=3, f="sum").cache_key()) == 2996404414
    assert (
        _stable_shard(
            InfluentialQuery(k=4, r=5, f="sum-surplus(1.5)", eps=0.25).cache_key()
        )
        == 3824327851
    )
    assert (
        _stable_shard(
            InfluentialQuery(k=1, r=1, f="min", cohesion="truss").cache_key()
        )
        == 2885373568
    )


def test_stable_shard_ignores_hash_salt(two_triangles):
    # The same key must land on the same shard no matter the seed; the
    # digest is a pure function of the canonical key repr.
    keys = [q.cache_key() for q in GOOD_QUERIES]
    assignment = [_stable_shard(key) % 3 for key in keys]
    assert assignment == [_stable_shard(key) % 3 for key in keys]
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    script = (
        "from repro.serving.service import _stable_shard\n"
        "from repro.serving.query import InfluentialQuery\n"
        "qs = [InfluentialQuery(k=2, r=2, f='sum'),"
        " InfluentialQuery(k=2, r=3, f='sum'),"
        " InfluentialQuery(k=1, r=2, f='min'),"
        " InfluentialQuery(k=3, r=1, f='avg')]\n"
        "print([_stable_shard(q.cache_key()) % 3 for q in qs])\n"
    )
    for seed in ("0", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
            check=True,
        )
        assert out.stdout.strip() == str(assignment)
