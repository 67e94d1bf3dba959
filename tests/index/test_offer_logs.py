"""Offer logs: size-constrained queries answered by replay, and the
sum-family index's rounding margin.

A query with an explicit ``s`` dispatches to Algorithm 4 (local search).
With an index enabled, the first such query for a key builds an offer
log and every later query for that key, at any ``r``, replays it.  These
tests pin the replay to cold :func:`local_search` runs, the lifecycle
(invalidation, LRU bound, counters kept apart from the level counters),
and that queries the cold path rejects or short-circuits still do so.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.graphs.builder import graph_from_edges
from repro.index.influential_index import LOG_CAPACITY
from repro.influential.api import top_r_communities
from repro.influential.local_search import capture_offers, local_search
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService


def _bits(result):
    return [(c.vertices, c.value.hex()) for c in result]


#: Greedy ``avg`` on float weights: the run for r=8 fills with two
#: 0.6999999999999998 communities and never raises its threshold, while
#: the run for r=2 fills early, and a later seed's prefix, whose rounded
#: average is 0.7, beats it.  Slicing a depth capture serves the wrong
#: sets here; the replay does not.
FLOAT_RISE = dict(
    edges=[
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 8), (1, 2),
        (1, 3), (1, 5), (1, 6), (1, 8), (2, 3), (2, 4), (2, 5), (2, 6),
        (2, 7), (2, 8), (3, 4), (3, 5), (3, 7), (3, 8), (4, 5), (4, 6),
        (4, 8), (5, 6), (5, 8), (6, 8), (7, 8),
    ],
    weights=[0.7, 0.7, 0.7, 0.3, 1 / 3, 1 / 3, 1 / 3, 0.7, 0.7],
)

#: The sum-family index's near-tie: {1,2,3,5,6,7,8,10} is worth
#: 1.8000000000000005 in the r=8 run and 1.800000000000001 in the r=4
#: run, which passes {1,2,4,5,6,7,8,10} (1.8000000000000007) by an ulp.
NEAR_TIE = dict(
    edges=[
        (0, 3), (0, 5), (0, 10), (0, 11), (1, 2), (1, 5), (1, 7), (2, 7),
        (2, 10), (3, 5), (3, 8), (3, 10), (4, 5), (4, 6), (4, 8), (5, 7),
        (6, 7), (6, 8), (6, 9), (6, 10), (7, 8), (7, 10), (10, 11),
    ],
    weights=[0.2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.1, 0.2, 0.2, 0.2, 0.1, 0.2],
    n=12,
)


@pytest.fixture
def float_rise():
    return graph_from_edges(FLOAT_RISE["edges"], weights=FLOAT_RISE["weights"])


@pytest.fixture
def tiered():
    """A 6-clique (core 5) with a path hanging off it (core 1): an edge
    written on the path leaves every level above 2 untouched."""
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    edges += [(0, 6), (6, 7), (7, 8), (8, 9)]
    weights = [0.1, 0.7, 0.3, 1 / 3, 0.2, 0.9, 0.4, 0.6, 0.5, 0.8]
    return graph_from_edges(edges, weights=weights)


def _indexed(graph, cache_size=0):
    service = QueryService(graph, cache_size=cache_size)
    service.enable_index(depth=4)
    return service


def test_float_rise_case_defeats_slicing_but_not_the_replay(float_rise):
    deep = local_search(float_rise, 2, 8, 7, "avg")
    cold = local_search(float_rise, 2, 2, 7, "avg")
    assert _bits(deep[:2]) != _bits(cold)
    assert cold.values() == [0.7, 0.7] and deep.values()[0] < 0.7
    service = _indexed(float_rise)
    for r in range(1, 13):
        query = InfluentialQuery(k=2, r=r, f="avg", s=7)
        expected = local_search(float_rise, 2, r, 7, "avg")
        assert _bits(service.submit(query)) == _bits(expected), r
    assert service.solver_calls == 0
    assert service.index.log_builds == 1
    assert service.index.log_replays == 12


def test_sum_index_refuses_near_ties_within_the_rounding_margin():
    graph = graph_from_edges(
        NEAR_TIE["edges"], weights=NEAR_TIE["weights"], n=NEAR_TIE["n"]
    )
    service = _indexed(graph)
    service.enable_index(depth=8)
    for r in range(1, 9):
        served = service.submit(InfluentialQuery(k=3, r=r, f="sum"))
        assert _bits(served) == _bits(top_r_communities(graph, 3, r, "sum")), r
    # r=4 is the near-tie: it must have gone to the solver.
    assert service.index.fallbacks >= 1
    assert service.index.hits >= 1


@pytest.mark.parametrize(
    "f, greedy, non_overlapping, seed_order",
    [
        ("sum", True, False, None),
        ("avg", False, False, "weight"),
        ("sum-surplus(1)", True, False, "shuffled"),
        ("max", False, True, None),
        ("avg", True, True, "id"),
    ],
)
def test_each_key_kind_replays_the_cold_answer(
    tiered, f, greedy, non_overlapping, seed_order
):
    service = _indexed(tiered)
    for r in range(1, 8):
        query = InfluentialQuery(
            k=2, r=r, f=f, s=5, greedy=greedy,
            non_overlapping=non_overlapping, seed_order=seed_order,
            rng_seed=9,
        )
        cold = top_r_communities(tiered, **query.solver_kwargs())
        assert _bits(service.submit(query)) == _bits(cold), r
    assert service.solver_calls == 0
    assert service.index.log_builds == 1


def test_log_counters_stay_apart_from_the_level_counters(tiered):
    service = _indexed(tiered)
    index = service.index
    before = {key: index.stats()[key] for key in ("hits", "fallbacks", "builds")}
    for r in (1, 3, 5):
        service.submit(InfluentialQuery(k=3, r=r, f="avg", s=6))
    stats = index.stats()
    assert {key: stats[key] for key in before} == before
    assert stats["offer_logs"] == 1
    assert stats["offer_log_builds"] == 1
    assert stats["offer_log_replays"] == 3
    assert stats["offer_logs_dropped"] == 0


@pytest.mark.parametrize(
    "fields",
    [
        dict(k=2, r=2, f="avg", s=2),  # s below k + 1
        dict(k=2, r=2, f="avg", s=99),  # s above |V|
        dict(k=2, r=0, f="avg", s=5),
        dict(k=0, r=2, f="avg", s=5),
        dict(k=2, r=2, f="bogus", s=5),
        dict(k=2, r=2, f="avg", s=5, seed_order="sideways"),
    ],
)
def test_rejected_sized_queries_raise_as_cold(tiered, fields):
    query = InfluentialQuery(**fields)
    with pytest.raises(ReproError) as cold:
        top_r_communities(tiered, **query.solver_kwargs())
    service = _indexed(tiered)
    with pytest.raises(type(cold.value)):
        service.submit(query)
    assert service.index.log_builds == 0


@pytest.mark.parametrize(
    "fields",
    [
        dict(k=6, r=2, f="avg", s=8),  # k above kmax: empty
        dict(k=2, r=2, f="avg", s=5, method="exact"),  # Algorithm 3
        dict(k=2, r=2, f="avg"),  # unconstrained local search
        dict(k=2, r=2, f="sum", s=5, constraints={"labels": "x"}),
    ],
)
def test_queries_outside_the_logs_take_the_solver(tiered, fields):
    query = InfluentialQuery(**fields)
    service = _indexed(tiered)
    try:
        served = service.submit(query)
    except ReproError as error:
        with pytest.raises(type(error)):
            top_r_communities(tiered, **query.solver_kwargs())
    else:
        cold = top_r_communities(tiered, **query.solver_kwargs())
        assert _bits(served) == _bits(cold)
    assert service.index.log_builds == 0


def test_edge_updates_drop_logs_at_or_below_the_locality_bound(tiered):
    service = _indexed(tiered)
    index = service.index
    low = InfluentialQuery(k=1, r=3, f="avg", s=4)
    high = InfluentialQuery(k=4, r=3, f="sum", s=6)
    service.submit(low)
    service.submit(high)
    report = service.update_edges(insert=[(7, 9)])
    assert report.delta.max_affected_core < 4
    assert index.stats()["offer_logs"] == 1
    assert index.logs_dropped == 1
    graph = service.graph
    for query in (low, high):
        cold = top_r_communities(graph, **query.solver_kwargs())
        assert _bits(service.submit(query)) == _bits(cold)
    assert index.log_builds == 3  # only the low log was rebuilt


def test_weight_updates_and_reset_drop_every_log(tiered):
    service = _indexed(tiered)
    index = service.index
    query = InfluentialQuery(k=2, r=2, f="avg", s=5)
    service.submit(query)
    weights = np.linspace(0.1, 1.0, tiered.n)
    service.update_weights(weights)
    assert index.stats()["offer_logs"] == 0
    served = service.submit(query)
    cold = top_r_communities(tiered.with_weights(weights), **query.solver_kwargs())
    assert _bits(served) == _bits(cold)
    service.replace_graph(tiered)
    assert index.stats()["offer_logs"] == 0
    assert index.logs_dropped == 2
    assert _bits(service.submit(query)) == _bits(
        top_r_communities(tiered, **query.solver_kwargs())
    )


def test_result_cache_invalidation_keeps_the_logs(tiered):
    service = _indexed(tiered, cache_size=16)
    query = InfluentialQuery(k=2, r=2, f="avg", s=5)
    service.submit(query)
    assert service.invalidate(2) == 1
    service.submit(query)
    stats = service.index.stats()
    assert stats["offer_log_builds"] == 1
    assert stats["offer_log_replays"] == 2


def test_logs_are_lru_bounded(tiered):
    service = _indexed(tiered)
    index = service.index
    keys = [
        InfluentialQuery(k=1, r=1, f="sum", s=2, seed_order="shuffled", rng_seed=seed)
        for seed in range(LOG_CAPACITY + 2)
    ]
    for query in keys:
        service.submit(query)
    assert index.stats()["offer_logs"] == LOG_CAPACITY
    assert index.logs_dropped == 2
    service.submit(keys[-1])  # still held: a replay, no build
    assert index.log_builds == LOG_CAPACITY + 2


def test_capture_offers_shares_communities_per_vertex_set(tiered):
    log = capture_offers(tiered, 2, 5, "sum")
    kept = [c for steps in log.records for __, c in steps if c is not None]
    by_set = {}
    for community in kept:
        by_set.setdefault(community.vertices, set()).add(id(community))
    assert all(len(ids) == 1 for ids in by_set.values())


def test_offer_log_stats_over_http(tiered):
    from tests.serving.test_http import get, post

    from repro.serving.http import ServingApp, run_server_in_thread

    service = _indexed(tiered, cache_size=16)
    with run_server_in_thread(ServingApp(service)) as base_url:
        body = {"k": 2, "r": 3, "f": "avg", "s": 5}
        for __ in range(2):
            status, payload = post(base_url, "/v1/query", body)
            assert status == 200
            status, __ = post(base_url, "/v1/invalidate", {"k": 2})
            assert status == 200
        cold = top_r_communities(tiered, k=2, r=3, f="avg", s=5)
        assert payload["values"] == cold.values()
        status, stats = get(base_url, "/v1/stats")
    assert status == 200
    index = stats["index"]
    assert index["offer_logs"] == 1
    assert index["offer_log_builds"] == 1
    assert index["offer_log_replays"] == 2
    assert index["offer_logs_dropped"] == 0
    assert index["hits"] == index["fallbacks"] == 0
    assert stats["solver_calls"] == 0
