"""Golden parity: indexed answers are byte-identical to cold solves.

The index's whole contract is that :meth:`InfluentialIndex.serve` either
returns *exactly* what ``top_r_communities`` would (same vertex sets,
same order, same float bit patterns) or returns None and lets the solver
run.  These tests pin that over the oracle menagerie for every indexed
aggregator, on both engines (CSR and the reference set engine), across
every (k, r) in range — plus the
fallback edges: boundary value ties, truncated entries, and every
eligibility gate of :meth:`InfluentialIndex.plan`.
"""

from __future__ import annotations

import pytest

from repro.errors import SpecError
from repro.graphs.builder import graph_from_edges
from repro.index import INDEXED_METHODS, InfluentialIndex
from repro.influential.api import top_r_communities
from repro.serving.oracle import small_oracle_graphs
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService
from tests.conftest import ENGINES, engine

INDEXED_AGGREGATORS = ("sum", "sum-surplus(1.5)")
UNINDEXED_AGGREGATORS = ("min", "max", "avg", "weight-density(1)")
DEPTH = 4


def _byte_identical(produced, expected):
    return produced == expected and produced.values() == expected.values()


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("name,graph", small_oracle_graphs())
def test_indexed_answers_match_cold_solves(name, graph, engine_name):
    """Index captured (and fallbacks solved) on ``engine_name``; cold
    solves on the production engine."""
    service = QueryService(graph, cache_size=0)
    with engine(engine_name):
        service.enable_index(depth=DEPTH, aggregators=INDEXED_AGGREGATORS)
    for f in INDEXED_AGGREGATORS:
        for k in range(1, service.kmax + 2):  # +1 probes past kmax too
            for r in (1, 2, DEPTH, DEPTH + 3):
                with engine(engine_name):
                    served = service.submit(InfluentialQuery(k=k, r=r, f=f))
                cold = top_r_communities(graph, k=k, r=r, f=f)
                assert _byte_identical(served, cold), (
                    f"{name}/{engine_name}: k={k} r={r} f={f}"
                )
    # The sweep must have exercised the lookup path, not just fallbacks.
    assert service.index.hits > 0
    assert service.index.stats()["levels_ready"] >= service.kmax


@pytest.mark.parametrize("name,graph", small_oracle_graphs())
def test_unindexed_aggregators_fall_through_to_solver(name, graph):
    service = QueryService(graph, cache_size=0)
    index = service.enable_index(depth=DEPTH)
    before = index.hits
    for f in UNINDEXED_AGGREGATORS:
        query = InfluentialQuery(k=2, r=2, f=f)
        assert index.plan(query) is None
        served = service.submit(query)
        cold = top_r_communities(graph, k=2, r=2, f=f)
        assert _byte_identical(served, cold)
    assert index.hits == before
    assert service.solver_calls == len(UNINDEXED_AGGREGATORS)


def test_plan_eligibility_gates(figure1):
    index = InfluentialIndex(depth=DEPTH)
    service = QueryService(figure1)
    index.build(figure1, service.engine_pool)

    assert index.plan(InfluentialQuery(k=2, r=3, f="sum")) == (2, "sum")
    # Method "improved" ignores eps (the dispatch pins eps = 0), so any
    # eps value stays indexable there — but not under auto/approx.
    assert index.plan(
        InfluentialQuery(k=2, r=3, f="sum", method="improved", eps=0.5)
    ) == (2, "sum")
    for query in (
        InfluentialQuery(k=2, r=3, f="sum", eps=0.25),
        InfluentialQuery(k=2, r=3, f="sum", method="approx", eps=0.25),
        InfluentialQuery(k=2, r=3, f="sum", s=3),
        InfluentialQuery(k=2, r=3, f="sum", non_overlapping=True),
        InfluentialQuery(k=2, r=3, f="sum", cohesion="truss"),
        InfluentialQuery(k=2, r=3, f="sum", method="naive"),
        InfluentialQuery(k=2, r=3, f="sum", method="local"),
        InfluentialQuery(k=2, r=3, f="min"),
        InfluentialQuery(k=2, r=3, f="no-such-aggregator"),
        InfluentialQuery(k=0, r=3, f="sum"),
        InfluentialQuery(k=2, r=0, f="sum"),
    ):
        assert index.plan(query) is None, query.describe()


def test_indexed_methods_all_dispatch_to_the_index(figure1):
    service = QueryService(figure1, cache_size=0)
    index = service.enable_index(depth=DEPTH)
    for method in INDEXED_METHODS:
        eps = 0.5 if method == "improved" else 0.0
        query = InfluentialQuery(k=2, r=2, f="sum", method=method, eps=eps)
        served = service.submit(query)
        cold = top_r_communities(
            figure1, k=2, r=2, f="sum", method=method, eps=eps
        )
        assert _byte_identical(served, cold)
    assert service.solver_calls == 0
    assert index.hits == len(INDEXED_METHODS)


def test_boundary_value_tie_falls_back_to_solver():
    # Two disjoint triangles with *identical* weights: the top-2 sums tie,
    # so a r=1 slice cannot know which one the solver's insertion order
    # keeps — serve() must refuse and let the solver decide.
    graph = graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        weights=[2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
    )
    service = QueryService(graph, cache_size=0)
    index = service.enable_index(depth=2)
    served = service.submit(InfluentialQuery(k=2, r=1, f="sum"))
    cold = top_r_communities(graph, k=2, r=1, f="sum")
    assert _byte_identical(served, cold)
    assert index.fallbacks >= 1
    assert service.solver_calls == 1
    # r = depth is the identical solver call — no tie to break, serveable.
    served = service.submit(InfluentialQuery(k=2, r=2, f="sum"))
    cold = top_r_communities(graph, k=2, r=2, f="sum")
    assert _byte_identical(served, cold)
    assert service.solver_calls == 1


def test_complete_entry_serves_any_r(two_triangles):
    # The k=2 family on two disjoint triangles is smaller than depth=8,
    # so the capture is complete — r far beyond the family size is
    # serveable from it (larger r can never add communities).
    service = QueryService(two_triangles, cache_size=0)
    index = service.enable_index(depth=8)
    for r in (1, 2, 5, 100):
        served = service.submit(InfluentialQuery(k=2, r=r, f="sum"))
        cold = top_r_communities(two_triangles, k=2, r=r, f="sum")
        assert _byte_identical(served, cold)
    assert service.solver_calls == 0
    assert index.level_state(2, "sum").startswith("complete")


def test_index_rejects_unindexable_aggregators():
    for bad in ("min", "max", "avg", "weight-density(1)"):
        with pytest.raises(SpecError):
            InfluentialIndex(aggregators=(bad,))
    with pytest.raises(SpecError):
        InfluentialIndex(aggregators=())


def test_depth_must_be_positive():
    with pytest.raises(SpecError):
        InfluentialIndex(depth=0)
