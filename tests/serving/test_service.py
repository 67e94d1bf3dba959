"""QueryService behaviour: caching, invalidation, pooling, sharding."""

import pytest

from repro.errors import SolverError
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.influential.api import top_r_communities, top_r_many
from repro.influential.truss_search import truss_top_r_min, truss_top_r_sum
from repro.reference import set_engine
from repro.serving import InfluentialQuery, QueryService
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def served_graph():
    graph = gnm_random_graph(300, 1800, seed=17)
    return graph.with_weights(make_rng(18).uniform(0.1, 30.0, graph.n))


MIXED_WORKLOAD = [
    InfluentialQuery(k=2, r=3, f="sum"),
    InfluentialQuery(k=3, r=1, f="sum", eps=0.1),
    InfluentialQuery(k=3, r=2, f="sum-surplus(1)"),
    InfluentialQuery(k=2, r=2, f="min"),
    InfluentialQuery(k=2, r=2, f="max"),
    InfluentialQuery(k=4, r=3, f="sum", method="naive"),
    InfluentialQuery(k=40, r=2, f="sum"),  # above kmax: served empty
]


def test_submit_matches_cold_api(served_graph):
    service = QueryService(served_graph)
    for query in MIXED_WORKLOAD:
        expected = top_r_communities(served_graph, **query.solver_kwargs())
        assert service.submit(query) == expected
        assert service.submit(query).values() == expected.values()


def test_repeat_submissions_hit_the_cache(served_graph):
    service = QueryService(served_graph)
    query = InfluentialQuery(k=3, r=2, f="sum")
    first = service.submit(query)
    solves = service.solver_calls
    assert service.submit(query) is first  # the cached object itself
    assert service.solver_calls == solves
    stats = service.stats()
    assert stats["result_cache"]["hits"] == 1


def test_equivalent_spellings_share_one_cache_entry(served_graph):
    service = QueryService(served_graph)
    service.submit(InfluentialQuery(k=3, r=2, f="sum-surplus(1)"))
    from repro.aggregators.summation import SumSurplus

    service.submit(InfluentialQuery(k=3, r=2, f=SumSurplus(1.0)))
    assert service.solver_calls == 1


def test_submit_many_preserves_order_and_dedupes(served_graph):
    service = QueryService(served_graph)
    batch = MIXED_WORKLOAD + MIXED_WORKLOAD
    results = service.submit_many(batch)
    assert len(results) == len(batch)
    assert service.solver_calls == len(MIXED_WORKLOAD)
    for query, result in zip(batch, results):
        assert result == top_r_communities(
            served_graph, **query.solver_kwargs()
        )


def test_kmax_fast_path_and_core_cache(served_graph):
    service = QueryService(served_graph)
    assert service.kmax >= 2
    empty = service.submit(InfluentialQuery(k=service.kmax + 1, r=3))
    assert len(empty) == 0
    assert empty == top_r_communities(
        served_graph, k=service.kmax + 1, r=3, f="sum"
    )
    assert (service.core_numbers >= 0).all()


def test_update_weights_invalidates_results_and_reuses_topology(served_graph):
    service = QueryService(served_graph)
    query = InfluentialQuery(k=3, r=3, f="sum")
    before = service.submit(query)
    new_weights = make_rng(99).uniform(0.1, 30.0, served_graph.n)
    service.update_weights(new_weights)
    after = service.submit(query)
    reweighted = served_graph.with_weights(new_weights)
    assert after == top_r_communities(reweighted, **query.solver_kwargs())
    assert after != before
    # Same topology object: CSR and core caches were not rebuilt.
    assert service.graph.csr is served_graph.csr
    assert service.stats()["result_cache"]["size"] == 1


def test_update_weights_refreshes_pooled_structures(served_graph):
    service = QueryService(served_graph)
    query = InfluentialQuery(k=3, r=4, f="sum", eps=0.05)
    service.submit(query)  # populates pooled structures
    new_weights = make_rng(123).uniform(0.1, 30.0, served_graph.n)
    service.update_weights(new_weights)
    reweighted = served_graph.with_weights(new_weights)
    assert service.submit(query) == top_r_communities(
        reweighted, **query.solver_kwargs()
    )


def test_invalidate_per_k(served_graph):
    service = QueryService(served_graph)
    service.submit(InfluentialQuery(k=2, r=1))
    service.submit(InfluentialQuery(k=3, r=1))
    assert service.invalidate(k=2) == 1
    assert service.stats()["result_cache"]["size"] == 1
    assert service.invalidate() == 1
    assert service.stats()["result_cache"]["size"] == 0


def test_replace_graph_resets_everything(served_graph):
    service = QueryService(served_graph)
    service.submit(InfluentialQuery(k=2, r=1))
    other = gnm_random_graph(60, 240, seed=5).with_weights(
        make_rng(6).uniform(0.5, 5.0, 60)
    )
    service.replace_graph(other)
    assert service.graph is other
    assert service.stats()["result_cache"]["size"] == 0
    query = InfluentialQuery(k=2, r=2)
    assert service.submit(query) == top_r_communities(
        other, **query.solver_kwargs()
    )


def test_truss_queries_served_and_cached(served_graph):
    service = QueryService(served_graph)
    query = InfluentialQuery(k=3, r=2, f="sum", cohesion="truss")
    assert service.submit(query) == truss_top_r_sum(served_graph, 3, 2, "sum")
    solves = service.solver_calls
    service.submit(query)
    assert service.solver_calls == solves
    assert service.submit(
        InfluentialQuery(k=3, r=2, f="min", cohesion="truss")
    ) == truss_top_r_min(served_graph, 3, 2)
    # Above tmax: served empty without running the solver machinery.
    assert len(service.submit(
        InfluentialQuery(k=service.tmax + 1, r=2, f="sum", cohesion="truss")
    )) == 0


def test_truss_rejections_mirror_solver_errors(served_graph):
    service = QueryService(served_graph)
    with pytest.raises(SolverError):
        service.submit(InfluentialQuery(k=3, r=2, f="avg", cohesion="truss"))
    with pytest.raises(SolverError):
        service.submit(
            InfluentialQuery(k=3, r=2, f="sum", s=10, cohesion="truss")
        )


def test_engine_pool_reused_across_queries(served_graph):
    service = QueryService(served_graph)
    service.submit(InfluentialQuery(k=3, r=4, f="sum"))
    service.submit(InfluentialQuery(k=3, r=4, f="sum", eps=0.2))
    pool_stats = service.stats()["engine_pool"]
    assert pool_stats["ks_seeded"] == [3]
    assert pool_stats["structure_hits"] > 0


def test_set_backend_service_matches_csr(served_graph):
    """A service solving on the reference set engine answers like one on
    the CSR engine."""
    csr = QueryService(served_graph)
    alt = QueryService(served_graph)
    for query in MIXED_WORKLOAD[:4]:
        with set_engine():
            expected = alt.submit(query)
        assert csr.submit(query) == expected


def test_top_r_many_wrapper(served_graph):
    queries = [
        {"k": 2, "r": 2, "f": "sum"},
        InfluentialQuery(k=3, r=1, f="min"),
        {"k": 2, "r": 2, "f": "sum"},
    ]
    results = top_r_many(served_graph, queries)
    assert len(results) == 3
    assert results[0] == results[2]
    assert results[0] == top_r_communities(served_graph, k=2, r=2, f="sum")


def test_zero_cache_size_still_serves(served_graph):
    service = QueryService(served_graph, cache_size=0)
    query = InfluentialQuery(k=3, r=2, f="sum")
    assert service.submit(query) == service.submit(query)
    assert service.solver_calls == 2  # nothing was cached


def test_fast_path_preserves_solver_validation_errors(served_graph):
    # Above-kmax queries short-circuit ONLY when no solver-side validation
    # could fire: invalid eps / seed_order must raise exactly as cold.
    service = QueryService(served_graph)
    oversized = service.kmax + 5
    with pytest.raises(SolverError):
        top_r_communities(served_graph, k=oversized, r=2, f="sum", eps=1.5)
    with pytest.raises(SolverError):
        service.submit(InfluentialQuery(k=oversized, r=2, f="sum", eps=1.5))
    with pytest.raises(SolverError):
        service.submit(
            InfluentialQuery(k=oversized, r=2, f="avg", seed_order="bogus")
        )
    # Valid parameters still take the fast path to an empty result.
    assert len(service.submit(
        InfluentialQuery(k=oversized, r=2, f="sum", eps=0.1)
    )) == 0


def test_oversized_ks_share_one_pool_state(served_graph):
    service = QueryService(served_graph)
    pool = service.engine_pool
    states = {
        id(pool._state_for(service.kmax + extra)) for extra in range(1, 30)
    }
    assert len(states) == 1                      # one shared empty state
    assert pool._state_for(service.kmax + 1).owner is None
    assert service.stats()["engine_pool"]["ks_seeded"] == []


def test_truss_min_fast_path_preserves_r_validation(served_graph):
    service = QueryService(served_graph)
    with pytest.raises(SolverError):  # cold truss_top_r_min raises for r=0
        service.submit(
            InfluentialQuery(k=service.tmax + 40, r=0, f="min",
                             cohesion="truss")
        )


def test_per_k_seed_states_are_lru_bounded(served_graph):
    from repro.serving.engine_pool import ExpansionEnginePool

    pool = ExpansionEnginePool(served_graph, k_state_capacity=2)
    for k in (2, 3, 4):
        assert pool.seed_members(k)
    assert len(pool._per_k) == 2  # k=2 evicted
    # Evicted ks are recomputed on demand, identically.
    from repro.core.kcore import connected_kcore_components

    expected = [
        sorted(c) for c in connected_kcore_components(
            served_graph, range(served_graph.n), 2
        )
    ]
    assert [m.ids.tolist() for m in pool.seed_members(2)] == expected
