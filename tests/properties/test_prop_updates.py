"""Cache coherence under *topology* churn.

PR 3's property suite pinned the serving caches under weight updates;
this one adds edge updates to the mix.  The invariant is the same and
stronger: after ANY interleaving of edge updates, weight updates and
submits, a served answer equals a cold
:func:`~repro.influential.api.top_r_communities` run against a graph
rebuilt *from scratch* out of the model's current edge set — scoped
invalidation, patched CSR arrays and incrementally repaired core numbers
may never leak a stale result.  The service answers on either engine
(CSR or the reference set engine), and the final core numbers are
checked against the reference decomposition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.graphs.builder import graph_from_edges
from repro.influential.api import top_r_communities
from repro.serving import InfluentialQuery, QueryService
from tests.conftest import ENGINES, engine

AGGREGATORS = ("sum", "sum-surplus(1)", "min", "max", "avg")


@st.composite
def queries(draw):
    return InfluentialQuery(
        k=draw(st.integers(1, 5)),
        r=draw(st.integers(1, 4)),
        f=draw(st.sampled_from(AGGREGATORS)),
        eps=draw(st.sampled_from([0.0, 0.25])),
    )


@st.composite
def update_scenarios(draw):
    n = draw(st.integers(4, 10))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    initial = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=20)
    )
    weights = draw(st.lists(st.floats(0.1, 20.0), min_size=n, max_size=n))
    ops = draw(
        st.lists(
            st.sampled_from(["submit", "submit", "edges", "edges", "reweight"]),
            min_size=1,
            max_size=8,
        )
    )
    seeds = draw(
        st.lists(
            st.integers(0, 2**16), min_size=len(ops), max_size=len(ops)
        )
    )
    query_pool = draw(st.lists(queries(), min_size=1, max_size=4))
    engine_name = draw(st.sampled_from(ENGINES))
    return n, initial, weights, ops, seeds, query_pool, engine_name


@given(update_scenarios())
@settings(max_examples=40, deadline=None)
def test_interleaved_edge_updates_match_cold_rebuilds(scenario):
    n, initial, weights, ops, seeds, query_pool, engine_name = scenario
    edges = set(initial)
    weights = np.asarray(weights)
    service = QueryService(
        graph_from_edges(sorted(edges), weights=weights, n=n),
        cache_size=4,  # tiny: force evictions alongside invalidations
    )
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for op, seed in zip(ops, seeds):
        rng = np.random.default_rng(seed)
        if op == "submit":
            query = query_pool[seed % len(query_pool)]
            with engine(engine_name):
                served = service.submit(query)
            cold = top_r_communities(
                graph_from_edges(sorted(edges), weights=weights, n=n),
                **query.solver_kwargs(),
            )
            assert served == cold
            assert served.values() == cold.values()
        elif op == "edges":
            absent = [edge for edge in possible if edge not in edges]
            present = sorted(edges)
            insert = (
                [absent[rng.integers(len(absent))]] if absent else []
            )
            delete = (
                [present[rng.integers(len(present))]] if present else []
            )
            if not insert and not delete:
                continue
            service.update_edges(insert=insert, delete=delete)
            edges |= set(insert)
            edges -= set(delete)
        else:
            weights = np.round(rng.uniform(0.1, 20.0, n), 4)
            service.update_weights(weights)
    rebuilt = graph_from_edges(sorted(edges), weights=weights, n=n)
    assert service.graph.m == rebuilt.m
    assert np.array_equal(
        service.core_numbers, reference.core_decomposition(rebuilt)
    )
    assert service.graph.weights.tolist() == rebuilt.weights.tolist()


@given(update_scenarios())
@settings(max_examples=15, deadline=None)
def test_truss_serving_survives_edge_churn(scenario):
    n, initial, weights, ops, seeds, __, __ = scenario
    edges = set(initial)
    service = QueryService(
        graph_from_edges(sorted(edges), weights=weights, n=n)
    )
    truss_query = InfluentialQuery(k=2, r=2, f="sum", cohesion="truss")
    service.submit(truss_query)  # warm the truss cache, then churn it
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for op, seed in zip(ops, seeds):
        if op != "edges":
            continue
        rng = np.random.default_rng(seed)
        absent = [edge for edge in possible if edge not in edges]
        present = sorted(edges)
        insert = [absent[rng.integers(len(absent))]] if absent else []
        delete = [present[rng.integers(len(present))]] if present else []
        if not insert and not delete:
            continue
        service.update_edges(insert=insert, delete=delete)
        edges |= set(insert)
        edges -= set(delete)
        served = service.submit(truss_query)
        cold = QueryService(
            graph_from_edges(sorted(edges), weights=weights, n=n)
        ).submit(truss_query)
        assert served == cold
        assert served.values() == cold.values()
