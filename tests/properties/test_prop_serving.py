"""Cache-coherence property of the serving layer.

The invariant: after ANY interleaving of submits, weight updates and
explicit invalidations, a served answer equals a cold
:func:`~repro.influential.api.top_r_communities` run against the
service's *current* graph — the caches may never leak a stale or
foreign result.  Hypothesis drives random graphs, random operation
sequences, and cold runs on either engine (CSR or the reference set
engine) through one model-based check.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builder import graph_from_edges
from repro.influential.api import top_r_communities
from repro.serving import InfluentialQuery, QueryService
from tests.conftest import ENGINES, engine

AGGREGATORS = ("sum", "sum-surplus(1)", "min", "max", "avg")


@st.composite
def weighted_graphs(draw, min_n=4, max_n=12, max_edges=30):
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=max_edges)
    )
    weights = draw(
        st.lists(st.floats(0.1, 20.0), min_size=n, max_size=n)
    )
    return graph_from_edges(edges, weights=weights, n=n)


@st.composite
def queries(draw):
    return InfluentialQuery(
        k=draw(st.integers(1, 5)),
        r=draw(st.integers(1, 4)),
        f=draw(st.sampled_from(AGGREGATORS)),
        eps=draw(st.sampled_from([0.0, 0.25])),
    )


@st.composite
def operations(draw, n):
    kind = draw(st.sampled_from(["submit", "submit", "submit",
                                 "reweight", "invalidate"]))
    if kind == "submit":
        return ("submit", (draw(queries()), draw(st.sampled_from(ENGINES))))
    if kind == "reweight":
        seed = draw(st.integers(0, 2**16))
        weights = np.round(
            np.random.default_rng(seed).uniform(0.1, 20.0, n), 4
        )
        return ("reweight", weights)
    return ("invalidate", draw(st.one_of(st.none(), st.integers(1, 5))))


@st.composite
def serving_scenarios(draw):
    graph = draw(weighted_graphs())
    ops = draw(st.lists(operations(graph.n), min_size=1, max_size=8))
    return graph, ops


@given(serving_scenarios())
@settings(max_examples=40, deadline=None)
def test_interleaved_operations_match_cold_runs(scenario):
    graph, ops = scenario
    service = QueryService(graph, cache_size=4)  # tiny: force evictions too
    current = graph
    for kind, payload in ops:
        if kind == "submit":
            query, cold_engine = payload
            served = service.submit(query)
            with engine(cold_engine):
                cold = top_r_communities(current, **query.solver_kwargs())
            assert served == cold
            assert served.values() == cold.values()
        elif kind == "reweight":
            service.update_weights(payload)
            current = current.with_weights(payload)
        else:
            service.invalidate(k=payload)
    assert service.graph.weights.tolist() == current.weights.tolist()


@given(weighted_graphs(), st.lists(queries(), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_batches_match_per_query_submission(graph, workload):
    batched = QueryService(graph).submit_many(workload + workload)
    solo = QueryService(graph)
    expected = [solo.submit(query) for query in workload] * 2
    # Order-preserving, duplicate-consistent, equal to per-query serving.
    assert [r.vertex_sets() for r in batched] == (
        [r.vertex_sets() for r in expected]
    )
    assert [r.values() for r in batched] == [r.values() for r in expected]
