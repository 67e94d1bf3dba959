"""Offer-log replay equals cold Algorithm 4 for every r.

An index-served size-constrained query is replayed from one
threshold-free capture per key.  Whatever the key — aggregator family,
greedy or random, seed order, TIC or TONIC — the replay for each r must
return what :func:`local_search` returns for that r: the same vertex
sets, value bits and order.  Weights come from short palettes, where
ties and ulp-level near-ties are common ({0.1, 0.2, 0.3} and
{0.1, 0.7, 0.3, 1/3} round differently along different prefixes; the
integers do not).  The reference strategies under
:func:`repro.reference.set_engine` stay the oracle: the replay must
match them too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.graphs.builder import graph_from_edges
from repro.influential.local_search import local_search
from repro.serving import InfluentialQuery, QueryService

#: Weight palettes: integers, then two float menus that round.
PALETTES = ((1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (0.1, 0.7, 0.3, 1 / 3))
AGGREGATORS = ("sum", "sum-surplus(1)", "avg", "min", "max")
RS = range(1, 13)


@st.composite
def palette_graphs(draw, min_n=4, max_n=16):
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=n, max_size=60)
    )
    palette = draw(st.sampled_from(PALETTES))
    weights = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return graph_from_edges(edges, weights=weights, n=n)


def _bits(result):
    return [(c.vertices, c.value.hex()) for c in result]


@given(
    palette_graphs(),
    st.sampled_from(AGGREGATORS),
    st.booleans(),
    st.sampled_from([None, "id", "weight", "shuffled"]),
    st.booleans(),
    st.sampled_from(["auto", "local"]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_replay_equals_cold_local_search_for_every_r(
    graph, f, greedy, seed_order, non_overlapping, method, data
):
    service = QueryService(graph, cache_size=0)
    index = service.enable_index(depth=2)
    k = data.draw(st.integers(1, max(1, service.kmax)))
    s = data.draw(st.integers(k + 1, max(k + 1, graph.n)))
    kwargs = dict(
        k=k, s=s, f=f, greedy=greedy, non_overlapping=non_overlapping,
        seed_order=seed_order, rng_seed=7,
    )
    for r in RS:
        served = service.submit(InfluentialQuery(r=r, method=method, **kwargs))
        cold = local_search(graph, r=r, **kwargs)
        assert _bits(served) == _bits(cold), r
        with reference.set_engine():
            oracle = local_search(graph, r=r, **kwargs)
        assert _bits(served) == _bits(oracle), r
    assert service.solver_calls == 0
    assert index.log_builds == 1
