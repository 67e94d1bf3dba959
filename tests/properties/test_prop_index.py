"""Index coherence under churn: every served answer equals a cold rebuild.

The strongest statement PR 6 makes: with an :class:`InfluentialIndex`
enabled, ANY interleaving of edge updates, weight updates and indexed
queries yields answers byte-identical to cold
:func:`~repro.influential.api.top_r_communities` runs against a graph
rebuilt from scratch out of the model's current state — the locality
bound, the lazy re-captures and the boundary-tie fallbacks may never
leak a stale or re-ordered ranking.  Size-constrained and TONIC queries
ride along: they are replayed from offer logs, which the same updates
must drop.  Weights come from a float range or from short palettes whose
sums round differently along different chains.  Mirrors
``test_prop_updates.py`` but drives the indexed dispatch path.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.graphs.builder import graph_from_edges
from repro.influential.api import top_r_communities
from repro.serving import InfluentialQuery, QueryService

INDEXED = ("sum", "sum-surplus(1)")
#: Tie-prone weight menus: integers, and two float menus that round.
PALETTES = ((1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (0.1, 0.7, 0.3, 1 / 3))


def _weights(rng, n):
    """Uniform floats, or draws from one of the palettes."""
    choice = int(rng.integers(len(PALETTES) + 1))
    if choice == len(PALETTES):
        return np.round(rng.uniform(0.1, 20.0, n), 4)
    return rng.choice(PALETTES[choice], size=n)


@st.composite
def indexed_queries(draw):
    return InfluentialQuery(
        k=draw(st.integers(1, 5)),
        r=draw(st.integers(1, 4)),
        f=draw(st.sampled_from(INDEXED)),
        method=draw(st.sampled_from(["auto", "improved"])),
    )


@st.composite
def sized_queries(draw):
    """Local-search queries an offer log answers, TONIC included."""
    k = draw(st.integers(1, 4))
    return InfluentialQuery(
        k=k,
        r=draw(st.integers(1, 5)),
        f=draw(st.sampled_from(["sum", "avg", "sum-surplus(1)", "min", "max"])),
        s=k + draw(st.integers(1, 4)),
        greedy=draw(st.booleans()),
        non_overlapping=draw(st.booleans()),
        seed_order=draw(st.sampled_from([None, "id", "weight"])),
        method=draw(st.sampled_from(["auto", "local"])),
    )


def _agree(service, query, graph):
    """The served answer equals a cold solve, bit for bit, or both raise
    the same error."""
    try:
        cold = top_r_communities(graph, **query.solver_kwargs())
    except ReproError as error:
        try:
            service.submit(query)
        except type(error):
            return
        raise AssertionError(f"{query} served, cold raised {error!r}")
    served = service.submit(query)
    assert served == cold
    assert [c.value.hex() for c in served] == [c.value.hex() for c in cold]


@st.composite
def index_scenarios(draw):
    n = draw(st.integers(4, 10))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    initial = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=20)
    )
    weight = st.one_of(
        st.floats(0.1, 20.0), st.sampled_from(sum(PALETTES, ()))
    )
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    ops = draw(
        st.lists(
            st.sampled_from(["submit", "submit", "edges", "reweight"]),
            min_size=1,
            max_size=8,
        )
    )
    seeds = draw(
        st.lists(st.integers(0, 2**16), min_size=len(ops), max_size=len(ops))
    )
    query_pool = draw(
        st.lists(
            st.one_of(indexed_queries(), sized_queries()), min_size=1, max_size=5
        )
    )
    depth = draw(st.integers(1, 5))
    return n, initial, weights, ops, seeds, query_pool, depth


@given(index_scenarios())
@settings(max_examples=40, deadline=None)
def test_indexed_answers_survive_interleaved_churn(scenario):
    n, initial, weights, ops, seeds, query_pool, depth = scenario
    edges = set(initial)
    weights = np.asarray(weights)
    service = QueryService(
        graph_from_edges(sorted(edges), weights=weights, n=n),
        cache_size=0,  # every submit must face the index, never the LRU
    )
    index = service.enable_index(depth=depth, aggregators=INDEXED)
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for op, seed in zip(ops, seeds):
        rng = np.random.default_rng(seed)
        if op == "submit":
            query = query_pool[seed % len(query_pool)]
            graph = graph_from_edges(sorted(edges), weights=weights, n=n)
            _agree(service, query, graph)
        elif op == "edges":
            absent = [edge for edge in possible if edge not in edges]
            present = sorted(edges)
            insert = [absent[rng.integers(len(absent))]] if absent else []
            delete = [present[rng.integers(len(present))]] if present else []
            if not insert and not delete:
                continue
            service.update_edges(insert=insert, delete=delete)
            edges |= set(insert)
            edges -= set(delete)
        else:
            weights = _weights(rng, n)
            service.update_weights(weights)
    # Whatever the interleaving did, a full sweep at the end still agrees
    # with cold solves level by level.
    final = graph_from_edges(sorted(edges), weights=weights, n=n)
    for k in range(1, service.kmax + 1):
        for f in INDEXED:
            _agree(service, InfluentialQuery(k=k, r=depth, f=f), final)
    for query in query_pool:
        _agree(service, query, final)
    assert index.built


@given(scenario=index_scenarios())
@settings(max_examples=15, deadline=None)
def test_snapshot_roundtrip_preserves_churned_index(tmp_path_factory, scenario):
    from repro.serving.store import load_service, save_snapshot

    n, initial, weights, ops, seeds, query_pool, depth = scenario
    edges = set(initial)
    weights = np.asarray(weights)
    service = QueryService(
        graph_from_edges(sorted(edges), weights=weights, n=n), cache_size=0
    )
    service.enable_index(depth=depth, aggregators=INDEXED)
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for op, seed in zip(ops, seeds):
        rng = np.random.default_rng(seed)
        if op == "edges":
            absent = [edge for edge in possible if edge not in edges]
            insert = [absent[rng.integers(len(absent))]] if absent else []
            if insert:
                service.update_edges(insert=insert)
                edges |= set(insert)
        elif op == "reweight":
            weights = _weights(rng, n)
            service.update_weights(weights)
    path = tmp_path_factory.mktemp("prop_index") / "snap"
    save_snapshot(service, path)
    restored = load_service(path, cache_size=0)
    assert restored.index is not None
    final = graph_from_edges(sorted(edges), weights=weights, n=n)
    for query in query_pool:
        _agree(restored, query, final)
