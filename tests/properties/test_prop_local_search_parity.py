"""Property-based parity between Algorithm 4's prefix sweep and its oracle.

The production strategies test prefixes with one lazy
:class:`~repro.influential.strategies.PrefixSweep` per seed and scalar
running statistics; :mod:`repro.reference` keeps the original strategies,
which rebuild a set and rescan adjacency for every prefix and evaluate
``f`` through ``IncrementalStats``.  On random graphs and random orders —
weight ties, disconnected prefixes and vertices below k included — both
must offer the same candidates with bit-identical values, and whole
local-search runs must return identical result sets.  The per-query
precomputation in :func:`local_search` — the weight-rank sort key and the
alive neighbour lists behind the BFS — is pinned to the plain forms it
replaced.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.aggregators.registry import get_aggregator
from repro.graphs.builder import graph_from_edges
from repro.graphs.csr import membership_mask
from repro.influential.community import Community
from repro.influential.local_search import (
    _bfs_order,
    _masked_neighbours,
    _weight_ranks,
    local_search,
)
from repro.influential.strategies import PrefixSweep, strategy_for
from repro.utils.topr import TopR

#: Every strategy family: size-proportional (SumStrategy) and the
#: grow-and-test fallback (AvgStrategy), including the graph-total one.
AGGREGATORS = (
    "sum",
    "sum-surplus(1)",
    "avg",
    "weight-density(1)",
    "balanced-density",
)


@st.composite
def weighted_graphs(draw, min_n=2, max_n=14, max_edges=50):
    """Random graphs whose weights often tie (drawn from a short menu)."""
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=max_edges)
    )
    weight = st.one_of(
        st.sampled_from([1.0, 2.5, 4.0]), st.floats(0.1, 50.0)
    )
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return graph_from_edges(edges, weights=weights, n=n)


def _order(graph, data):
    """A random ordering of a random vertex subset (often disconnected)."""
    return data.draw(
        st.lists(st.integers(0, graph.n - 1), unique=True, min_size=1)
    )


def _preloaded(graph, data, aggregator, k, r):
    """Random communities to fill a top-r first, so thresholds vary."""
    preload = []
    for __ in range(data.draw(st.integers(0, r + 1))):
        members = data.draw(
            st.frozensets(st.integers(0, graph.n - 1), min_size=1)
        )
        value = aggregator.value(graph, members)
        preload.append(Community(members, value, aggregator.name, k))
    return preload


@given(weighted_graphs(), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_sweep_verdicts_match_is_candidate(graph, k, data):
    """Any sequence of prefix lengths — growing, shrinking or mixed —
    gets the reference's connected-k-core verdict for each."""
    order = _order(graph, data)
    sweep = PrefixSweep(graph.adjacency, order, k)
    lengths = data.draw(
        st.lists(st.integers(1, len(order)), min_size=1, max_size=12)
    )
    for length in lengths:
        expected = reference._is_candidate(graph, order[:length], k)
        assert sweep.is_candidate(length) == expected, (order, length)


@given(
    weighted_graphs(),
    st.integers(1, 4),
    st.sampled_from(AGGREGATORS),
    st.booleans(),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_strategies_offer_what_the_reference_offers(graph, k, f, greedy, r, data):
    """Same order, same starting top-r: the same offers, bit for bit."""
    aggregator = get_aggregator(f)
    order = _order(graph, data)
    s = data.draw(st.integers(k + 1, max(k + 1, graph.n)))
    preload = _preloaded(graph, data, aggregator, k, r)
    offered = {}
    for name, make in (("fast", strategy_for), ("reference", reference.strategy_for)):
        top = TopR(r, key=lambda c: c.value)
        for community in preload:
            top.offer(community)
        make(graph, k, s, aggregator, greedy).offer_candidates(order, top)
        offered[name] = [(c.vertices, c.value.hex()) for c in top.ranked()]
    assert offered["fast"] == offered["reference"]


@given(
    weighted_graphs(min_n=3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(AGGREGATORS),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["id", "weight", "shuffled"]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_local_search_matches_reference(
    graph, k, r, f, greedy, non_overlapping, seed_order, data
):
    """Whole Algorithm 4 runs, TIC and TONIC, greedy and random, for
    every size bound s from k + 1 to |V|."""
    s = data.draw(st.integers(k + 1, max(k + 1, graph.n)))
    kwargs = dict(
        k=k, r=r, s=s, f=f, greedy=greedy, non_overlapping=non_overlapping,
        seed_order=seed_order, rng_seed=5,
    )
    produced = local_search(graph, **kwargs)
    with reference.set_engine():
        expected = local_search(graph, **kwargs)
    assert list(produced) == list(expected)
    assert [c.value.hex() for c in produced] == [c.value.hex() for c in expected]


def _plain_bfs(graph, seed, s, alive):
    """The first s vertices in BFS order over sorted set adjacency."""
    order, seen, queue = [seed], {seed}, [seed]
    while queue and len(order) < s:
        for v in sorted(graph.adjacency[queue.pop(0)] & alive):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
                if len(order) >= s:
                    break
    return order


@given(weighted_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_per_query_precomputation_matches_plain_forms(graph, data):
    alive = set(data.draw(st.lists(st.integers(0, graph.n - 1), min_size=1)))
    ranks = _weight_ranks(graph)
    weights = graph.weights
    assert sorted(range(graph.n), key=ranks.__getitem__) == sorted(
        range(graph.n), key=lambda v: (-weights[v], v)
    )
    neighbours = _masked_neighbours(graph, membership_mask(graph.n, alive))
    seed = data.draw(st.sampled_from(sorted(alive)))
    s = data.draw(st.integers(1, graph.n))
    assert _bfs_order(seed, s, neighbours) == _plain_bfs(graph, seed, s, alive)
