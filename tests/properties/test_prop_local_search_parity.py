"""Property-based parity between Algorithm 4's prefix sweep and its oracle.

The production strategies test prefixes with one lazy
:class:`~repro.influential.strategies.PrefixSweep` per seed and scalar
running statistics; :mod:`repro.reference` keeps the original strategies,
which rebuild a set and rescan adjacency for every prefix and evaluate
``f`` through ``IncrementalStats``.  On random graphs and random orders —
weight ties, disconnected prefixes and vertices below k included — both
must offer the same candidates with bit-identical values, count the
same ``prefixes_tested``, and whole local-search runs must return
identical result sets.  Graphs of planted cliques with low-degree
vertices interleaved in the order make one failed verdict decide long
runs of lengths, which the shrinking SumStrategy skips.  The per-query
precomputation in :func:`local_search` — the weight-rank sort key and the
alive neighbour lists behind the BFS — is pinned to the plain forms it
replaced.
"""

import itertools
import math
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.aggregators.registry import get_aggregator
from repro.graphs.builder import graph_from_edges
from repro.graphs.csr import membership_mask
from repro.influential.community import Community
from repro.influential.local_search import (
    _alive_neighbours,
    _bfs_order,
    _weight_ranks,
    local_search,
)
from repro.influential.strategies import PrefixSweep, strategy_for
from repro.utils.counters import counting
from repro.utils.stats import SubsetStats
from repro.utils.topr import TopR

#: Every strategy family: size-proportional (SumStrategy, with max the
#: one that tracks prefix extremes) and the grow-and-test fallback
#: (AvgStrategy), including the graph-total one.
AGGREGATORS = (
    "sum",
    "sum-surplus(1)",
    "max",
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


@st.composite
def planted_cliques(draw, max_low=8):
    """A graph of planted 6-12-vertex cliques, a few bridges between
    them and low-degree vertices hanging off them, with an order that
    lists the cliques' members and interleaves the low-degree vertices.

    A low-degree vertex early in the order fails every prefix that holds
    it, so a shrink from the full order meets long runs of lengths that
    one witness decides.
    """
    sizes = draw(st.lists(st.integers(6, 12), min_size=1, max_size=3))
    cliques, edges, n = [], [], 0
    for size in sizes:
        members = list(range(n, n + size))
        edges += [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
        cliques.append(draw(st.permutations(members)))
        n += size
    planted = n
    for __ in range(draw(st.integers(0, 3))):  # bridges between cliques
        u, v = draw(st.integers(0, planted - 1)), draw(st.integers(0, planted - 1))
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges.append((min(u, v), max(u, v)))
    lows = list(range(planted, planted + draw(st.integers(0, max_low))))
    for low in lows:
        anchors = draw(
            st.lists(st.integers(0, planted - 1), unique=True, max_size=3)
        )
        edges += [(anchor, low) for anchor in anchors]
    n = planted + len(lows)
    weight = st.one_of(st.sampled_from([1.0, 2.5, 4.0]), st.floats(0.1, 50.0))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    order = [v for clique in cliques for v in clique]
    for low in lows:
        order.insert(draw(st.integers(0, len(order))), low)
    return graph_from_edges(edges, weights=weights, n=n), order


@st.composite
def ordered_graphs(draw):
    """A random graph with a random order, or a planted-clique one."""
    if draw(st.booleans()):
        return draw(planted_cliques())
    graph = draw(weighted_graphs())
    order = draw(st.lists(st.integers(0, graph.n - 1), unique=True, min_size=1))
    return graph, order


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


def _check_verdicts(graph, order, k, lengths):
    """Each length gets the reference's verdict, and every length a
    failed verdict claims to decide fails under the reference too."""
    sweep = PrefixSweep(graph.adjacency, order, k)
    for length in lengths:
        expected = reference._is_candidate(graph, order[:length], k)
        assert sweep.is_candidate(length) == expected, (order, length)
        if not expected:
            decided = sweep.failing_from()
            assert 1 <= decided <= length, (order, length, decided)
            for shorter in range(decided, length):
                assert not reference._is_candidate(graph, order[:shorter], k), (
                    order, length, shorter
                )


@given(weighted_graphs(), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_sweep_verdicts_match_is_candidate(graph, k, data):
    """Any sequence of prefix lengths — growing, shrinking or mixed —
    gets the reference's connected-k-core verdict for each."""
    order = _order(graph, data)
    lengths = data.draw(
        st.lists(st.integers(1, len(order)), min_size=1, max_size=12)
    )
    _check_verdicts(graph, order, k, lengths)


@given(planted_cliques(), st.integers(1, 11), st.data())
@settings(max_examples=150, deadline=None)
def test_sweep_verdicts_on_planted_cliques(planted, k, data):
    """The same on planted cliques, for a full shrink from the whole
    order, a full grow, and a mixed sequence."""
    graph, order = planted
    top = len(order)
    mixed = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=12))
    for lengths in (range(top, 0, -1), range(1, top + 1), mixed):
        _check_verdicts(graph, order, k, lengths)


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


@contextmanager
def _reference_verdicts():
    """The lengths the reference strategies pass to ``_is_candidate``."""
    lengths = []
    original = reference._is_candidate

    def counted(graph, vertices, k):
        lengths.append(len(vertices))
        return original(graph, vertices, k)

    reference._is_candidate = counted
    try:
        yield lengths
    finally:
        reference._is_candidate = original


@given(
    ordered_graphs(),
    st.integers(1, 6),
    st.sampled_from(AGGREGATORS),
    st.booleans(),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_prefixes_tested_counts_the_reference_verdicts(
    ordered, k, f, greedy, r, data
):
    """``prefixes_tested`` is the number of lengths the reference decides
    one at a time, however many of them the sweep decided in bulk — so
    the Section VI counts keep measuring the same work."""
    graph, order = ordered
    aggregator = get_aggregator(f)
    s = data.draw(st.integers(k + 1, max(k + 1, min(40, graph.n))))
    preload = _preloaded(graph, data, aggregator, k, r)
    offered, tested = {}, {}
    for name, make in (("fast", strategy_for), ("reference", reference.strategy_for)):
        top = TopR(r, key=lambda c: c.value)
        for community in preload:
            top.offer(community)
        with counting() as tally, _reference_verdicts() as verdicts:
            make(graph, k, s, aggregator, greedy).offer_candidates(order, top)
        offered[name] = [(c.vertices, c.value.hex()) for c in top.ranked()]
        tested[name] = tally["prefixes_tested"] if name == "fast" else len(verdicts)
    assert offered["fast"] == offered["reference"]
    assert tested["fast"] == tested["reference"]


@given(
    planted_cliques(),
    st.integers(1, 8),
    st.integers(1, 4),
    st.sampled_from(AGGREGATORS),
    st.booleans(),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_local_search_matches_reference_on_planted_cliques(
    planted, k, r, f, greedy, data
):
    """Whole TIC runs on planted cliques, for size bounds up to 40."""
    graph, __ = planted
    s = data.draw(st.integers(k + 1, max(k + 1, min(40, graph.n))))
    kwargs = dict(k=k, r=r, s=s, f=f, greedy=greedy)
    produced = local_search(graph, **kwargs)
    with reference.set_engine():
        expected = local_search(graph, **kwargs)
    assert list(produced) == list(expected)
    assert [c.value.hex() for c in produced] == [c.value.hex() for c in expected]


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


def test_values_keep_the_running_float_order():
    """Ten weight-0.1 vertices in a clique: their running total is
    0.9999999999999999, where ``math.fsum`` (and Python 3.12's builtin
    ``sum``) gives 1.0.  With the threshold at either form of each
    prefix's value, the strategies must test and offer exactly what the
    reference does, so a compensated shortcut for the running total
    fails here."""
    weights = [0.1] * 10
    running = [0.0]
    for weight in weights:
        running.append(running[-1] + weight)
    assert running[10] == 0.9999999999999999 and math.fsum(weights) == 1.0
    clique = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    graph = graph_from_edges(clique, weights=weights)
    order = list(range(10))
    for f in ("sum", "avg"):
        aggregator = get_aggregator(f)
        thresholds = {
            aggregator.from_stats(SubsetStats(size, total, 0.1, 0.1))
            for size in range(1, 11)
            for total in (running[size], math.fsum(weights[:size]))
        }
        for threshold, k, greedy in itertools.product(
            sorted(thresholds), (1, 4, 9), (True, False)
        ):
            seen = {}
            for name, make in (
                ("fast", strategy_for), ("reference", reference.strategy_for)
            ):
                top = TopR(1, key=lambda c: c.value)
                top.offer(Community(frozenset({0}), threshold, f, k))
                with counting() as tally, _reference_verdicts() as verdicts:
                    make(graph, k, 10, aggregator, greedy).offer_candidates(order, top)
                tested = tally["prefixes_tested"] if name == "fast" else len(verdicts)
                offered = [(c.vertices, c.value.hex()) for c in top.ranked()]
                seen[name] = (tested, offered)
            assert seen["fast"] == seen["reference"], (f, threshold.hex(), k, greedy)


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


@given(weighted_graphs(), st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_per_query_precomputation_matches_plain_forms(graph, bare, data):
    """The weight ranks, the vectorised alive neighbour lists and the
    early-stopping BFS against their plain forms.  ``bare`` arc-less
    vertices end the id range, and alive sets drawn from all ids leave
    some alive vertices with every arc leading out of the set."""
    graph = graph_from_edges(
        graph.edges(), weights=list(graph.weights) + [1.0] * bare, n=graph.n + bare
    )
    alive = set(data.draw(st.lists(st.integers(0, graph.n - 1), min_size=1)))
    ranks = _weight_ranks(graph)
    weights = graph.weights
    assert sorted(range(graph.n), key=ranks.__getitem__) == sorted(
        range(graph.n), key=lambda v: (-weights[v], v)
    )
    neighbours = _alive_neighbours(graph, membership_mask(graph.n, alive))
    assert neighbours == [
        sorted(graph.adjacency[v] & alive) if v in alive else []
        for v in range(graph.n)
    ]
    seed = data.draw(st.sampled_from(sorted(alive)))
    s = data.draw(st.integers(1, graph.n))
    assert _bfs_order(seed, s, neighbours) == _plain_bfs(graph, seed, s, alive)


def test_alive_neighbours_with_bare_and_cut_off_vertices():
    """Vertex 3's only arc leaves the alive set; 5 and 6 have no arcs and
    end the id range; 4 is not alive."""
    graph = graph_from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], n=7)
    alive = {0, 1, 2, 3, 5, 6}
    neighbours = _alive_neighbours(graph, membership_mask(graph.n, alive))
    assert neighbours == [[1, 2], [0, 2], [0, 1], [], [], [], []]
    for seed in alive:
        for s in range(1, 5):
            expected = _plain_bfs(graph, seed, s, alive)
            assert _bfs_order(seed, s, neighbours) == expected
