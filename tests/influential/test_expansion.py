"""The fast expansion path against the straightforward re-core reference."""

import networkx as nx
import pytest

from repro.aggregators.summation import Sum
from repro.core.kcore import connected_kcore_components, kcore_of_subset
from repro.reference import ExpansionContext, _articulation_vertices
from repro.utils.zobrist import ZobristHasher
from tests.conftest import random_weighted_graph


def _reference_children(graph, component, k, vertex):
    remainder = set(component)
    remainder.discard(vertex)
    return {
        frozenset(c) for c in connected_kcore_components(graph, remainder, k)
    }


def _check_component(graph, component, k):
    aggregator = Sum()
    hasher = ZobristHasher(graph.n)
    parent_value = aggregator.value(graph, component)
    ctx = ExpansionContext(graph, component, k, aggregator, parent_value, hasher)
    for vertex in sorted(component):
        children = ctx.children_after_removal(vertex)
        expected = _reference_children(graph, component, k, vertex)
        assert {c.vertices for c in children} == expected, (vertex, k)
        for child in children:
            assert child.value == pytest.approx(
                aggregator.value(graph, child.vertices)
            )
            assert child.key == hasher.hash_set(child.vertices)


def test_matches_reference_on_random_graphs():
    for seed in range(6):
        graph = random_weighted_graph(25, 0.2, seed=seed)
        for k in (1, 2, 3):
            for component in connected_kcore_components(graph, range(graph.n), k):
                _check_component(graph, frozenset(component), k)


def test_matches_reference_on_figure1(figure1):
    component = frozenset(kcore_of_subset(figure1, range(11), 2))
    _check_component(figure1, component, 2)


def test_articulation_vertices_match_networkx():
    for seed in range(8):
        graph = random_weighted_graph(30, 0.1, seed=seed)
        local_adj = {v: set(graph.adjacency[v]) for v in range(graph.n)}
        ours = _articulation_vertices(local_adj)
        g = nx.Graph()
        g.add_nodes_from(range(graph.n))
        g.add_edges_from(graph.edges())
        theirs = set(nx.articulation_points(g))
        assert ours == theirs, seed


def test_min_removal_loss_sum(figure1):
    component = frozenset(range(11))
    ctx = ExpansionContext(
        figure1, component, 2, Sum(), 203.0, ZobristHasher(11)
    )
    # Loss of removing v1 (id 0, weight 62) is at least 62.
    assert ctx.min_removal_loss(0) == 62.0
    # Every actual child's value confirms the bound.
    for child in ctx.children_after_removal(0):
        assert child.value <= 203.0 - 62.0


def test_min_removal_loss_nonsum_is_zero(figure1):
    from repro.aggregators.average import Average

    ctx = ExpansionContext(
        figure1, frozenset(range(11)), 2, Average(), 203.0 / 11, ZobristHasher(11)
    )
    assert ctx.min_removal_loss(0) == 0.0
