"""Maximal k-truss / components, cross-validated against networkx."""

import networkx as nx
import pytest

from repro.errors import SpecError
from repro.graphs.builder import graph_from_edges
from repro.truss.ktruss import (
    connected_ktruss_components,
    ktruss_of_subset,
    maximal_ktruss,
)
from tests.conftest import random_weighted_graph


def test_matches_networkx():
    for seed in range(5):
        graph = random_weighted_graph(30, 0.25, seed=seed)
        g = nx.Graph()
        g.add_nodes_from(range(graph.n))
        g.add_edges_from(graph.edges())
        for k in (3, 4, 5):
            theirs_graph = nx.k_truss(g, k)
            theirs = {v for v in theirs_graph.nodes if theirs_graph.degree(v) > 0}
            assert maximal_ktruss(graph, k) == theirs


def test_ktruss_of_subset_restricts(tiny):
    vertices, edges = ktruss_of_subset(tiny, {0, 1, 2, 3}, 4)
    assert vertices == {0, 1, 2, 3}
    assert len(edges) == 6
    vertices, edges = ktruss_of_subset(tiny, {0, 1, 2}, 4)
    # A triangle is a 3-truss, not a 4-truss.
    assert vertices == set()


def test_truss_is_subset_of_core(figure1, email):
    """A k-truss is always inside the (k-1)-core."""
    from repro.core.kcore import maximal_kcore

    for k in (3, 4):
        assert maximal_ktruss(figure1, k) <= maximal_kcore(figure1, k - 1)
    for k in (3, 4, 5):
        truss = maximal_ktruss(email, k)
        assert truss and truss <= maximal_kcore(email, k - 1)


def test_components_split_on_truss_edges(two_triangles):
    comps = connected_ktruss_components(two_triangles, range(6), 3)
    assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4, 5]]
    assert connected_ktruss_components(two_triangles, range(6), 4) == []


def test_figure1_truss_components(figure1):
    comps = connected_ktruss_components(figure1, range(11), 3)
    # Triangles {v1,v2,v4} and the triangle-connected cluster around v5-v11.
    as_paper = sorted(sorted(v + 1 for v in c) for c in comps)
    assert [1, 2, 4] in as_paper
    assert [3, 5, 6, 7, 8, 9, 10, 11] in as_paper


def test_k2_truss_is_whole_edge_set(figure1):
    vertices, edges = ktruss_of_subset(figure1, range(11), 2)
    assert vertices == set(range(11))
    assert len(edges) == figure1.m


def test_invalid_k_rejected(figure1):
    with pytest.raises(SpecError):
        maximal_ktruss(figure1, 1)


def test_bridge_not_truss_connected():
    # Two triangles joined by a single bridge edge: the bridge has support
    # 0 so the 3-truss splits into the two triangles.
    graph = graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    )
    comps = connected_ktruss_components(graph, range(6), 3)
    assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4, 5]]
