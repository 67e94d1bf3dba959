"""Unit tests for maximal k-core / subset k-core operations."""

import networkx as nx
import numpy as np
import pytest

from repro import reference
from repro.core.decomposition import core_decomposition
from repro.core.kcore import (
    connected_kcore_components,
    kcore_of_subset,
    maximal_kcore,
)
from repro.errors import SpecError
from repro.reference import is_kcore_subset
from repro.graphs.generators.examples import tiny_kcore_graph
from repro.serving.oracle import small_oracle_graphs
from tests.conftest import random_weighted_graph

GOLDEN = dict(
    small_oracle_graphs(),
    tiny=tiny_kcore_graph(),
    random=random_weighted_graph(60, 0.15, seed=3),
)


def test_maximal_kcore_tiny(tiny):
    assert maximal_kcore(tiny, 3) == {0, 1, 2, 3}
    assert maximal_kcore(tiny, 2) == {0, 1, 2, 3, 4}
    assert maximal_kcore(tiny, 1) == set(range(7))
    assert maximal_kcore(tiny, 4) == set()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_single_k_peel_matches_decomposition_threshold(name):
    """The one-k peel equals thresholding the full core decomposition —
    production's and the reference's — at every k up to kmax + 1."""
    graph = GOLDEN[name]
    cores = core_decomposition(graph)
    assert np.array_equal(cores, reference.core_decomposition(graph))
    for k in range(int(cores.max()) + 2):
        assert maximal_kcore(graph, k) == set(np.flatnonzero(cores >= k).tolist())


def test_matches_networkx_k_core():
    for seed in range(4):
        graph = random_weighted_graph(50, 0.1, seed=seed)
        g = nx.Graph()
        g.add_nodes_from(range(graph.n))
        g.add_edges_from(graph.edges())
        for k in (1, 2, 3, 4):
            assert maximal_kcore(graph, k) == set(nx.k_core(g, k).nodes)


def test_kcore_of_subset_restricts(tiny):
    # Within {0,1,2,4}: degrees 0:3, 1:3, 2:2, 4:2 -> 2-core is all of them.
    assert kcore_of_subset(tiny, {0, 1, 2, 4}, 2) == {0, 1, 2, 4}
    # 3-core of that subset collapses entirely (2 and 4 drop, cascade).
    assert kcore_of_subset(tiny, {0, 1, 2, 4}, 3) == set()


def test_kcore_of_subset_cascade(path_graph):
    assert kcore_of_subset(path_graph, {0, 1, 2, 3, 4}, 2) == set()
    assert kcore_of_subset(path_graph, {0, 1, 2}, 1) == {0, 1, 2}


def test_connected_components_of_kcore(two_triangles):
    comps = connected_kcore_components(two_triangles, range(6), 2)
    assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4, 5]]
    assert connected_kcore_components(two_triangles, range(6), 3) == []


def test_components_ordered_by_smallest_member(two_triangles):
    comps = connected_kcore_components(two_triangles, range(6), 2)
    assert min(comps[0]) < min(comps[1])


def test_is_kcore_subset(tiny):
    assert is_kcore_subset(tiny, {0, 1, 2, 3}, 3)
    assert not is_kcore_subset(tiny, {0, 1, 2, 3, 4}, 3)
    assert is_kcore_subset(tiny, {0, 1, 2, 3, 4}, 2)
    assert not is_kcore_subset(tiny, set(), 1)


def test_is_kcore_does_not_require_connectivity(two_triangles):
    # Both triangles together: min degree 2 but disconnected — still "k-core"
    # by the cohesiveness-only test the strategies use.
    assert is_kcore_subset(two_triangles, {0, 1, 2, 3, 4, 5}, 2)


def test_negative_k_rejected(tiny):
    with pytest.raises(SpecError):
        maximal_kcore(tiny, -1)
    with pytest.raises(SpecError):
        kcore_of_subset(tiny, {0}, -1)
    with pytest.raises(SpecError):
        is_kcore_subset(tiny, {0}, -2)


def test_k_zero_keeps_everything(tiny):
    assert kcore_of_subset(tiny, {0, 5}, 0) == {0, 5}
