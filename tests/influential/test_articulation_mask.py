"""The articulation mask of a ComponentStructure is exact.

A wrong mask never changes a solver's answers — a falsely flagged vertex
just takes the exact cascade path, and a missed one is caught by nothing
but these tests — so the mask is pinned vertex for vertex to two
independent oracles: ``networkx.articulation_points`` and the reference
engine's Tarjan walk.  The shapes cover each branch of the spanning-tree
test: trees (every internal vertex cuts), paths, cycles (nothing cuts,
but every tree edge must be joined to its neighbours), barbells, two
random graphs bridged by one edge, and the 2–3 vertex corner cases.
Every graph is relabelled by a random permutation, so the tree's root
(the max-degree vertex, lowest id on ties) lands anywhere.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builder import graph_from_edges
from repro.graphs.csr import CSRAdjacency
from repro.influential import expansion_csr
from repro.influential.expansion_csr import ComponentStructure, MemberArray
from repro.reference import _articulation_vertices
from repro.utils.zobrist import ZobristHasher


def _mask_of(n, edges):
    graph = graph_from_edges(edges, n=n)
    hasher = ZobristHasher(n)
    members = MemberArray.from_iterable(range(n), hasher)
    structure = ComponentStructure.build(graph, members, 1, hasher)
    return set(np.flatnonzero(structure.articulation).tolist())


def _assert_exact(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    assert nx.is_connected(g), "fixture must be connected"
    expected = set(nx.articulation_points(g))
    adjacency = {v: set(g[v]) for v in g}
    assert _articulation_vertices(adjacency) == expected
    assert _mask_of(n, edges) == expected, sorted(expected)


def _relabel(n, edges, order):
    return [(order[u], order[v]) for u, v in edges]


@st.composite
def random_trees(draw, min_n=2, max_n=24):
    """A random labelled tree: vertex i hangs off some earlier vertex."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    return n, edges


@st.composite
def connected_graphs(draw, min_n=2, max_n=24):
    """A random tree plus random extra edges, randomly relabelled."""
    n, edges = draw(random_trees(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=2 * n))
    edges = sorted({tuple(sorted(e)) for e in edges + extra})
    order = draw(st.permutations(range(n)))
    return n, _relabel(n, edges, order)


@st.composite
def bridged_graphs(draw):
    """Two random connected graphs joined by a single edge."""
    n1, left = draw(connected_graphs(max_n=14))
    n2, right = draw(connected_graphs(max_n=14))
    bridge = (draw(st.integers(0, n1 - 1)), n1 + draw(st.integers(0, n2 - 1)))
    edges = left + [(n1 + u, n1 + v) for u, v in right] + [bridge]
    n = n1 + n2
    order = draw(st.permutations(range(n)))
    return n, _relabel(n, edges, order)


@given(connected_graphs())
@settings(max_examples=300, deadline=None)
def test_mask_exact_on_random_connected_graphs(case):
    _assert_exact(*case)


@given(random_trees())
@settings(max_examples=100, deadline=None)
def test_mask_exact_on_trees(case):
    _assert_exact(*case)


@given(bridged_graphs())
@settings(max_examples=150, deadline=None)
def test_mask_exact_on_bridged_graphs(case):
    _assert_exact(*case)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
def test_mask_exact_on_paths_and_cycles(n):
    path = [(i, i + 1) for i in range(n - 1)]
    _assert_exact(n, path)
    if n >= 3:
        _assert_exact(n, path + [(n - 1, 0)])


@pytest.mark.parametrize("clique,path", [(3, 0), (3, 2), (5, 1), (4, 4)])
def test_mask_exact_on_barbells(clique, path):
    g = nx.barbell_graph(clique, path)
    _assert_exact(g.number_of_nodes(), list(g.edges()))


@pytest.mark.parametrize(
    "n,edges",
    [
        (1, []),
        (2, [(0, 1)]),
        (3, [(0, 1), (1, 2)]),
        (3, [(0, 1), (1, 2), (0, 2)]),
    ],
)
def test_mask_exact_on_tiny_graphs(n, edges):
    if n == 1:
        assert _mask_of(n, edges) == set()
    else:
        _assert_exact(n, edges)


def test_spanning_tree_rejects_a_disconnected_graph():
    """The mask reads the tree, so a forest is refused outright — with a
    ValueError, which survives ``python -O`` unlike an assert."""
    indptr = np.array([0, 1, 2, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 3, 2], dtype=np.int32)
    local = CSRAdjacency(indptr, indices)
    with pytest.raises(ValueError, match="connected"):
        expansion_csr._spanning_tree(local)


def test_structure_of_a_disconnected_set_refuses_a_mask():
    graph = graph_from_edges([(0, 1), (2, 3)], n=4)
    hasher = ZobristHasher(4)
    members = MemberArray.from_iterable(range(4), hasher)
    structure = ComponentStructure.build(graph, members, 1, hasher)
    with pytest.raises(ValueError, match="connected"):
        structure.articulation
