"""Unit tests for the core Graph type."""

import pytest

from repro.errors import GraphError, VertexError, WeightError
from repro.graphs.builder import graph_from_edges
from repro.graphs.csr import CSRAdjacency
from repro.graphs.graph import Graph


def csr_of(adjacency):
    """Unvalidated CSR arrays of a list-of-sets adjacency."""
    return CSRAdjacency.from_adjacency(adjacency)


def test_basic_accessors(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert len(triangle) == 3
    assert triangle.degree(0) == 2
    assert triangle.neighbors(1) == {0, 2}
    assert triangle.has_edge(0, 2)
    assert repr(triangle) == "Graph(n=3, m=3)"


def test_edges_yields_each_once(triangle):
    assert list(triangle.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_weights(triangle):
    assert triangle.weight(2) == 3.0
    assert triangle.total_weight == 6.0
    assert triangle.weight_of([0, 2]) == 4.0
    assert triangle.weights.flags.writeable is False


def test_degree_stats(tiny):
    assert tiny.max_degree == 4  # vertices 0 and 1 touch {K4} plus vertex 4
    degrees = tiny.degrees()
    assert int(degrees.sum()) == 2 * tiny.m
    assert tiny.avg_degree == pytest.approx(2 * tiny.m / tiny.n)


def test_vertex_bounds_checked(triangle):
    with pytest.raises(VertexError):
        triangle.degree(3)
    with pytest.raises(VertexError):
        triangle.neighbors(-1)
    with pytest.raises(VertexError):
        triangle.weight(99)


def test_empty_graph(empty_graph):
    assert empty_graph.n == 0
    assert empty_graph.m == 0
    assert empty_graph.max_degree == 0
    assert empty_graph.avg_degree == 0.0
    assert empty_graph.total_weight == 0.0


def test_with_weights_shares_topology(triangle):
    reweighted = triangle.with_weights([5.0, 5.0, 5.0])
    assert reweighted.total_weight == 15.0
    assert reweighted.m == triangle.m
    assert triangle.total_weight == 6.0  # original untouched


def test_labels():
    g = graph_from_edges([(0, 1)], weights=[1.0, 2.0])
    assert g.label_of(0) == "v0"
    named = g.with_labels(["alice", "bob"])
    assert named.label_of(1) == "bob"


def test_invalid_weights_rejected():
    with pytest.raises(WeightError):
        Graph(csr_of([set(), set()]), weights=[-1.0, 2.0])
    with pytest.raises(WeightError):
        Graph(csr_of([set(), set()]), weights=[float("nan"), 2.0])
    with pytest.raises(WeightError):
        Graph(csr_of([set()]), weights=[1.0, 2.0])


def test_asymmetric_adjacency_rejected():
    with pytest.raises(GraphError):
        Graph(csr_of([{1}, set()]))


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        Graph(csr_of([{0}]))


def test_out_of_range_neighbor_rejected():
    with pytest.raises(VertexError):
        Graph(csr_of([{5}]))


def test_label_arity_checked():
    with pytest.raises(GraphError):
        Graph(csr_of([set(), set()]), labels=["only-one"])


def test_graph_takes_only_csr():
    # The CSR arrays are the one topology store; a list of sets is not
    # accepted (builders flatten theirs first).
    with pytest.raises(TypeError):
        Graph([{1}, {0}])
