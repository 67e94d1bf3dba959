"""Unit tests for graph validation."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.builder import graph_from_edges
from repro.graphs.csr import CSRAdjacency
from repro.graphs.graph import Graph
from repro.graphs.validation import assert_same_topology, validate_graph


def test_valid_graph_passes(figure1):
    validate_graph(figure1)  # no raise


def test_asymmetry_detected():
    graph = Graph(CSRAdjacency.from_adjacency([{1}, set()]), _trusted=True)
    with pytest.raises(GraphError):
        validate_graph(graph)


def test_self_loop_detected():
    graph = Graph(CSRAdjacency.from_adjacency([{0}]), _trusted=True)
    with pytest.raises(GraphError):
        validate_graph(graph)


def test_edge_count_mismatch_detected():
    # indptr promises two half-edges, indices holds three.
    csr = CSRAdjacency(np.array([0, 1, 2, 2]), np.array([1, 0, 0]))
    graph = Graph(csr, _trusted=True)
    with pytest.raises(GraphError):
        validate_graph(graph)


def test_same_topology():
    a = graph_from_edges([(0, 1), (1, 2)])
    b = graph_from_edges([(0, 1), (1, 2)])
    assert_same_topology(a, b)
    c = graph_from_edges([(0, 1), (0, 2)])
    with pytest.raises(GraphError):
        assert_same_topology(a, c)
    d = graph_from_edges([(0, 1)], n=2)
    with pytest.raises(GraphError):
        assert_same_topology(a, d)
