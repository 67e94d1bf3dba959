"""Unit tests for the hand-built example graphs."""

from repro.graphs.generators.examples import (
    FIGURE1_WEIGHTS,
    paper_vertex_set,
    tiny_kcore_graph,
)
from repro.reference import validate_graph


def test_figure1_shape(figure1):
    validate_graph(figure1)
    assert figure1.n == 11
    assert figure1.total_weight == 203.0  # as stated in Example 1
    assert figure1.label_of(0) == "v1"
    assert figure1.label_of(10) == "v11"


def test_figure1_weight_multiset(figure1):
    # The paper's printed weight values, one per vertex.
    assert sorted(figure1.weights.tolist()) == sorted(FIGURE1_WEIGHTS.values())


def test_figure1_is_2core(figure1):
    # The full graph is a connected 2-core (needed for Example 1's top-1).
    assert all(figure1.degree(v) >= 2 for v in figure1.vertices())


def test_paper_vertex_set_parsing():
    assert paper_vertex_set(["v1", "v11"]) == frozenset({0, 10})
    assert paper_vertex_set("v3 v9 v10") == frozenset({2, 8, 9})


def test_tiny_kcore_structure():
    graph = tiny_kcore_graph()
    validate_graph(graph)
    assert graph.n == 7
    assert graph.weight(6) == 7.0
    # K4 on 0..3, pendant 4, disconnected edge 5-6.
    assert graph.degree(4) == 2
    assert graph.degree(5) == 1
