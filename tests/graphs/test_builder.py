"""Unit tests for GraphBuilder and graph_from_edges."""

import pytest

from repro.errors import GraphError, VertexError
from repro.graphs.builder import GraphBuilder, graph_from_edges


def test_incremental_build():
    builder = GraphBuilder(2)
    builder.add_edge(0, 1)
    v = builder.add_vertex(weight=3.0, label="carol")
    builder.add_edge(v, 0)
    graph = builder.build()
    assert graph.n == 3
    assert graph.m == 2
    assert graph.weight(2) == 3.0
    assert graph.label_of(2) == "carol"


def test_duplicate_and_mirrored_edges_collapse():
    builder = GraphBuilder(2)
    builder.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1)
    assert builder.build().m == 1


def test_self_loop_rejected():
    builder = GraphBuilder(2)
    with pytest.raises(GraphError):
        builder.add_edge(1, 1)


def test_vertex_range_checked():
    builder = GraphBuilder(2)
    with pytest.raises(VertexError):
        builder.add_edge(0, 5)
    with pytest.raises(VertexError):
        builder.set_weight(-1, 2.0)


def test_ensure_vertex_grows():
    builder = GraphBuilder(0)
    builder.ensure_vertex(4)
    assert builder.n == 5


def test_set_weights_bulk():
    builder = GraphBuilder(3)
    builder.set_weights([1.0, 2.0, 3.0])
    assert builder.build().total_weight == 6.0


def test_set_weights_arity_checked():
    builder = GraphBuilder(3)
    with pytest.raises(GraphError):
        builder.set_weights([1.0])


def test_builder_single_use():
    builder = GraphBuilder(1)
    builder.build()
    with pytest.raises(GraphError):
        builder.build()


def test_has_edge():
    builder = GraphBuilder(3)
    builder.add_edge(0, 1)
    assert builder.has_edge(1, 0)
    assert not builder.has_edge(0, 2)


def test_labels_backfilled():
    builder = GraphBuilder(2)
    builder.add_vertex(label="named")
    graph = builder.build()
    assert graph.label_of(0) == "v0"
    assert graph.label_of(2) == "named"


def test_graph_from_edges_infers_size():
    graph = graph_from_edges([(0, 3), (3, 1)])
    assert graph.n == 4
    assert graph.m == 2


def test_graph_from_edges_explicit_size_and_weights():
    graph = graph_from_edges([(0, 1)], weights=[1.0, 2.0, 3.0])
    assert graph.n == 3
    assert graph.weight(2) == 3.0


def test_graph_from_edges_insufficient_weights():
    with pytest.raises(GraphError):
        graph_from_edges([(0, 5)], weights=[1.0, 2.0])


def test_negative_builder_size_rejected():
    with pytest.raises(GraphError):
        GraphBuilder(-2)


# ----------------------------------------------------------------------
# graph_from_csr_arrays (the serving workers' reconstruction path)
# ----------------------------------------------------------------------
def test_graph_from_csr_arrays_round_trip():
    import numpy as np

    from repro.graphs.builder import graph_from_csr_arrays

    original = graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3)], weights=[1.0, 2.0, 3.0, 4.0]
    )
    csr = original.csr
    rebuilt = graph_from_csr_arrays(
        csr.indptr, csr.indices, original.weights, labels=["a", "b", "c", "d"]
    )
    assert rebuilt.n == original.n and rebuilt.m == original.m
    assert list(rebuilt.edges()) == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert [rebuilt.neighbors(v) for v in range(4)] == [
        {1, 2}, {0, 2}, {0, 1, 3}, {2},
    ]
    assert rebuilt.weights.tolist() == original.weights.tolist()
    assert rebuilt.label_of(3) == "d"
    # The arrays become the graph's topology as they are: no copy.
    assert np.shares_memory(rebuilt.csr.indptr, csr.indptr)
    assert np.shares_memory(rebuilt.csr.indices, csr.indices)


def test_graph_from_csr_arrays_empty_graph():
    import numpy as np

    from repro.graphs.builder import graph_from_csr_arrays

    graph = graph_from_csr_arrays(np.zeros(1, dtype=np.int64), np.empty(0))
    assert graph.n == 0 and graph.m == 0


def test_graph_from_csr_arrays_rejects_malformed_payloads():
    import numpy as np

    from repro.graphs.builder import graph_from_csr_arrays

    with pytest.raises(GraphError):  # indptr/indices length mismatch
        graph_from_csr_arrays(np.array([0, 2]), np.array([1]))
    with pytest.raises(GraphError):  # duplicate neighbour in a run
        graph_from_csr_arrays(np.array([0, 2, 4]), np.array([1, 1, 0, 0]))
    with pytest.raises(GraphError):  # unsorted neighbour run
        graph_from_csr_arrays(
            np.array([0, 2, 3, 5]), np.array([2, 1, 2, 0, 1])
        )
    with pytest.raises(GraphError):  # asymmetric adjacency
        graph_from_csr_arrays(np.array([0, 1, 1]), np.array([1]))
    with pytest.raises(GraphError):  # self-loop
        graph_from_csr_arrays(np.array([0, 1]), np.array([0]))
    with pytest.raises(VertexError):  # neighbour id past n
        graph_from_csr_arrays(np.array([0, 1, 2]), np.array([2, 0]))
    with pytest.raises(VertexError):  # an id that would wrap into int32
        graph_from_csr_arrays(
            np.array([0, 1, 2]), np.array([2**32 + 1, 0], dtype=np.int64)
        )
    with pytest.raises(VertexError):  # negative neighbour id
        graph_from_csr_arrays(np.array([0, 1, 2]), np.array([-1, 0]))
    with pytest.raises(GraphError):  # indptr does not start at 0
        graph_from_csr_arrays(np.array([1, 1, 2]), np.array([1, 0]))
    with pytest.raises(GraphError):  # trusted arrays still need sorted runs
        graph_from_csr_arrays(
            np.array([0, 2, 3, 5]), np.array([2, 1, 2, 0, 1]), trusted=True
        )
