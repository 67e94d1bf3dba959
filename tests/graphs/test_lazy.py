"""LazyAdjacency: the per-vertex-on-demand neighbour-set view of a graph.

Every graph stores its topology only as CSR arrays; ``graph.adjacency``
is this view over them.  These tests pin down that the view is
observationally a list of sets — same neighbourhoods as the edge list the
graph was built from, same counts, same solver answers — while only
materialising the vertices actually touched, and that the CSR kernels
touch none.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.builder import graph_from_csr_arrays
from repro.graphs.generators.examples import FIGURE1_EDGES, figure1_graph
from repro.graphs.lazy import LazyAdjacency


def _figure1_sets():
    """Figure 1's neighbour sets straight from its edge list."""
    sets = [set() for __ in range(11)]
    for u, v in FIGURE1_EDGES:
        sets[u - 1].add(v - 1)
        sets[v - 1].add(u - 1)
    return sets


@pytest.fixture
def lazy_graph():
    graph = figure1_graph()
    csr = graph.csr
    return graph_from_csr_arrays(
        csr.indptr, csr.indices, graph.weights, labels=graph.labels,
        trusted=True,
    )


def test_neighbourhoods_match_eager(lazy_graph):
    eager = _figure1_sets()
    assert len(lazy_graph.adjacency) == len(eager)
    for v, neighbours in enumerate(eager):
        assert lazy_graph.adjacency[v] == neighbours


def test_counts_and_degrees(lazy_graph):
    eager = _figure1_sets()
    assert lazy_graph.n == len(eager)
    assert lazy_graph.m == len(FIGURE1_EDGES)
    assert lazy_graph.max_degree == max(len(s) for s in eager)
    assert lazy_graph.adjacency.materialized == 0


def test_materialisation_is_per_vertex(lazy_graph):
    adjacency = lazy_graph.adjacency
    assert isinstance(adjacency, LazyAdjacency)
    assert adjacency.materialized == 0
    first = adjacency[3]
    assert adjacency.materialized == 1
    assert adjacency[np.int64(3)] is first  # cached — still just the one
    assert adjacency.materialized == 1


def test_slice_and_negative_index(lazy_graph):
    eager = _figure1_sets()
    assert lazy_graph.adjacency[-1] == eager[-1]
    assert lazy_graph.adjacency[2:5] == eager[2:5]
    with pytest.raises(IndexError):
        lazy_graph.adjacency[len(eager)]


def test_iter_matches_eager(lazy_graph):
    assert list(lazy_graph.adjacency) == _figure1_sets()


def test_empty_vertex():
    indptr = np.array([0, 0, 1, 2], dtype=np.int64)
    indices = np.array([2, 1], dtype=np.int64)
    adjacency = LazyAdjacency(indptr, indices)
    assert len(adjacency) == 3
    assert adjacency[0] == set()
    assert adjacency[1] == {2}
    assert adjacency.materialized == 2


def test_solver_answers_match_eager(lazy_graph, figure1):
    from repro.influential.api import top_r_communities

    lazy_answer = top_r_communities(lazy_graph, k=2, r=2, f="sum")
    eager_answer = top_r_communities(figure1, k=2, r=2, f="sum")
    assert [sorted(c.vertices) for c in lazy_answer] == [
        sorted(c.vertices) for c in eager_answer
    ]
    assert lazy_answer.values() == eager_answer.values()


def test_lazy_survives_incremental_update(lazy_graph):
    from repro.graphs.delta import GraphDelta

    report = GraphDelta(lazy_graph).apply(insert=[(0, 7)])
    assert isinstance(report.graph.adjacency, LazyAdjacency)
    assert report.graph.adjacency.materialized == 0
    assert 7 in report.graph.adjacency[0]
    assert report.graph.m == len(FIGURE1_EDGES) + 1


def test_repr_is_cheap(lazy_graph):
    text = repr(lazy_graph.adjacency)
    assert "LazyAdjacency" in text
    assert lazy_graph.adjacency.materialized == 0  # repr materialises nothing


def test_csr_solvers_build_no_neighbour_set():
    from repro.core.decomposition import core_decomposition
    from repro.graphs.generators.random_graphs import gnm_random_graph
    from repro.influential.api import top_r_communities

    graph = gnm_random_graph(2000, 16000, seed=3)
    graph = graph.with_weights(np.random.default_rng(3).uniform(0, 100, graph.n))
    core_decomposition(graph)
    assert len(top_r_communities(graph, 4, 5, "sum")) == 5
    assert graph.adjacency.materialized == 0
