"""Property-based tests for graph construction and generators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality.pagerank import pagerank
from repro.graphs.builder import graph_from_edges
from repro.graphs.generators.random_graphs import (
    gnm_random_graph,
    powerlaw_configuration_model,
)
from repro.reference import validate_graph


@st.composite
def edge_lists(draw):
    n = draw(st.integers(2, 20))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=60))
    return n, edges


@given(edge_lists())
def test_builder_output_always_validates(case):
    n, edges = case
    graph = graph_from_edges(edges, n=n)
    validate_graph(graph)
    assert graph.m == len(set(edges))
    assert int(graph.degrees().sum()) == 2 * graph.m


@given(st.integers(2, 40), st.integers(0, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_gnm_generator_properties(n, m, seed):
    m = min(m, n * (n - 1) // 2)
    graph = gnm_random_graph(n, m, seed=seed)
    validate_graph(graph)
    assert graph.m == m


@given(st.integers(10, 120), st.floats(2.1, 2.9), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_configuration_model_validates(n, gamma, seed):
    graph = powerlaw_configuration_model(n, gamma, d_min=1, seed=seed)
    validate_graph(graph)
    assert graph.n == n


@given(edge_lists())
@settings(max_examples=30, deadline=None)
def test_pagerank_is_a_distribution(case):
    n, edges = case
    graph = graph_from_edges(edges, n=n)
    ranks = pagerank(graph)
    assert ranks.sum() == np.float64(1.0) or abs(ranks.sum() - 1.0) < 1e-8
    assert np.all(ranks > 0)
