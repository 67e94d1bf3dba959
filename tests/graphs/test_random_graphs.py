"""Unit tests for the random graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.generators.random_graphs import (
    barabasi_albert,
    chung_lu,
    gnm_random_graph,
    gnp_random_graph,
    powerlaw_configuration_model,
    powerlaw_degree_sequence,
)
from repro.reference import validate_graph


def test_gnp_determinism_and_validity():
    a = gnp_random_graph(50, 0.1, seed=1)
    b = gnp_random_graph(50, 0.1, seed=1)
    assert sorted(a.edges()) == sorted(b.edges())
    validate_graph(a)


def test_gnp_extremes():
    assert gnp_random_graph(10, 0.0, seed=1).m == 0
    assert gnp_random_graph(6, 1.0, seed=1).m == 15  # complete graph


def test_gnp_probability_validated():
    with pytest.raises(GraphError):
        gnp_random_graph(5, 1.5, seed=1)


def test_gnm_exact_edge_count():
    graph = gnm_random_graph(20, 37, seed=2)
    assert graph.m == 37
    validate_graph(graph)


def test_gnm_too_many_edges_rejected():
    with pytest.raises(GraphError):
        gnm_random_graph(4, 7, seed=1)


def test_barabasi_albert_edge_budget():
    graph = barabasi_albert(100, 3, seed=3)
    # star on m+1 vertices (m edges) + m edges per arrival
    assert graph.m <= 3 + 97 * 3
    assert graph.m >= 90 * 3
    validate_graph(graph)
    # Preferential attachment should concentrate degree.
    assert graph.max_degree >= 10


def test_barabasi_albert_parameter_validation():
    with pytest.raises(GraphError):
        barabasi_albert(3, 3, seed=1)
    with pytest.raises(GraphError):
        barabasi_albert(10, 0, seed=1)


def test_powerlaw_degree_sequence_properties():
    degrees = powerlaw_degree_sequence(2000, gamma=2.5, d_min=2, seed=4)
    assert degrees.sum() % 2 == 0
    assert degrees.min() >= 2
    assert degrees.max() <= max(2, int(round(np.sqrt(2000)))) + 1
    # Heavier tail than uniform: the mean should be well below the max.
    assert degrees.mean() < degrees.max() / 2


def test_powerlaw_degree_sequence_validation():
    with pytest.raises(GraphError):
        powerlaw_degree_sequence(10, gamma=0.5)
    with pytest.raises(GraphError):
        powerlaw_degree_sequence(10, gamma=2.5, d_min=0)
    with pytest.raises(GraphError):
        powerlaw_degree_sequence(10, gamma=2.5, d_min=5, d_max=3)


def test_configuration_model_respects_sequence_loosely():
    graph = powerlaw_configuration_model(500, gamma=2.3, d_min=2, seed=5)
    validate_graph(graph)
    # Erasure loses a few edges but the bulk survives.
    drawn = powerlaw_degree_sequence(500, gamma=2.3, d_min=2, seed=5)
    assert graph.m >= 0.8 * (drawn.sum() / 2)


def test_chung_lu_expected_degrees():
    n = 400
    expected = np.full(n, 6.0)
    graph = chung_lu(n, expected, seed=6)
    validate_graph(graph)
    assert abs(graph.avg_degree - 6.0) < 1.5


def test_chung_lu_validation():
    with pytest.raises(GraphError):
        chung_lu(3, np.array([1.0, 2.0]), seed=1)
    with pytest.raises(GraphError):
        chung_lu(2, np.array([-1.0, 2.0]), seed=1)


def test_chung_lu_zero_weights_empty():
    graph = chung_lu(5, np.zeros(5), seed=1)
    assert graph.m == 0
