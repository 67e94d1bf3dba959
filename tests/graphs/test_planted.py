"""Unit tests for the planted-community generator."""

import pytest

from repro.errors import GraphError
from repro.graphs.generators.planted import PlantedSpec, planted_communities
from repro.reference import is_kcore_subset, validate_graph


def test_blocks_are_planted_where_claimed():
    graph, planted = planted_communities(
        50,
        [PlantedSpec(size=6, weight_low=5.0, weight_high=6.0)],
        seed=1,
    )
    validate_graph(graph)
    assert len(planted) == 1
    block = planted[0]
    assert len(block) == 6
    # Full clique (intra_p=1.0): it is a 5-core internally.
    assert is_kcore_subset(graph, block, 5)
    # Planted weights fall in the configured band.
    for v in block:
        assert 5.0 <= graph.weight(v) <= 6.0


def test_background_weights_below_band():
    graph, planted = planted_communities(
        30,
        [PlantedSpec(size=5, weight_low=10.0, weight_high=11.0)],
        background_weight_high=1.0,
        seed=2,
    )
    block = planted[0]
    for v in range(graph.n):
        if v not in block:
            assert graph.weight(v) <= 1.0


def test_multiple_blocks_disjoint():
    graph, planted = planted_communities(
        40,
        [PlantedSpec(size=5), PlantedSpec(size=7), PlantedSpec(size=4, intra_p=0.9)],
        seed=3,
    )
    assert len(planted) == 3
    all_members = [v for block in planted for v in block]
    assert len(all_members) == len(set(all_members))
    assert graph.n == 40 + 5 + 7 + 4


def test_determinism():
    a = planted_communities(30, [PlantedSpec(size=5)], seed=9)
    b = planted_communities(30, [PlantedSpec(size=5)], seed=9)
    assert sorted(a[0].edges()) == sorted(b[0].edges())
    assert a[1] == b[1]


def test_spec_validation():
    with pytest.raises(GraphError):
        PlantedSpec(size=1)
    with pytest.raises(GraphError):
        PlantedSpec(size=5, intra_p=0.0)
    with pytest.raises(GraphError):
        PlantedSpec(size=5, weight_low=3.0, weight_high=1.0)
    with pytest.raises(GraphError):
        planted_communities(0, [PlantedSpec(size=5)])
    with pytest.raises(GraphError):
        planted_communities(10, [PlantedSpec(size=5)], background_p=2.0)
