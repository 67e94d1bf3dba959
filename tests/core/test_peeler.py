"""Unit tests for the cascade-peeling workspace."""

import pytest

from repro.core.kcore import kcore_of_subset
from repro.core.peeler import PeelingWorkspace
from repro.errors import VertexError
from tests.conftest import random_weighted_graph


def test_initial_core_established(tiny):
    ws = PeelingWorkspace(tiny, 3)
    assert ws.alive == {0, 1, 2, 3}
    assert len(ws) == 4
    assert 0 in ws and 5 not in ws


def test_degrees_track_alive_set(tiny):
    ws = PeelingWorkspace(tiny, 2)
    assert ws.alive == {0, 1, 2, 3, 4}
    assert ws.degree(0) == 4
    assert ws.degree(4) == 2


def test_remove_cascades(tiny):
    ws = PeelingWorkspace(tiny, 2)
    removed = ws.remove(0)
    # Removing 0 drops 4 to degree 1 -> cascade; K4 remainder {1,2,3} is
    # still a 2-core (triangle).
    assert set(removed) == {0, 4}
    assert ws.alive == {1, 2, 3}


def test_remove_all(two_triangles):
    ws = PeelingWorkspace(two_triangles, 2)
    removed = ws.remove_all([0, 3])
    # Each triangle collapses entirely once one vertex goes.
    assert set(removed) == {0, 1, 2, 3, 4, 5}
    assert len(ws) == 0


def test_remove_dead_vertex_rejected(tiny):
    ws = PeelingWorkspace(tiny, 3)
    with pytest.raises(VertexError):
        ws.remove(5)
    ws.remove(0)
    with pytest.raises(VertexError):
        ws.remove(0)


def test_component_queries(two_triangles):
    ws = PeelingWorkspace(two_triangles, 2)
    assert ws.component_of(0) == {0, 1, 2}
    comps = ws.components()
    assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4, 5]]


def test_restricted_start(tiny):
    ws = PeelingWorkspace(tiny, 2, vertices={0, 1, 2, 4})
    assert ws.alive == {0, 1, 2, 4}


def test_matches_kcore_of_subset_after_deletions():
    for seed in range(4):
        graph = random_weighted_graph(30, 0.15, seed=seed)
        ws = PeelingWorkspace(graph, 3)
        reference = set(ws.alive)
        # Delete five alive vertices (if available), mirroring on the side.
        for __ in range(5):
            if not ws.alive:
                break
            victim = min(ws.alive)
            ws.remove(victim)
            reference.discard(victim)
            reference = kcore_of_subset(graph, reference, 3)
            assert ws.alive == reference


def test_alive_neighbors(tiny):
    ws = PeelingWorkspace(tiny, 2)
    assert ws.alive_neighbors(0) == {1, 2, 3, 4}
    ws.remove(4)
    assert ws.alive_neighbors(0) == {1, 2, 3}


def test_reset_reuses_workspace_across_queries():
    """One workspace, many queries: reset() must leave no stale degrees."""
    graph = random_weighted_graph(30, 0.2, seed=9)
    ws = PeelingWorkspace(graph, 2)
    pristine_alive = set(ws.alive)
    pristine_degrees = {v: ws.degree(v) for v in ws.alive}
    # First query mutates the workspace heavily.
    while len(ws.alive) > 5:
        ws.remove(min(ws.alive))
    # Reset for a second query over the full graph: identical to a fresh
    # workspace, degree by degree.
    ws.reset()
    assert ws.alive == pristine_alive
    assert {v: ws.degree(v) for v in ws.alive} == pristine_degrees


def test_reset_to_subset_recomputes_degrees():
    """Stale-degree regression: after a cascade shrank the alive set, a
    reset to an overlapping subset must recompute induced degrees from the
    graph, not inherit decremented counters."""
    graph = random_weighted_graph(24, 0.3, seed=4)
    ws = PeelingWorkspace(graph, 2)
    for __ in range(6):
        if not ws.alive:
            break
        ws.remove(min(ws.alive))
    subset = set(range(0, graph.n, 2))
    ws.reset(subset)
    fresh = PeelingWorkspace(graph, 2, vertices=subset)
    assert ws.alive == fresh.alive == kcore_of_subset(graph, subset, 2)
    for v in ws.alive:
        assert ws.degree(v) == fresh.degree(v)
        assert ws.alive_neighbors(v) == fresh.alive_neighbors(v)


def test_reset_validates_vertices(tiny):
    ws = PeelingWorkspace(tiny, 1)
    with pytest.raises(VertexError):
        ws.reset([0, 99])

