"""Min/max polynomial solvers against the brute-force Definition 3 oracle."""

import pytest

from repro.errors import SolverError
from repro.hardness.certificates import certify_result_set
from repro.influential.api import top_r_communities
from repro.influential.bruteforce import bruteforce_communities
from repro.influential.minmax_solvers import (
    community_forest,
    max_communities,
    min_communities,
    top_r_max,
    top_r_min,
    top_r_min_noncontained,
)
from repro.influential.nonoverlap import greedy_disjoint
from tests.conftest import random_weighted_graph


def test_figure1_min_top2(figure1):
    result = top_r_min(figure1, k=2, r=2)
    assert [sorted(v + 1 for v in c.vertices) for c in result] == [
        [5, 7, 8],
        [3, 9, 10],
    ]
    assert result.values() == [12.0, 8.0]


def test_min_family_matches_bruteforce(small_random_graphs):
    for graph in small_random_graphs:
        for k in (1, 2, 3):
            ours = {
                (c.vertices, c.value) for c in min_communities(graph, k)
            }
            oracle = {
                (c.vertices, c.value)
                for c in bruteforce_communities(graph, k, "min")
            }
            assert ours == oracle, (graph.n, k)


def test_max_family_matches_bruteforce(small_random_graphs):
    for graph in small_random_graphs:
        for k in (1, 2, 3):
            ours = {
                (c.vertices, c.value) for c in max_communities(graph, k)
            }
            oracle = {
                (c.vertices, c.value)
                for c in bruteforce_communities(graph, k, "max")
            }
            assert ours == oracle, (graph.n, k)


def test_min_family_is_laminar(figure1):
    family = [c.vertices for c in min_communities(figure1, 2)]
    for a in family:
        for b in family:
            assert a <= b or b <= a or not (a & b)


def test_max_values_nonincreasing(small_random_graphs):
    for graph in small_random_graphs:
        values = [c.value for c in max_communities(graph, 2)]
        assert values == sorted(values, reverse=True)


def test_top_r_limits(figure1):
    assert len(top_r_min(figure1, 2, 1)) == 1
    assert len(top_r_max(figure1, 2, 2)) == 2
    certify_result_set(figure1, top_r_min(figure1, 2, 3), k=2)
    certify_result_set(figure1, top_r_max(figure1, 2, 3), k=2)


def test_max_top1_contains_heaviest_core_vertex(figure1):
    result = top_r_max(figure1, 2, 1)
    heaviest = max(range(11), key=lambda v: figure1.weight(v))
    assert heaviest in result[0].vertices
    assert result[0].value == figure1.weight(heaviest)


def test_min_noncontained_are_leaves(figure1):
    leaves = top_r_min_noncontained(figure1, 2, 5)
    family = [c.vertices for c in min_communities(figure1, 2)]
    for leaf in leaves:
        assert not any(other < leaf.vertices for other in family)


def test_ties_handled(two_triangles):
    uniform = two_triangles.with_weights([5.0] * 6)
    mins = min_communities(uniform, 2)
    maxs = max_communities(uniform, 2)
    # Each triangle is one community under each aggregator; equal values.
    assert len(mins) == 2 and len(maxs) == 2
    assert all(c.value == 5.0 for c in mins + maxs)


def test_parameter_validation(figure1):
    with pytest.raises(SolverError):
        top_r_min(figure1, 0, 1)
    with pytest.raises(SolverError):
        top_r_max(figure1, 2, 0)
    with pytest.raises(SolverError):
        min_communities(figure1, -1)
    with pytest.raises(SolverError):
        community_forest(figure1, 2, "sum")


def test_empty_core(path_graph):
    assert min_communities(path_graph, 2) == []
    assert max_communities(path_graph, 2) == []


@pytest.fixture(scope="module")
def forest_graph():
    return random_weighted_graph(40, 0.15, seed=21)


def test_top_r_are_the_best_of_the_family(forest_graph):
    for solve, family in ((top_r_min, min_communities), (top_r_max, max_communities)):
        ranked = sorted(family(forest_graph, 2))
        for r in (1, 2, 5, 10):
            assert list(solve(forest_graph, 2, r)) == ranked[:r]


def test_noncontained_are_the_best_leaves(forest_graph):
    family = min_communities(forest_graph, 2)
    leaves = sorted(
        c for c in family if not any(o.vertices < c.vertices for o in family)
    )
    assert list(top_r_min_noncontained(forest_graph, 2, 3)) == leaves[:3]


def test_nonoverlapping_is_greedy_over_the_family(forest_graph):
    for f, family in (("min", min_communities), ("max", max_communities)):
        result = top_r_communities(forest_graph, 2, 3, f, non_overlapping=True)
        assert result == greedy_disjoint(family(forest_graph, 2), 3)


def test_chains_are_nested_and_value_sorted(forest_graph):
    family = min_communities(forest_graph, 2)
    for vertex in range(forest_graph.n):
        chain = sorted(
            (c for c in family if vertex in c.vertices), key=lambda c: c.size
        )
        for deeper, shallower in zip(chain, chain[1:]):
            assert deeper.vertices < shallower.vertices
            assert deeper.value >= shallower.value
