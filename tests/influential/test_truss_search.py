"""Influential community search under the k-truss model (extension)."""

import pytest

from repro.errors import SolverError
from repro.influential.truss_search import (
    truss_min_communities,
    truss_top_r_min,
    truss_top_r_sum,
)


def test_sum_components_on_figure1(figure1):
    result = truss_top_r_sum(figure1, k=3, r=2)
    values = {frozenset(c.vertices): c.value for c in result}
    # The triangle-connected cluster {v3,v5..v11} and the {v1,v2,v4} triangle.
    assert values[frozenset({2, 4, 5, 6, 7, 8, 9, 10})] == 131.0
    assert values[frozenset({0, 1, 3})] == 72.0
    assert result.is_pairwise_disjoint()


def test_min_peel_on_figure1(figure1):
    result = truss_top_r_min(figure1, k=3, r=2)
    assert [sorted(v + 1 for v in c.vertices) for c in result] == [
        [5, 7, 8],
        [3, 9, 10],
    ]
    assert result.values() == [12.0, 8.0]


def test_min_family_nested_or_disjoint(figure1):
    family = [c.vertices for c in truss_min_communities(figure1, 3)]
    for a in family:
        for b in family:
            assert a <= b or b <= a or not (a & b)


def test_min_values_strictly_increase_along_chains(figure1):
    family = truss_min_communities(figure1, 3)
    for parent in family:
        for child in family:
            if child.vertices < parent.vertices:
                assert child.value > parent.value


def test_truss_stricter_than_core(figure1, email):
    """Truss communities are contained in the corresponding core search
    space: sum over k-truss components <= sum over (k-1)-core components."""
    from repro.influential.nonoverlap import tonic_sum_unconstrained

    for graph, k in ((figure1, 3), (email, 4)):
        core = tonic_sum_unconstrained(graph, k - 1, 1)
        truss = truss_top_r_sum(graph, k, 1)
        assert truss[0].value <= core[0].value


def test_limit_and_validation(figure1):
    assert len(truss_min_communities(figure1, 3, limit=1)) == 1
    with pytest.raises(SolverError):
        truss_top_r_sum(figure1, 1, 1)
    with pytest.raises(SolverError):
        truss_top_r_sum(figure1, 3, 0)
    with pytest.raises(SolverError):
        truss_top_r_sum(figure1, 3, 1, "avg")
    with pytest.raises(SolverError):
        truss_top_r_min(figure1, 3, 0)


def test_empty_when_no_truss(path_graph):
    assert truss_min_communities(path_graph, 3) == []
    assert len(truss_top_r_sum(path_graph, 3, 2)) == 0
