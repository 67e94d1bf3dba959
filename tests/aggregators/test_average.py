"""Unit tests for the average aggregator, including the paper's Theorem 2
counterexamples (non-submodularity, non-monotonicity of g)."""

import pytest

from repro.aggregators.average import Average
from repro.errors import AggregatorError
from repro.graphs.components import is_connected_subset
from repro.reference import is_kcore_subset
from repro.utils.stats import SubsetStats


def test_avg_value(triangle):
    assert Average().value(triangle, [0, 1, 2]) == pytest.approx(2.0)
    assert Average().value(triangle, [2]) == 3.0


def test_flags_match_table1():
    agg = Average()
    assert agg.np_hard_unconstrained  # Theorem 1
    assert agg.np_hard_constrained
    assert not agg.is_size_proportional
    assert not agg.decreases_under_removal
    assert not agg.is_node_dominated


def _g(graph, subset, k):
    """The paper's objective g(H) = 1[delta(H) >= k] * f(H)."""
    if not subset or not is_kcore_subset(graph, subset, k):
        return 0.0
    return Average().value(graph, subset)


def test_objective_not_submodular_on_figure1(figure1):
    # Theorem 2's structure with our weights: g(A) + g(B) < g(A|B) + g(A&B)
    # for A = {v5}, B = {v6, v7} (ids 4, {5, 6}).
    a, b = {4}, {5, 6}
    lhs = _g(figure1, a, 2) + _g(figure1, b, 2)
    rhs = _g(figure1, a | b, 2) + _g(figure1, a & b, 2)
    assert lhs < rhs  # 0 < avg of the {v5,v6,v7} triangle


def test_objective_not_monotone_on_figure1(figure1):
    # Increasing direction: adding vertices raises g ...
    small, grown = {4}, {4, 5, 6}
    assert _g(figure1, small, 2) < _g(figure1, grown, 2)
    # ... and decreasing direction: supersets can lower g.
    high, lower = {5, 6, 10}, {4, 5, 6, 10}
    assert is_connected_subset(figure1, high)
    assert _g(figure1, high, 2) > _g(figure1, lower, 2)


def test_empty_rejected():
    with pytest.raises(AggregatorError):
        Average().from_stats(SubsetStats.empty())
