"""Unit tests for the Sum/Avg local-search strategies.

The candidate checks use :func:`repro.reference._is_candidate`, the
set-based "C is k-core" test the strategies' prefix sweep replaces.
"""

import pytest

from repro.aggregators.average import Average
from repro.aggregators.density import BalancedDensity
from repro.aggregators.summation import Sum
from repro.influential.community import Community
from repro.influential.strategies import AvgStrategy, SumStrategy, strategy_for
from repro.reference import _is_candidate
from repro.utils.topr import TopR


def _top(r=3):
    return TopR(r, key=lambda c: c.value)


def test_is_candidate_checks_both_conditions(two_triangles):
    assert _is_candidate(two_triangles, [0, 1, 2], 2)
    # Cohesive but disconnected: both triangles together.
    assert not _is_candidate(two_triangles, [0, 1, 2, 3, 4, 5], 2)
    # Connected but not cohesive: an edge at k=2.
    assert not _is_candidate(two_triangles, [0, 1], 2)


def test_sum_strategy_takes_largest_feasible_prefix(figure1):
    # BFS-style neighbourhood of v6: the first-s block {v6,v5,v7,v11} is the
    # optimal size-4 sum community (value 79) and must be taken whole.
    ordered = [5, 4, 6, 10]
    strategy = SumStrategy(figure1, k=2, s=4, aggregator=Sum())
    top = _top()
    strategy.offer_candidates(ordered, top)
    assert len(top) == 1
    best = top.best()
    assert best.vertices == frozenset({4, 5, 6, 10})
    assert best.value == 79.0
    assert _is_candidate(figure1, best.members(), 2)


def test_sum_strategy_shrinks_from_tail(figure1):
    # A weight-sorted order that breaks connectivity forces tail-shrinking;
    # {v11, v7, v5, v6} sorted desc = [v11, v7, v5, v6]; the full block IS a
    # valid 2-core, so it is taken; adding an unreachable tail vertex first
    # exercises the shrink loop.
    ordered = [10, 9, 6, 4, 5]  # v11, v10, v7, v5, v6
    strategy = SumStrategy(figure1, k=2, s=5, aggregator=Sum())
    top = _top()
    strategy.offer_candidates(ordered, top)
    # Block {v11,v10,v7,v5,v6} is not a 2-core (v10 only touches v6);
    # shrinking drops v6 then v5 then v7... no prefix qualifies, so
    # nothing is offered — the strategy must not emit invalid candidates.
    for community in top.ranked():
        assert _is_candidate(figure1, community.members(), 2)


def test_sum_strategy_respects_threshold(figure1):
    strategy = SumStrategy(figure1, k=2, s=4, aggregator=Sum())
    top = _top(1)
    # Pre-load an unbeatable community so nothing can pass f(Lr).
    top.offer(Community(frozenset({0}), 1e9, "sum", 2))
    strategy.offer_candidates([0, 1, 3, 4], top)
    assert top.best().value == 1e9  # unchanged


def test_avg_strategy_greedy_stops_at_first_qualifier(figure1):
    ordered = sorted(range(11), key=lambda v: -figure1.weight(v))
    strategy = AvgStrategy(figure1, k=2, s=11, aggregator=Average(), greedy=True)
    top = _top()
    strategy.offer_candidates(ordered, top)
    assert len(top) == 1
    candidate = top.best()
    assert _is_candidate(figure1, candidate.members(), 2)


def test_avg_strategy_exhaustive_keeps_best(figure1):
    ordered = list(range(11))  # BFS-ish arbitrary order
    strategy = AvgStrategy(figure1, k=2, s=11, aggregator=Average(), greedy=False)
    top = _top()
    strategy.offer_candidates(ordered, top)
    if len(top):
        candidate = top.best()
        assert _is_candidate(figure1, candidate.members(), 2)


def test_avg_strategy_candidates_bounded_by_s(figure1):
    ordered = sorted(range(11), key=lambda v: -figure1.weight(v))
    strategy = AvgStrategy(figure1, k=2, s=5, aggregator=Average(), greedy=False)
    top = _top()
    strategy.offer_candidates(ordered, top)
    for community in top.ranked():
        assert community.size <= 5


def test_strategy_for_dispatch(figure1):
    assert isinstance(strategy_for(figure1, 2, 4, Sum(), True), SumStrategy)
    assert isinstance(strategy_for(figure1, 2, 4, Average(), True), AvgStrategy)
    # Unknown/non-proportional aggregators fall back to the generic
    # grow-and-test scheme (Remark 1).
    assert isinstance(
        strategy_for(figure1, 2, 4, BalancedDensity(), False), AvgStrategy
    )


def test_balanced_density_gets_graph_total(two_triangles):
    strategy = strategy_for(two_triangles, 2, 3, BalancedDensity(), True)
    top = _top()
    strategy.offer_candidates([3, 4, 5], top)
    assert len(top) == 1
    assert top.best().value == pytest.approx(60.0 / 54.0)
