"""The Aggregator interface contract."""

import pytest

from repro.aggregators.registry import available_aggregators, get_aggregator
from repro.errors import AggregatorError
from repro.utils.stats import SubsetStats


def _all_instances():
    return [get_aggregator(name) for name in available_aggregators()
            if not name.startswith("test-")]


#: The paper's Table I: (name, node-dominated, size-proportional, NP-hard
#: unconstrained).  Every constrained (size-bounded) case is NP-hard.
TABLE1 = [
    ("min", True, False, False),
    ("max", True, True, False),
    ("sum", False, True, False),
    ("sum-surplus(alpha=1)", False, True, False),
    ("avg", False, False, True),
    ("weight-density(beta=1)", False, False, True),
    ("balanced-density", False, False, True),
]


@pytest.mark.parametrize("name,dominated,proportional,np_hard", TABLE1)
def test_table1_flags(name, dominated, proportional, np_hard):
    aggregator = get_aggregator(name)
    assert aggregator.is_node_dominated == dominated
    assert aggregator.is_size_proportional == proportional
    assert aggregator.np_hard_unconstrained == np_hard
    assert aggregator.np_hard_constrained


def test_every_aggregator_evaluates_value(triangle):
    for aggregator in _all_instances():
        value = aggregator.value(triangle, [0, 1, 2])
        assert isinstance(value, float)


def test_every_aggregator_rejects_empty(triangle):
    for aggregator in _all_instances():
        with pytest.raises(AggregatorError):
            aggregator.value(triangle, [])


def test_value_agrees_with_from_stats(triangle):
    stats = SubsetStats(3, 6.0, 1.0, 3.0)
    total = triangle.total_weight
    for aggregator in _all_instances():
        direct = aggregator.value(triangle, [0, 1, 2])
        via_stats = aggregator.from_stats(stats, graph_total=total)
        assert direct == pytest.approx(via_stats), aggregator.name


def test_from_scalars_matches_from_stats():
    """The scalar form local search calls is the same float expression."""
    cases = [(3, 6.0, 1.0, 3.0), (10, 0.9999999999999999, 0.1, 0.1), (7, 2.3, 0.1, 0.9)]
    for aggregator in _all_instances():
        for size, total, low, high in cases:
            stats = SubsetStats(size, total, low, high)
            expected = aggregator.from_stats(stats, graph_total=40.0)
            got = aggregator.from_scalars(size, total, low, high, 40.0)
            assert got.hex() == expected.hex(), aggregator.name


def test_reads_extremes_flag_is_truthful():
    """An aggregator that says it ignores min and max gives the same
    value whatever is passed for them; max and min say they read them."""
    assert get_aggregator("max").reads_extremes
    assert get_aggregator("min").reads_extremes
    for aggregator in _all_instances():
        if aggregator.reads_extremes:
            continue
        for size, total in [(3, 6.0), (10, 0.9999999999999999), (7, 2.3)]:
            expected = aggregator.from_scalars(size, total, 0.1, 3.0, 40.0)
            for low, high in [(-5.0, 9.0), (float("nan"), float("nan"))]:
                got = aggregator.from_scalars(size, total, low, high, 40.0)
                assert got.hex() == expected.hex(), aggregator.name


def test_decreasing_flag_is_truthful(two_triangles):
    """Every aggregator claiming Corollary 2 must actually decrease when a
    vertex leaves (checked over all subsets of a small graph)."""
    subsets = [
        ([3, 4, 5], [3, 4]),
        ([0, 1, 2], [1, 2]),
        ([3, 4], [4]),
    ]
    for aggregator in _all_instances():
        if not aggregator.decreases_under_removal:
            continue
        for before, after in subsets:
            assert aggregator.value(two_triangles, before) > aggregator.value(
                two_triangles, after
            ), aggregator.name


def test_size_proportional_flag_is_truthful(two_triangles):
    """Definition 7: f(H) <= f(H') for H subset of H'."""
    chains = [([4], [3, 4], [3, 4, 5]), ([0], [0, 1], [0, 1, 2])]
    for aggregator in _all_instances():
        if not aggregator.is_size_proportional:
            continue
        for chain in chains:
            values = [aggregator.value(two_triangles, list(s)) for s in chain]
            assert values == sorted(values), aggregator.name


def test_node_dominated_flag_is_truthful(two_triangles):
    """Definition 6: f(H) equals some member's own weight."""
    for aggregator in _all_instances():
        if not aggregator.is_node_dominated:
            continue
        subset = [3, 4, 5]
        value = aggregator.value(two_triangles, subset)
        singles = {aggregator.value(two_triangles, [v]) for v in subset}
        assert value in singles, aggregator.name


def test_repr_and_equality():
    sum_agg = get_aggregator("sum")
    assert "Sum" in repr(sum_agg)
    assert sum_agg == get_aggregator("sum")
    assert sum_agg != get_aggregator("avg")
    assert sum_agg != "sum"  # not equal to plain strings
