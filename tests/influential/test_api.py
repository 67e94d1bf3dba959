"""The top-level dispatch API."""

import pytest

from repro.errors import SolverError, SpecError
from repro.hardness.certificates import certify_result_set
from repro.influential import minmax_solvers
from repro.influential.api import top_r_communities


def test_auto_sum_unconstrained_is_exact(figure1):
    result = top_r_communities(figure1, k=2, r=2, f="sum")
    assert result.values() == [203.0, 195.0]


def test_auto_min_max(figure1):
    assert top_r_communities(figure1, k=2, r=2, f="min").values() == [12.0, 8.0]
    top_max = top_r_communities(figure1, k=2, r=1, f="max")
    assert top_max.values() == [62.0]


@pytest.mark.parametrize("f", ["min", "max"])
@pytest.mark.parametrize("non_overlapping", [False, True])
def test_min_max_build_the_forest_once(figure1, monkeypatch, f, non_overlapping):
    builds = []
    build = minmax_solvers.community_forest

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(minmax_solvers, "community_forest", counted)
    top_r_communities(figure1, k=2, r=2, f=f, non_overlapping=non_overlapping)
    assert len(builds) == 1


def test_auto_avg_uses_local_search(figure1):
    # The BFS ("random") prefix order finds the elite triangle {v1,v2,v4};
    # greedy weight-sorting legitimately misses it here (the sorted prefix
    # is disconnected) — an honest property of the paper's heuristic.
    result = top_r_communities(figure1, k=2, r=1, f="avg", greedy=False)
    assert len(result) == 1
    assert result[0].value == pytest.approx(24.0)


def test_auto_size_constrained(figure1):
    result = top_r_communities(figure1, k=2, r=3, f="sum", s=4)
    certify_result_set(figure1, result, k=2, s=4)


def test_explicit_methods(figure1):
    for method in ("naive", "improved", "exact", "local", "bruteforce"):
        result = top_r_communities(figure1, k=2, r=2, f="sum", method=method)
        assert result.values()[0] == 203.0
    approx = top_r_communities(figure1, k=2, r=2, f="sum", method="approx", eps=0.2)
    assert approx.values()[0] == 203.0


def test_unknown_method_rejected(figure1):
    with pytest.raises(SolverError):
        top_r_communities(figure1, k=2, r=1, method="magic")


def test_method_problem_mismatches_rejected(figure1):
    with pytest.raises(SolverError):
        top_r_communities(figure1, k=2, r=1, f="sum", s=4, method="naive")
    with pytest.raises(SolverError):
        top_r_communities(figure1, k=2, r=1, f="sum", s=4, method="improved")
    with pytest.raises(SolverError):
        top_r_communities(
            figure1, k=2, r=1, f="sum", method="exact", non_overlapping=True
        )


def test_non_overlapping_dispatch(figure1):
    for f in ("sum", "min", "max", "avg"):
        result = top_r_communities(figure1, k=2, r=3, f=f, non_overlapping=True)
        assert result.is_pairwise_disjoint(), f


def test_non_overlapping_avg_matches_example2(figure1):
    result = top_r_communities(
        figure1, k=2, r=3, f="avg", s=4, non_overlapping=True, greedy=False
    )
    assert result.is_pairwise_disjoint()
    # Example 2's three communities (values 24, 67/3, 38/3).
    assert result.values() == pytest.approx([24.0, 67.0 / 3, 38.0 / 3])


def test_spec_validation_surfaces(figure1):
    with pytest.raises(SpecError):
        top_r_communities(figure1, k=0, r=1)
    with pytest.raises(SpecError):
        top_r_communities(figure1, k=2, r=1, s=100)


def test_accepts_aggregator_instance(figure1):
    from repro.aggregators.summation import SumSurplus

    result = top_r_communities(figure1, k=2, r=1, f=SumSurplus(alpha=1.0))
    assert result.values() == [203.0 + 11.0]


def test_sum_surplus_auto_route(figure1):
    # Size-proportional + decreasing: must go through Algorithm 2, exact.
    result = top_r_communities(figure1, k=2, r=2, f="sum-surplus(alpha=1)")
    assert result.values() == [214.0, 205.0]
