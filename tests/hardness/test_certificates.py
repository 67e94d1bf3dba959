"""Solution certification against Definitions 3-5."""

import pytest

from repro.aggregators.minmax import Minimum
from repro.errors import CertificationError
from repro.hardness.certificates import (
    certify_community,
    certify_result_set,
    check_cohesive,
    check_connected,
    check_maximal,
)
from repro.influential.community import Community
from repro.influential.results import ResultSet


def test_check_cohesive(tiny):
    assert check_cohesive(tiny, frozenset({0, 1, 2, 3}), 3)
    assert not check_cohesive(tiny, frozenset({0, 1, 2, 3, 4}), 3)
    assert not check_cohesive(tiny, frozenset(), 1)


def test_check_connected(two_triangles):
    assert check_connected(two_triangles, frozenset({0, 1, 2}))
    assert not check_connected(two_triangles, frozenset({0, 1, 2, 3}))


def test_check_maximal_min(tiny):
    # {1,2,3} (weights 2,3,4) extends to K4 adding vertex 0 (weight 1):
    # min drops, so the extension does NOT break maximality under min.
    assert check_maximal(tiny, frozenset({1, 2, 3}), 2, Minimum())
    # Under max however the same extension keeps f... no: adding 0 keeps
    # max at 4 -> NOT maximal under max.
    from repro.aggregators.minmax import Maximum

    assert not check_maximal(tiny, frozenset({1, 2, 3}), 2, Maximum())


def test_certify_valid_community(figure1):
    community = Community(frozenset(range(11)), 203.0, "sum", 2)
    certify_community(figure1, community)  # no raise


def test_certify_rejects_bad_degree(figure1):
    community = Community(frozenset({0, 1}), 66.0, "sum", 2)
    with pytest.raises(CertificationError, match="degree"):
        certify_community(figure1, community)


def test_certify_rejects_disconnected(two_triangles):
    community = Community(frozenset(range(6)), 66.0, "sum", 2)
    with pytest.raises(CertificationError, match="not connected"):
        certify_community(two_triangles, community)


def test_certify_rejects_wrong_value(figure1):
    community = Community(frozenset(range(11)), 999.0, "sum", 2)
    with pytest.raises(CertificationError, match="recomputed"):
        certify_community(figure1, community)


def test_certify_rejects_size_violation(figure1):
    community = Community(frozenset(range(11)), 203.0, "sum", 2)
    with pytest.raises(CertificationError, match="size"):
        certify_community(figure1, community, s=5)


def test_certify_maximality_option(tiny):
    community = Community(frozenset({1, 2, 3}), 4.0, "max", 2)
    with pytest.raises(CertificationError, match="extension"):
        certify_community(tiny, community, require_maximal=True)


def test_certify_result_set_disjointness(figure1):
    overlapping = ResultSet(
        [
            Community(frozenset({0, 1, 3}), 72.0, "sum", 2),
            Community(frozenset({0, 1, 3}), 72.0, "sum", 2),
        ]
    )
    with pytest.raises(CertificationError, match="non-overlapping"):
        certify_result_set(figure1, overlapping, non_overlapping=True)


def test_certify_result_set_happy_path(two_triangles):
    results = ResultSet(
        [
            Community(frozenset({3, 4, 5}), 60.0, "sum", 2),
            Community(frozenset({0, 1, 2}), 6.0, "sum", 2),
        ]
    )
    certify_result_set(two_triangles, results, k=2, non_overlapping=True)


def test_certify_result_set_rejects_duplicates(five_clique):
    # The same community listed three times is each time valid on its own.
    whole = Community(frozenset(range(5)), 15.0, "sum", 2)
    with pytest.raises(CertificationError, match="twice"):
        certify_result_set(five_clique, ResultSet([whole] * 3), k=2, s=5)
    certify_result_set(five_clique, ResultSet([whole]), k=2, s=5)
