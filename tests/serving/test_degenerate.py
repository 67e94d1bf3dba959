"""Degenerate queries return well-formed empty results — never crash.

The serving satellite of ISSUE 3: r beyond the community family, k above
the max core number, k >= |V|, and empty/singleton graphs must produce
empty (or truncated) :class:`~repro.influential.results.ResultSet`
objects through both the direct API and the service.  Malformed *specs*
(k or r below 1, s that can never hold a k-core, oversized s on a real
graph) keep raising.
"""

import pytest

from repro.errors import SpecError
from repro.graphs.builder import GraphBuilder, graph_from_edges
from repro.influential.api import top_r_communities
from repro.influential.results import ResultSet
from repro.influential.spec import ProblemSpec
from repro.serving import InfluentialQuery, QueryService


@pytest.fixture
def singleton():
    builder = GraphBuilder(1)
    builder.set_weight(0, 5.0)
    return builder.build()


@pytest.fixture
def edge_pair():
    return graph_from_edges([(0, 1)], weights=[2.0, 3.0])


AGGS = ("sum", "avg", "min", "max")


class TestDirectAPI:
    def test_empty_graph_returns_empty(self, empty_graph):
        for f in AGGS:
            result = top_r_communities(empty_graph, k=1, r=3, f=f)
            assert isinstance(result, ResultSet) and len(result) == 0

    def test_singleton_graph_returns_empty(self, singleton):
        for f in AGGS:
            assert len(top_r_communities(singleton, k=1, r=2, f=f)) == 0

    def test_k_at_least_n_returns_empty(self, edge_pair, figure1):
        assert len(top_r_communities(edge_pair, k=2, r=1)) == 0
        assert len(top_r_communities(figure1, k=11, r=1)) == 0
        assert len(top_r_communities(figure1, k=99, r=1, f="min")) == 0

    def test_k_at_least_n_short_circuits_every_method(self, edge_pair):
        for method in ("auto", "naive", "improved", "local", "bruteforce"):
            assert len(
                top_r_communities(edge_pair, k=5, r=2, method=method)
            ) == 0

    def test_k_above_max_core_returns_empty(self, tiny):
        # kmax(tiny) = 3 and |V| = 7: k = 5 exercises the solver path
        # (not the k >= n short circuit).
        assert len(top_r_communities(tiny, k=5, r=3)) == 0

    def test_r_beyond_family_is_truncated_not_padded(self, two_triangles):
        result = top_r_communities(two_triangles, k=2, r=99, f="sum")
        assert 1 <= len(result) <= 4
        assert result.rth_value(99) == float("-inf")

    def test_malformed_specs_still_raise(self, figure1, empty_graph):
        with pytest.raises(SpecError):
            top_r_communities(figure1, k=0, r=1)
        with pytest.raises(SpecError):
            top_r_communities(figure1, k=2, r=0)
        with pytest.raises(SpecError):
            top_r_communities(figure1, k=2, r=1, s=100)
        with pytest.raises(SpecError):
            top_r_communities(empty_graph, k=2, r=1, s=1)  # s < k + 1

    def test_infeasible_for_classification(self, figure1, empty_graph):
        assert ProblemSpec.create(11, 1, "sum").infeasible_for(figure1)
        assert ProblemSpec.create(1, 1, "sum").infeasible_for(empty_graph)
        assert not ProblemSpec.create(2, 1, "sum").infeasible_for(figure1)
        # validate_for keeps its strict contract for direct spec users.
        with pytest.raises(SpecError):
            ProblemSpec.create(11, 1, "sum").validate_for(figure1)


class TestService:
    def test_empty_graph_service(self, empty_graph):
        service = QueryService(empty_graph)
        assert service.kmax == 0
        for f in AGGS:
            result = service.submit(InfluentialQuery(k=3, r=2, f=f))
            assert isinstance(result, ResultSet) and len(result) == 0

    def test_singleton_service(self, singleton):
        service = QueryService(singleton)
        assert len(service.submit(InfluentialQuery(k=1, r=1))) == 0

    def test_degenerate_matches_cold_api(self, tiny):
        service = QueryService(tiny)
        for query in (
            InfluentialQuery(k=5, r=3),          # kmax < k < n
            InfluentialQuery(k=7, r=3),          # k == n
            InfluentialQuery(k=12, r=3, f="max"),
            InfluentialQuery(k=2, r=50, f="min"),
        ):
            assert service.submit(query) == top_r_communities(
                tiny, **query.solver_kwargs()
            )

    def test_service_spec_errors_mirror_cold(self, tiny):
        service = QueryService(tiny)
        with pytest.raises(SpecError):
            service.submit(InfluentialQuery(k=0, r=1))
        with pytest.raises(SpecError):
            service.submit(InfluentialQuery(k=2, r=1, s=50))

    def test_empty_graph_truss_service(self, empty_graph):
        service = QueryService(empty_graph)
        assert service.tmax == 0
        assert len(service.submit(
            InfluentialQuery(k=3, r=1, cohesion="truss")
        )) == 0
