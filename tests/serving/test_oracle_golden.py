"""Golden oracle layer: every solver pinned to brute force, served or not.

The grid runs every registered aggregator family over the fixed
small-graph menagerie on both engines (CSR and the reference set
engine of :func:`repro.reference.set_engine`), through
:func:`repro.serving.oracle.oracle_discrepancies` (solver vs exhaustive
reference) and :func:`repro.serving.oracle.service_discrepancies`
(served vs cold).  The truss extension — which the k-core brute forcer
cannot oracle — is pinned against hand-derived truss components.
"""

import pytest

from repro import reference
from repro.graphs.generators.examples import barbell_graph
from repro.influential.truss_search import truss_top_r_sum
from repro.serving import InfluentialQuery, QueryService
from repro.serving.oracle import (
    ORACLE_AGGREGATORS,
    oracle_discrepancies,
    service_discrepancies,
    small_oracle_graphs,
)
from repro.truss import decomposition as truss_decomposition
from tests.conftest import ENGINES, engine

GRAPHS = dict(small_oracle_graphs())


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("f", ORACLE_AGGREGATORS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_solvers_match_bruteforce(name, f, engine_name):
    graph = GRAPHS[name]
    problems = []
    with engine(engine_name):
        for k in (2, 3):
            problems += oracle_discrepancies(graph, k, 3, f)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_service_matches_cold_queries(name, engine_name):
    graph = GRAPHS[name]
    workload = [
        InfluentialQuery(k=k, r=r, f=f)
        for k in (1, 2, 3)
        for r in (1, 3)
        for f in ORACLE_AGGREGATORS
    ] + [
        InfluentialQuery(k=2, r=2, f="sum", eps=0.3),
        InfluentialQuery(k=2, r=2, f="sum", method="naive"),
        InfluentialQuery(k=2, r=2, f="avg", method="local"),
        InfluentialQuery(k=2, r=2, f="min", non_overlapping=True),
        InfluentialQuery(k=2, r=2, f="sum", s=5, method="local"),
        InfluentialQuery(k=99, r=2, f="sum"),
    ]
    with engine(engine_name):
        problems = service_discrepancies(graph, workload)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("engine_name", ENGINES)
def test_truss_golden_barbell(engine_name, monkeypatch):
    # Two K4s bridged by a path: every K4 edge closes 2 triangles (each K4
    # is a 4-truss); the bridge edges close none.  Right clique outweighs
    # the left (weights ascend with vertex id).  The "set" leg feeds the
    # peel the reference set-intersection support counts.
    if engine_name == "set":
        monkeypatch.setattr(
            truss_decomposition, "edge_supports", reference.edge_supports
        )
    graph = barbell_graph(clique=4, path=2)
    result = truss_top_r_sum(graph, 4, 5, "sum")
    assert result.vertex_sets() == [
        frozenset({6, 7, 8, 9}),
        frozenset({0, 1, 2, 3}),
    ]
    assert result.values() == [7.0 + 8 + 9 + 10, 1.0 + 2 + 3 + 4]
    # k above the trussness of the cliques: nothing qualifies.
    assert len(truss_top_r_sum(graph, 5, 5, "sum")) == 0


def test_truss_service_byte_identical_to_direct():
    graph = barbell_graph(clique=4, path=2)
    service = QueryService(graph)
    for k in (2, 3, 4, 5):
        query = InfluentialQuery(k=k, r=5, f="sum", cohesion="truss")
        direct = truss_top_r_sum(graph, k, 5, "sum")
        assert service.submit(query) == direct
        assert service.submit(query).values() == direct.values()
