"""Label-constrained queries: predicate semantics and solver correctness.

The contract under test (ISSUE: constrained search must *prune before
expansion*, not filter afterwards, yet return exactly the post-filter
answer): for every predicate, constrained ``top_r_communities`` equals
the post-filtered brute force — every connected k-core of the full graph
whose members all match, Definition 3 maximality applied within the
matching universe.  Both engine paths are pinned: the CSR pushdown
(masked peel on the global CSR) and the induced-subgraph fallback.
"""

from __future__ import annotations

import pytest

from repro import reference
from repro.errors import SpecError
from repro.graphs.builder import graph_from_edges
from repro.influential.api import top_r_communities
from repro.influential.constraints import LabelPredicate, matching_mask
from repro.serving.oracle import (
    bruteforce_constrained_top_r,
    constrained_discrepancies,
    small_oracle_graphs,
)
from tests.conftest import engine

#: Deterministic label assignment reused across the suite: a shared
#: ``g:`` prefix over two buckets plus an unmatched third family.
def _labels_for(graph):
    names = ("g:db", "g:ml", "x:sys")
    return [names[v % 3] for v in range(graph.n)]


def _labeled(graph):
    return graph.with_labels(_labels_for(graph))


PREDICATES = [
    {"eq": "g:db"},
    {"any": ["g:db", "g:ml"]},
    {"prefix": "g:"},
    "x:sys",  # bare string sugar for eq
]


# ----------------------------------------------------------------------
# LabelPredicate parsing and canonicalisation
# ----------------------------------------------------------------------
def test_from_json_forms():
    assert LabelPredicate.from_json(None) is None
    eq = LabelPredicate.from_json("db")
    assert eq.kind == "eq" and eq.values == ("db",)
    any_of = LabelPredicate.from_json(["ml", "db", "ml"])
    assert any_of.kind == "any" and any_of.values == ("db", "ml")
    prefix = LabelPredicate.from_json({"prefix": "g:"})
    assert prefix.kind == "prefix" and prefix.values == ("g:",)
    # idempotent: an instance passes through
    assert LabelPredicate.from_json(eq) is eq


def test_spellings_collapse_to_one_identity():
    a = LabelPredicate.from_json({"any": ["ml", "db"]})
    b = LabelPredicate.from_json(["db", "ml", "db"])
    assert a == b and hash(a) == hash(b)
    assert LabelPredicate.from_json("db") == LabelPredicate.from_json({"eq": "db"})


def test_to_json_round_trips():
    for spec in PREDICATES:
        predicate = LabelPredicate.from_json(spec)
        assert LabelPredicate.from_json(predicate.to_json()) == predicate


@pytest.mark.parametrize(
    "bad",
    [
        42,
        {"eq": "a", "prefix": "b"},  # two kinds at once
        {"between": "a"},
        {"any": []},
        {"any": ["a", 3]},
        {"eq": 7},
        {},
        [],
    ],
)
def test_malformed_predicates_raise(bad):
    with pytest.raises(SpecError):
        LabelPredicate.from_json(bad)


def test_matches_and_describe():
    predicate = LabelPredicate.from_json({"prefix": "g:"})
    assert predicate.matches("g:db") and not predicate.matches("x:sys")
    assert "g:" in predicate.describe()
    assert "∈" in LabelPredicate.from_json(["a", "b"]).describe()


def _unlabeled_triangle():
    return graph_from_edges([(0, 1), (1, 2), (0, 2)], n=3)


def test_matching_mask_requires_labels():
    predicate = LabelPredicate.from_json("db")
    with pytest.raises(SpecError, match="no vertex labels"):
        matching_mask(_unlabeled_triangle(), predicate)


def test_matching_mask_selects_matching_vertices(figure1):
    graph = _labeled(figure1)
    mask = matching_mask(graph, LabelPredicate.from_json({"prefix": "g:"}))
    assert [v for v in range(graph.n) if mask[v]] == [
        v for v in range(graph.n) if v % 3 != 2
    ]


# ----------------------------------------------------------------------
# Solver vs post-filtered brute force, across methods and engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name, base", small_oracle_graphs())
@pytest.mark.parametrize("engine_name", ["csr", "set"])
@pytest.mark.parametrize("f", ["sum", "sum-surplus(1.5)", "min", "max"])
def test_constrained_matches_postfiltered_bruteforce(
    name, base, engine_name, f
):
    graph = _labeled(base)
    for spec in PREDICATES:
        for k in (1, 2):
            with engine(engine_name):
                problems = constrained_discrepancies(graph, k, 3, f, spec)
            assert not problems, f"{name}: " + "\n".join(problems)


@pytest.mark.parametrize("name, base", small_oracle_graphs())
def test_backend_parity_constrained(name, base):
    """Constrained seeding on the CSR engine matches the reference set
    engine, byte for byte."""
    graph = _labeled(base)
    for spec in PREDICATES:
        csr = top_r_communities(graph, k=2, r=3, f="sum", labels=spec)
        with reference.set_engine():
            plain = top_r_communities(graph, k=2, r=3, f="sum", labels=spec)
        assert csr == plain and csr.values() == plain.values(), name


def _planted_teams():
    """Three labeled teams (``team:0..2``) planted in a 2000-vertex
    ``bg`` background, and a k one below the background's degeneracy: the
    unconstrained lattice is large while the constrained answer is the
    teams."""
    from repro.core.decomposition import core_decomposition
    from repro.graphs.generators.planted import PlantedSpec, planted_communities

    background = 2000
    team = PlantedSpec(40, 0.6, weight_low=100.0, weight_high=200.0)
    graph, blocks = planted_communities(
        background, [team] * 3, background_p=0.008,
        background_weight_high=100.0, seed=7,
    )
    labels = ["bg"] * graph.n
    for b, block in enumerate(blocks):
        for v in block:
            labels[v] = f"team:{b}"
    k = int(core_decomposition(graph)[:background].max()) - 1
    return graph.with_labels(labels), k


def test_constrained_equals_induced_subgraph_solve(figure1):
    """The defining semantics: constrained search == unconstrained search
    on the induced subgraph of matching vertices, mapped back."""
    from repro.graphs.views import induced_subgraph

    teams, team_k = _planted_teams()
    cases = [
        (_labeled(figure1), {"any": ["g:db", "g:ml"]}, 2, 4),
        (teams, {"prefix": "team:"}, team_k, 3),
    ]
    for graph, spec, k, r in cases:
        predicate = LabelPredicate.from_json(spec)
        matching = [
            v for v in range(graph.n) if predicate.matches(graph.labels[v])
        ]
        subgraph, __ = induced_subgraph(graph, matching)
        inner = top_r_communities(subgraph, k=k, r=r, f="sum")
        constrained = top_r_communities(
            graph, k=k, r=r, f="sum", labels=predicate
        )
        mapped = [
            frozenset(matching[v] for v in community.vertices)
            for community in inner
        ]
        assert constrained, spec
        assert [frozenset(c.vertices) for c in constrained] == mapped
        assert constrained.values() == inner.values()
        for community in constrained:
            members = community.vertices
            assert all(predicate.matches(graph.labels[v]) for v in members)


def test_constrained_with_size_cap_and_tonic(figure1):
    """The fallback path (s, non_overlapping) honours the predicate."""
    graph = _labeled(figure1)
    predicate = LabelPredicate.from_json({"prefix": "g:"})
    for kwargs in ({"s": 5}, {"non_overlapping": True}):
        result = top_r_communities(
            graph, k=2, r=2, f="sum", labels=predicate, **kwargs
        )
        for community in result:
            assert all(
                predicate.matches(graph.labels[v]) for v in community.vertices
            )


def test_eps_approx_constrained_members_match(figure1):
    graph = _labeled(figure1)
    predicate = LabelPredicate.from_json({"prefix": "g:"})
    exact = top_r_communities(graph, k=2, r=3, f="sum", labels=predicate)
    approx = top_r_communities(
        graph, k=2, r=3, f="sum", eps=0.1, method="approx", labels=predicate
    )
    assert approx and exact
    for community in approx:
        assert all(
            predicate.matches(graph.labels[v]) for v in community.vertices
        )
        assert community.value <= exact.values()[0] + 1e-9
    # Algorithm 2's pruned search is (1-eps)-approximate on the top value.
    assert approx.values()[0] >= (1 - 0.1) * exact.values()[0] - 1e-9


def test_unlabeled_graph_rejects_constraint():
    with pytest.raises(SpecError, match="no vertex labels"):
        top_r_communities(
            _unlabeled_triangle(), k=2, r=1, f="sum", labels={"eq": "db"}
        )


def test_unmatched_predicate_returns_empty(figure1):
    graph = _labeled(figure1)
    result = top_r_communities(graph, k=2, r=3, f="sum", labels="nope")
    assert len(result) == 0


def test_k_above_kmax_constrained_fast_path(figure1):
    graph = _labeled(figure1)
    result = top_r_communities(graph, k=99, r=1, f="sum", labels={"prefix": "g:"})
    assert len(result) == 0


def test_empty_graph_with_constraint():
    graph = graph_from_edges([], n=0)
    result = top_r_communities(graph, k=1, r=1, f="sum", labels="x")
    assert len(result) == 0


def test_oracle_reference_is_subset_of_unconstrained(figure1):
    """Sanity on the reference itself: every constrained oracle community
    is an all-matching connected k-core, never better than the
    unconstrained optimum."""
    from repro.influential.bruteforce import bruteforce_top_r

    graph = _labeled(figure1)
    predicate = LabelPredicate.from_json({"prefix": "g:"})
    constrained = bruteforce_constrained_top_r(graph, 2, 3, "sum", predicate)
    unconstrained = bruteforce_top_r(graph, 2, 1, "sum")
    for community in constrained:
        assert all(
            predicate.matches(graph.labels[v]) for v in community.vertices
        )
    if constrained and unconstrained:
        assert constrained.values()[0] <= unconstrained.values()[0] + 1e-9
