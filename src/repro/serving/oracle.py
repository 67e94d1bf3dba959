"""Small-graph oracle harness: the serving layer's safety net.

The serving layer promises that cached and pooled answers are
**byte-identical** to cold single queries, and that the solvers those
queries run remain faithful to Definitions 3-5.  This module packages the
checks behind that promise so the golden tests, the Hypothesis property
suite and ad-hoc debugging all share one vocabulary:

* :func:`small_oracle_graphs` — the fixed menagerie (planted blocks,
  clique, barbell, paper Figure 1) every solver is pinned on, all within
  the brute-force enumeration limit;
* :func:`oracle_discrepancies` — run every applicable solver for one
  ``(graph, k, r, f)`` cell against the exhaustive
  brute-force reference, returning human-readable discrepancy strings
  (exact solvers must match the oracle exactly; heuristics must return
  certified communities that never beat the oracle's optimum);
* :func:`service_discrepancies` — submit queries through a
  :class:`~repro.serving.service.QueryService` (cold, then cached) and
  compare each answer against a cold :func:`~repro.influential.api
  .top_r_communities` call.

Discrepancy lists (rather than asserts) keep the harness usable from
both pytest (``assert not discrepancies``) and interactive sessions.
"""

from __future__ import annotations

from typing import Iterable

from repro.aggregators.registry import get_aggregator
from repro.graphs.generators.examples import barbell_graph, figure1_graph
from repro.graphs.generators.planted import PlantedSpec, planted_communities
from repro.graphs.graph import Graph
from repro.influential.api import top_r_communities
from repro.influential.bruteforce import bruteforce_top_r
from repro.influential.results import ResultSet

__all__ = [
    "ORACLE_AGGREGATORS",
    "bruteforce_constrained_top_r",
    "constrained_discrepancies",
    "small_oracle_graphs",
    "oracle_discrepancies",
    "service_discrepancies",
]

#: One representative of every registered aggregator family (parameterised
#: ones carry an explicit argument so cache keys exercise canonicalisation).
ORACLE_AGGREGATORS = (
    "sum",
    "sum-surplus(1.5)",
    "avg",
    "min",
    "max",
    "weight-density(1)",
)


def small_oracle_graphs() -> list[tuple[str, Graph]]:
    """Named small graphs (all under the brute-force limit of 24 vertices).

    Distinct positive weights throughout: value ties would make "top-r"
    ambiguous up to Definition 3's maximality merging, and the point of
    the golden layer is exact, byte-level pinning.
    """
    clique = barbell_graph(clique=6, path=0)  # K6 + K6, no bridge
    barbell = barbell_graph(clique=4, path=2)
    planted, __ = planted_communities(
        6,
        [
            PlantedSpec(size=5, intra_p=1.0, weight_low=5.0, weight_high=9.0),
            PlantedSpec(size=4, intra_p=1.0, weight_low=2.0, weight_high=4.0),
        ],
        background_p=0.2,
        attach_edges=2,
        seed=29,
    )
    return [
        ("figure1", figure1_graph()),
        ("twin_cliques", clique),
        ("barbell", barbell),
        ("planted", planted),
    ]


def _describe(result: ResultSet) -> str:
    return "[" + "; ".join(
        f"{sorted(c.vertices)}={c.value:.6g}" for c in result
    ) + "]"


def _compare(
    label: str, produced: ResultSet, expected: ResultSet, problems: list[str]
) -> None:
    """Byte-identical comparison (used service-vs-cold: same engine, same
    arithmetic, so even the float bit patterns must agree)."""
    if produced != expected or produced.values() != expected.values():
        problems.append(
            f"{label}: got {_describe(produced)}, "
            f"expected {_describe(expected)}"
        )


def _compare_oracle(
    label: str, produced: ResultSet, expected: ResultSet, problems: list[str]
) -> None:
    """Solver-vs-bruteforce comparison: identical vertex sets in identical
    order; values within 1e-9 relative (the solvers maintain values
    incrementally — parent minus removed weights — which drifts from the
    oracle's from-scratch summation by at most an ulp or two, exactly the
    tolerance the certificate layer grants)."""
    same_sets = produced.vertex_sets() == expected.vertex_sets()
    values_ok = len(produced) == len(expected) and all(
        abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
        for a, b in zip(produced.values(), expected.values())
    )
    if not (same_sets and values_ok):
        problems.append(
            f"{label}: got {_describe(produced)}, "
            f"expected {_describe(expected)}"
        )


def oracle_discrepancies(graph: Graph, k: int, r: int, f: str) -> list[str]:
    """Every applicable solver vs. the brute-force oracle for one cell.

    Exact solvers (Algorithms 1-2 for the decreasing-under-removal
    family, the min/max peels) must reproduce the oracle's communities
    exactly, with values inside the certificate layer's 1e-9 tolerance.
    The local-search heuristic must return *certified* communities (each
    a connected k-core with a correctly computed value) that never
    exceed the oracle's optimum; its top value is additionally pinned on
    value-unique instances when it does reach the optimum elsewhere, by
    the golden tests.  The truss extension is pinned separately (the
    brute-force oracle enumerates k-cores, not trusses).
    """
    from repro.hardness.certificates import certify_result_set

    aggregator = get_aggregator(f)
    oracle = bruteforce_top_r(graph, k, r, aggregator)
    problems: list[str] = []
    cell = f"{aggregator.name} k={k} r={r}"

    if aggregator.decreases_under_removal:
        for method in ("naive", "improved"):
            produced = top_r_communities(graph, k, r, aggregator, method=method)
            _compare_oracle(f"{method} [{cell}]", produced, oracle, problems)
    if aggregator.name in ("min", "max"):
        produced = top_r_communities(graph, k, r, aggregator, method="auto")
        _compare_oracle(
            f"auto/{aggregator.name} [{cell}]", produced, oracle, problems
        )

    heuristic = top_r_communities(graph, k, r, aggregator, method="local")
    try:
        certify_result_set(graph, heuristic, k=k)
    except Exception as exc:  # noqa: BLE001 — report, don't crash the sweep
        problems.append(f"local [{cell}]: uncertified result: {exc}")
    if heuristic and oracle:
        best, bound = heuristic.values()[0], oracle.values()[0]
        if best > bound + 1e-9:
            problems.append(
                f"local [{cell}]: value {best} beats the exhaustive "
                f"optimum {bound}"
            )
    return problems


def bruteforce_constrained_top_r(
    graph: Graph, k: int, r: int, f: str, labels
) -> ResultSet:
    """Post-filtered brute force: the constrained-query reference.

    Enumerates every connected k-core of the *full* graph, keeps exactly
    those whose members all satisfy the label predicate, applies
    Definition 3 maximality within the surviving candidates, and ranks.
    This is the literal "query then filter" semantics the constrained
    solvers must reproduce — equivalent to brute force on the induced
    subgraph of matching vertices, because induced degrees of an
    all-matching set are identical in both graphs.
    """
    from repro.influential.bruteforce import enumerate_connected_kcores
    from repro.influential.community import community_from_vertices
    from repro.influential.constraints import LabelPredicate

    aggregator = get_aggregator(f)
    predicate = LabelPredicate.from_json(labels)
    names = graph.labels
    if names is None:
        raise ValueError("constrained oracle needs a labeled graph")
    candidates = [
        subset
        for subset in enumerate_connected_kcores(graph, k)
        if all(predicate.matches(names[v]) for v in subset)
    ]
    communities = []
    for subset in candidates:
        value = aggregator.value(graph, subset)
        dominated = any(
            len(other) > len(subset)
            and subset < other
            and aggregator.value(graph, other) == value
            for other in candidates
        )
        if not dominated:
            communities.append(
                community_from_vertices(graph, subset, aggregator, k)
            )
    return ResultSet(sorted(communities)[:r])


def constrained_discrepancies(
    graph: Graph, k: int, r: int, f: str, labels
) -> list[str]:
    """Constrained solves vs. the post-filtered brute force for one cell.

    Exercises both the pushdown path (decreasing aggregators through
    Algorithms 1-2) and the induced-subgraph fallback (min/max peels);
    the local-search heuristic is checked for constraint *soundness* —
    every member matches and nothing beats the constrained optimum.
    """
    from repro.influential.constraints import LabelPredicate

    aggregator = get_aggregator(f)
    predicate = LabelPredicate.from_json(labels)
    oracle = bruteforce_constrained_top_r(graph, k, r, aggregator, predicate)
    problems: list[str] = []
    cell = f"{aggregator.name} k={k} r={r} {predicate.describe()}"

    methods = []
    if aggregator.decreases_under_removal:
        methods += ["naive", "improved", "auto"]
    if aggregator.name in ("min", "max"):
        methods.append("auto")
    for method in methods:
        produced = top_r_communities(
            graph, k, r, aggregator, method=method, labels=predicate,
        )
        _compare_oracle(f"{method} [{cell}]", produced, oracle, problems)

    names = graph.labels
    heuristic = top_r_communities(
        graph, k, r, aggregator, method="local", labels=predicate,
    )
    for community in heuristic:
        mismatched = [
            v for v in sorted(community.vertices)
            if not predicate.matches(names[v])
        ]
        if mismatched:
            problems.append(
                f"local [{cell}]: members {mismatched} violate the predicate"
            )
    if heuristic and oracle:
        best, bound = heuristic.values()[0], oracle.values()[0]
        if best > bound + 1e-9:
            problems.append(
                f"local [{cell}]: value {best} beats the constrained "
                f"optimum {bound}"
            )
    return problems


def service_discrepancies(graph: Graph, queries: Iterable) -> list[str]:
    """Served answers (cold pass, then cached pass) vs. cold direct API
    calls, for a batch of queries over ``graph``."""
    from repro.serving.query import InfluentialQuery
    from repro.serving.service import QueryService

    batch = [InfluentialQuery.create(q) for q in queries]
    service = QueryService(graph)
    problems: list[str] = []
    for label in ("cold", "cached"):
        results = service.submit_many(batch)
        for query, produced in zip(batch, results):
            if query.cohesion == "truss":
                continue  # pinned by the dedicated truss golden tests
            expected = top_r_communities(
                graph,
                **query.solver_kwargs(),
            )
            _compare(
                f"service/{label} {query.describe()}",
                produced,
                expected,
                problems,
            )
    return problems
