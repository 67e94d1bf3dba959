"""Solution certification against Definitions 3, 4 and 5.

Solvers return :class:`~repro.influential.community.Community` objects;
these checkers re-derive every claimed property from the graph:

* cohesiveness — every member has >= k neighbours inside (Def. 3.1);
* connectivity — the induced subgraph is connected (Def. 3.2);
* value — the stored influence value matches a fresh evaluation;
* maximality — no *one-vertex extension* keeps the value (a sound,
  polynomial necessary condition for Def. 3.3; the exponential full check
  lives in the brute-force oracle);
* size and disjointness for Definitions 4-5;
* distinctness — a result set never lists one vertex set twice.

``certify_*`` raise :class:`CertificationError` with a precise message;
``check_*`` return booleans for use in property tests.
"""

from __future__ import annotations

import math

from repro.aggregators.base import Aggregator
from repro.aggregators.registry import get_aggregator
from repro.errors import CertificationError
from repro.graphs.components import is_connected_subset
from repro.graphs.graph import Graph
from repro.influential.community import Community
from repro.influential.results import ResultSet

#: Relative tolerance when comparing recomputed influence values.
VALUE_RTOL = 1e-9


def check_cohesive(graph: Graph, vertices: frozenset[int], k: int) -> bool:
    """Definition 3 constraint (1): minimum induced degree >= k."""
    adj = graph.adjacency
    return bool(vertices) and all(len(adj[v] & vertices) >= k for v in vertices)


def check_connected(graph: Graph, vertices: frozenset[int]) -> bool:
    """Definition 3 constraint (2): induced subgraph connected."""
    return is_connected_subset(graph, vertices)


def check_maximal(
    graph: Graph,
    vertices: frozenset[int],
    k: int,
    aggregator: Aggregator,
) -> bool:
    """One-vertex-extension maximality (necessary condition for Def. 3.3).

    If adding any single adjacent vertex yields a connected cohesive
    superset with the *same* value, the community is certainly not
    maximal.  (The converse needs multi-vertex extensions; the brute-force
    oracle covers that on small graphs.)
    """
    value = aggregator.value(graph, vertices)
    adj = graph.adjacency
    boundary = set()
    for v in vertices:
        boundary |= adj[v]
    boundary -= vertices
    for candidate in boundary:
        extended = vertices | {candidate}
        if not check_cohesive(graph, extended, k):
            continue
        extended_value = aggregator.value(graph, extended)
        if math.isclose(extended_value, value, rel_tol=VALUE_RTOL):
            return False
    return True


def certify_community(
    graph: Graph,
    community: Community,
    k: int | None = None,
    s: int | None = None,
    require_maximal: bool = False,
) -> None:
    """Raise :class:`CertificationError` unless ``community`` is valid.

    Checks cohesiveness, connectivity, stored-value consistency, the size
    bound when ``s`` is given, and (optionally) one-vertex-extension
    maximality.
    """
    degree_bound = k if k is not None else community.k
    members = community.vertices
    if not check_cohesive(graph, members, degree_bound):
        raise CertificationError(
            f"community {sorted(members)} violates the degree constraint "
            f"k={degree_bound}"
        )
    if not check_connected(graph, members):
        raise CertificationError(f"community {sorted(members)} is not connected")
    aggregator = get_aggregator(community.aggregator)
    recomputed = aggregator.value(graph, members)
    if not math.isclose(recomputed, community.value, rel_tol=VALUE_RTOL):
        raise CertificationError(
            f"stored value {community.value} != recomputed {recomputed} "
            f"under {community.aggregator}"
        )
    if s is not None and community.size > s:
        raise CertificationError(
            f"community size {community.size} exceeds the bound s={s}"
        )
    if require_maximal and not check_maximal(graph, members, degree_bound, aggregator):
        raise CertificationError(
            f"community {sorted(members)} has a same-value one-vertex extension"
        )


def certify_result_set(
    graph: Graph,
    results: ResultSet,
    k: int | None = None,
    s: int | None = None,
    non_overlapping: bool = False,
    require_maximal: bool = False,
) -> None:
    """Certify every community, the ranking order, (optionally) pairwise
    disjointness (Definition 5), and that no vertex set repeats."""
    previous = math.inf
    for community in results:
        certify_community(graph, community, k=k, s=s, require_maximal=require_maximal)
        if community.value > previous + VALUE_RTOL:
            raise CertificationError("result set is not sorted by value")
        previous = community.value
    if non_overlapping and not results.is_pairwise_disjoint():
        raise CertificationError("result set violates the non-overlapping constraint")
    distinct = {community.vertices for community in results}
    if len(distinct) < len(results):
        raise CertificationError("result set lists the same community twice")
