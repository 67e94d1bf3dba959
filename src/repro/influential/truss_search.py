"""Influential community search under the k-truss model (extension).

The paper's introduction points out that the influential community model
generalises from k-core to other cohesiveness metrics "e.g., k-truss";
this module carries the two tractable solver families across:

* :func:`truss_top_r_sum` — under a size-proportional aggregator every
  connected k-truss component dominates its sub-trusses, so the top-r
  components are exact (the truss analogue of Algorithm 2's Lines 1-3, and
  exact for the same Corollary 2 reason when expansion is by best-first
  peeling);
* :func:`truss_min_communities` / :func:`truss_top_r_min` — the min-peel
  carried to trusses: repeatedly record the component about to lose its
  minimum-weight vertex, delete that vertex (edges and all), re-truss,
  recurse on the split parts.  The same maximality argument as the k-core
  case applies over ``{v : w(v) >= m}``.

Definitions mirror Definition 3 with "cohesive" replaced by "every edge of
G[H] used for connectivity closes >= k - 2 triangles in G[H]".
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import Aggregator
from repro.aggregators.minmax import Minimum
from repro.aggregators.registry import get_aggregator
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.influential.community import Community, community_from_vertices
from repro.influential.results import ResultSet
from repro.truss.ktruss import connected_ktruss_components
from repro.utils.topr import TopR


def truss_top_r_sum(
    graph: Graph,
    k: int,
    r: int,
    f: "str | Aggregator | None" = None,
) -> ResultSet:
    """Top-r non-overlapping k-truss influential communities, sum family.

    Exactness mirrors the k-core argument: components are disjoint, and a
    size-proportional aggregator cannot prefer a sub-truss to the
    component containing it.
    """
    aggregator = get_aggregator(f) if f is not None else get_aggregator("sum")
    if not aggregator.is_size_proportional:
        raise SolverError(
            f"the truss component shortcut needs a size-proportional "
            f"aggregator; {aggregator.name!r} is not"
        )
    if k < 2 or r < 1:
        raise SolverError(f"need k >= 2 and r >= 1, got k={k}, r={r}")
    top: TopR[Community] = TopR(r, key=lambda c: c.value)
    for component in connected_ktruss_components(graph, range(graph.n), k):
        top.offer(community_from_vertices(graph, component, aggregator, k))
    return ResultSet(top.ranked())


def truss_min_communities(
    graph: Graph, k: int, limit: int | None = None
) -> list[Community]:
    """Every k-truss influential community under min, in discovery order.

    The truss analogue of the Li-et-al. peel: each component is recorded
    with its minimum weight, then all minimum-weight vertices are deleted
    and the remainder re-trussed.  The per-component minimum and the
    survivor filter run as (exact) array reductions.
    """
    if k < 2:
        raise SolverError(f"need k >= 2, got {k}")
    aggregator = Minimum()
    weights = graph.weights
    found: list[Community] = []
    worklist = connected_ktruss_components(graph, range(graph.n), k)
    while worklist:
        component = worklist.pop()
        if not component:
            continue
        members = np.fromiter(component, dtype=np.int64, count=len(component))
        member_weights = weights[members]
        minimum = float(member_weights.min())
        survivors = set(members[member_weights != minimum].tolist())
        found.append(
            Community(frozenset(component), minimum, aggregator.name, k)
        )
        if limit is not None and len(found) >= limit:
            return found
        if survivors:
            worklist.extend(connected_ktruss_components(graph, survivors, k))
    return found


def truss_top_r_min(graph: Graph, k: int, r: int) -> ResultSet:
    """Top-r k-truss influential communities under min."""
    if r < 1:
        raise SolverError(f"need r >= 1, got {r}")
    return ResultSet(sorted(truss_min_communities(graph, k))[:r])
