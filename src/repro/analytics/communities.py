"""Leader rosters, k-hop reach and overlap summaries for result sets.

The case-study reading of the paper (Section VI's author-community
tables) wants more than the raw member lists: *who* anchors each
community, how far its influence plausibly extends, and how much the
top-r communities overlap.  These helpers compute exactly that, from the
graph and an already-ranked :class:`~repro.influential.results.ResultSet`
— they are deterministic post-processing, never a second search.

All three return plain JSON-ready structures (Python ints/floats/lists)
because their primary consumer is the HTTP analytics surface.
"""

from __future__ import annotations

from repro.errors import SpecError
from repro.graphs.graph import Graph
from repro.influential.results import ResultSet

__all__ = ["community_leaders", "community_summary", "khop_reach"]


def _member_entry(graph: Graph, vertex: int) -> dict:
    return {
        "vertex": int(vertex),
        "label": graph.label_of(vertex),
        "weight": float(graph.weights[vertex]),
    }


def community_leaders(
    graph: Graph, result: ResultSet, deputies: int = 1
) -> list[dict]:
    """Leader + deputy roster for each ranked community.

    The leader is the member with the largest influence weight (ties go
    to the smaller vertex id, keeping the roster deterministic);
    ``deputies`` more members follow in the same order.  One entry per
    community, in result-rank order.
    """
    if deputies < 0:
        raise SpecError(f"deputies must be >= 0, got {deputies}")
    weights = graph.weights
    roster = []
    for rank, community in enumerate(result, start=1):
        members = sorted(community.vertices)
        by_influence = sorted(members, key=lambda v: (-weights[v], v))
        roster.append(
            {
                "rank": rank,
                "size": len(members),
                "value": community.value,
                "community": [int(v) for v in members],
                "leader": _member_entry(graph, by_influence[0]),
                "deputies": [
                    _member_entry(graph, v)
                    for v in by_influence[1 : 1 + deputies]
                ],
            }
        )
    return roster


def khop_reach(graph: Graph, result: ResultSet, hops: int = 2) -> list[dict]:
    """Fraction of the graph within ``h`` hops of each community.

    A community's *reach* at distance ``h`` is the share of all vertices
    whose shortest path to any member is at most ``h`` (members count at
    distance 0).  Reported as cumulative percentages per hop — a proxy
    for how much of the network the community can influence directly.
    """
    if hops < 1:
        raise SpecError(f"hops must be >= 1, got {hops}")
    n = graph.n
    out = []
    for rank, community in enumerate(result, start=1):
        reached = set(int(v) for v in community.vertices)
        frontier = reached
        per_hop: dict[str, float] = {}
        for hop in range(1, hops + 1):
            fringe: set[int] = set()
            for vertex in frontier:
                for neighbor in graph.neighbors(vertex):
                    if neighbor not in reached:
                        fringe.add(int(neighbor))
            reached |= fringe
            per_hop[str(hop)] = round(100.0 * len(reached) / n, 4) if n else 0.0
            frontier = fringe
            if not frontier:
                # The component is exhausted; further hops are flat.
                for rest in range(hop + 1, hops + 1):
                    per_hop[str(rest)] = per_hop[str(hop)]
                break
        out.append(
            {
                "rank": rank,
                "size": len(community.vertices),
                "reach_pct": per_hop,
                "reached": len(reached),
            }
        )
    return out


def community_summary(graph: Graph, result: ResultSet) -> dict:
    """Size, coverage and pairwise-overlap statistics for a result set.

    Overlap is Jaccard similarity between member sets; only overlapping
    pairs are listed (all pairs of a TONIC answer are disjoint by
    construction, and the empty list is the cheap way to prove it).
    """
    communities = [frozenset(community.vertices) for community in result]
    sizes = [len(community) for community in communities]
    values = [community.value for community in result]
    union: set[int] = set()
    for community in communities:
        union |= community
    pairs = []
    for i in range(len(communities)):
        for j in range(i + 1, len(communities)):
            shared = len(communities[i] & communities[j])
            if shared:
                jaccard = shared / len(communities[i] | communities[j])
                pairs.append(
                    {
                        "a": i + 1,
                        "b": j + 1,
                        "shared": shared,
                        "jaccard": round(jaccard, 6),
                    }
                )
    pairs.sort(key=lambda entry: (-entry["jaccard"], entry["a"], entry["b"]))
    return {
        "count": len(communities),
        "sizes": {
            "min": min(sizes) if sizes else 0,
            "max": max(sizes) if sizes else 0,
            "mean": round(sum(sizes) / len(sizes), 4) if sizes else 0.0,
        },
        "values": {
            "min": min(values) if values else None,
            "max": max(values) if values else None,
        },
        "vertices_covered": len(union),
        "coverage_pct": (
            round(100.0 * len(union) / graph.n, 4) if graph.n else 0.0
        ),
        "disjoint": not pairs,
        "overlapping_pairs": pairs,
    }
