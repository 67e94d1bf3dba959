"""Connectivity primitives: BFS, connected components, subset connectivity.

These run both on the full graph and — crucially for every solver — on an
arbitrary *vertex subset*, because communities live inside induced
subgraphs.  Subset variants take the candidate set as a Python set and never
materialise an induced graph object.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.graphs.csr import membership_mask
from repro.graphs.graph import Graph


def bfs_order(graph: Graph, source: int, within: set[int] | None = None) -> list[int]:
    """Vertices reachable from ``source`` in BFS order.

    When ``within`` is given, traversal is restricted to that vertex set
    (``source`` must belong to it).  Neighbour visits are sorted for
    determinism — solver outputs must not depend on set iteration order.
    """
    graph.check_vertex(source)
    if within is not None and source not in within:
        raise ValueError(f"source {source} not in the restricting set")
    adj = graph.adjacency
    seen = {source}
    order = [source]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if within is None:
            candidates = adj[u]
        else:
            candidates = adj[u] & within
        for v in sorted(candidates):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    return order


def connected_components(graph: Graph) -> list[set[int]]:
    """All connected components of the full graph, as vertex sets.

    Components are ordered by their smallest vertex id.
    """
    return connected_components_of(graph, range(graph.n))


def connected_components_of(
    graph: Graph, vertices: Iterable[int]
) -> list[set[int]]:
    """Connected components of the subgraph induced by ``vertices``.

    Runs in O(|H| + |E(G[H])|).  Deterministic: components are emitted in
    order of their smallest member.  Subsets that are a sizable fraction
    of the graph are split by vectorised frontier BFS
    (:meth:`repro.graphs.csr.CSRAdjacency.components_of_mask`); tiny
    subsets keep the subset-proportional BFS of :func:`components_bfs`,
    mirroring the routing of ``kcore_of_subset``.
    """
    subset = set(vertices)
    if len(subset) * 16 >= graph.n:
        mask = membership_mask(graph.n, subset)
        return [
            set(piece.tolist())
            for piece in graph.csr.components_of_mask(mask)
        ]
    return components_bfs(graph, subset)


def components_bfs(graph: Graph, subset: set[int]) -> list[set[int]]:
    """The set-adjacency BFS behind :func:`connected_components_of`, with
    the same smallest-member output order."""
    for v in subset:
        graph.check_vertex(v)
    adj = graph.adjacency
    unvisited = set(subset)
    components: list[set[int]] = []
    # Iterate seeds in sorted order so output order is stable.
    for seed in sorted(subset):
        if seed not in unvisited:
            continue
        comp = {seed}
        unvisited.discard(seed)
        queue = deque([seed])
        while queue:
            u = queue.popleft()
            for v in adj[u] & unvisited:
                unvisited.discard(v)
                comp.add(v)
                queue.append(v)
        components.append(comp)
    return components


def is_connected_subset(graph: Graph, vertices: Iterable[int]) -> bool:
    """True if ``G[vertices]`` is connected (empty set counts as False).

    Single-vertex subsets are connected.  This is constraint (2) of the
    paper's Definition 3.
    """
    subset = set(vertices)
    if not subset:
        return False
    seed = next(iter(subset))
    adj = graph.adjacency
    seen = {seed}
    queue = deque([seed])
    while queue:
        u = queue.popleft()
        for v in adj[u] & subset:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(subset)


def shortest_hop_distances(
    graph: Graph, source: int, within: set[int] | None = None
) -> dict[int, int]:
    """Hop distance from ``source`` to every reachable vertex (BFS levels).

    Used by the local search to rank the "s nearest neighbours" of a seed
    vertex (Algorithm 4, Line 4).
    """
    graph.check_vertex(source)
    adj = graph.adjacency
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        neighbours = adj[u] if within is None else adj[u] & within
        for v in neighbours:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist
