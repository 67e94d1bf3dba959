"""Induced-subgraph helpers.

``G[H]`` — the subgraph induced by a vertex set ``H`` (paper Table II) —
appears in every definition.  Solvers mostly avoid materialising it (they
work on the base graph restricted by a set), but tests, the certifier and
the exact solver want a real :class:`Graph`, which
:func:`induced_subgraph` provides together with the id remapping.

When the parent graph has already materialised its CSR arrays, the child
graph's CSR arrays are derived from the parent's with one vectorised
gather-filter-remap pass and attached to the returned graph, so induced
subgraphs never pay the set-flattening cost again.  The subset statistics
(:func:`induced_degrees`, :func:`induced_edge_count`,
:func:`min_induced_degree`) likewise run over flat arrays, except for
subsets tiny relative to the graph, which stay on set intersections.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graphs.csr import CSRAdjacency, membership_mask
from repro.graphs.graph import Graph


def induced_subgraph(
    graph: Graph, vertices: Iterable[int]
) -> tuple[Graph, dict[int, int]]:
    """Materialise ``G[H]`` as a standalone graph.

    Returns ``(subgraph, mapping)`` where ``mapping[original_id] = new_id``.
    New ids follow sorted original order, so the mapping is deterministic.
    """
    ordered = sorted(set(vertices))
    for v in ordered:
        graph.check_vertex(v)
    mapping = {v: i for i, v in enumerate(ordered)}
    member = set(ordered)
    adj: list[set[int]] = [set() for __ in ordered]
    base = graph.adjacency
    for v in ordered:
        nv = mapping[v]
        for u in base[v] & member:
            adj[nv].add(mapping[u])
    weights = np.asarray([graph.weight(v) for v in ordered], dtype=np.float64)
    labels = None
    if graph.labels is not None:
        labels = [graph.labels[v] for v in ordered]
    sub = Graph(adj, weights, labels=labels, _trusted=True)
    if graph.has_csr:
        sub._csr = _induced_csr(graph.csr, ordered)
    return sub, mapping


def _induced_csr(csr: CSRAdjacency, ordered: list[int]) -> CSRAdjacency:
    """Child CSR arrays from the parent's, without touching Python sets.

    Gather the members' neighbour runs, drop non-members, remap ids via a
    lookup array.  Remapping is monotone (members are sorted), so the
    child's neighbour runs stay sorted.
    """
    members = np.asarray(ordered, dtype=np.int64)
    remap = np.full(csr.n, -1, dtype=np.int64)
    remap[members] = np.arange(len(members), dtype=np.int64)
    mask = np.zeros(csr.n, dtype=bool)
    mask[members] = True
    neigh, owners, __ = csr.gather_full(members)
    inside = mask[neigh]
    counts = np.bincount(remap[owners[inside]], minlength=len(members))
    indptr = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRAdjacency(indptr, remap[neigh[inside]])


def induced_degrees(graph: Graph, vertices: Iterable[int]) -> dict[int, int]:
    """``d(v, H)`` for every ``v`` in ``H``, without building ``G[H]``."""
    subset = set(vertices)
    if _use_csr_stats(graph, subset):
        degrees = _subset_degree_array(graph, subset)
        return {v: int(degrees[v]) for v in subset}
    adj = graph.adjacency
    return {v: len(adj[v] & subset) for v in subset}


def induced_edge_count(graph: Graph, vertices: Iterable[int]) -> int:
    """Number of edges inside ``G[H]``."""
    subset = set(vertices)
    if _use_csr_stats(graph, subset):
        degrees = _subset_degree_array(graph, subset)
        return int(degrees.sum()) // 2
    adj = graph.adjacency
    return sum(len(adj[v] & subset) for v in subset) // 2


def min_induced_degree(graph: Graph, vertices: Iterable[int]) -> int:
    """``delta(H)``: minimum degree inside the induced subgraph.

    Returns 0 for the empty set (matching the convention that an empty
    subgraph is never a k-core for k >= 1).
    """
    subset = set(vertices)
    if not subset:
        return 0
    if _use_csr_stats(graph, subset):
        degrees = _subset_degree_array(graph, subset)
        return int(degrees[np.fromiter(subset, dtype=np.int64)].min())
    adj = graph.adjacency
    return min(len(adj[v] & subset) for v in subset)


def _use_csr_stats(graph: Graph, subset: set[int]) -> bool:
    """Route subset statistics: the CSR path's full-length mask/bincount is
    O(n) per call, so subsets tiny relative to the graph stay on the
    subset-proportional set intersections (mirrors kcore_of_subset)."""
    return len(subset) * 16 >= graph.n


def _subset_degree_array(graph: Graph, subset: set[int]) -> np.ndarray:
    return graph.csr.subset_degrees(membership_mask(graph.n, subset))
