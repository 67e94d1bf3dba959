"""Induced-subgraph helpers.

``G[H]`` — the subgraph induced by a vertex set ``H`` (paper Table II) —
appears in every definition.  Solvers mostly avoid materialising it (they
work on the base graph restricted by a set), but tests, the certifier and
the exact solver want a real :class:`Graph`, which
:func:`induced_subgraph` provides together with the id remapping.

The child graph's CSR arrays come from the parent's through
:meth:`~repro.graphs.csr.CSRAdjacency.induced_local`; no neighbour set is
touched.  The
subset statistics
(:func:`induced_degrees`, :func:`induced_edge_count`,
:func:`min_induced_degree`) likewise run over flat arrays, except for
subsets tiny relative to the graph, which stay on set intersections.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graphs.csr import membership_mask
from repro.graphs.graph import Graph


def induced_subgraph(
    graph: Graph, vertices: Iterable[int]
) -> tuple[Graph, dict[int, int]]:
    """Materialise ``G[H]`` as a standalone graph.

    Returns ``(subgraph, mapping)`` where ``mapping[original_id] = new_id``.
    New ids follow sorted original order, so the mapping is deterministic.
    """
    ordered = sorted(set(vertices))
    if ordered:
        graph.check_vertex(ordered[0])
        graph.check_vertex(ordered[-1])
    mapping = {v: i for i, v in enumerate(ordered)}
    members = np.asarray(ordered, dtype=np.int64)
    labels = None
    if graph.labels is not None:
        labels = [graph.labels[v] for v in ordered]
    sub = Graph(
        graph.csr.induced_local(members),
        graph.weights[members],
        labels=labels,
        _trusted=True,
    )
    return sub, mapping


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
