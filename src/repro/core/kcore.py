"""Maximal k-cores and connected k-core components of vertex subsets.

Two operations dominate the solvers' inner loops:

* ``kcore_of_subset(graph, vertices, k)`` — iteratively delete vertices of
  the induced subgraph with degree < k until a fixpoint; what remains is
  the unique maximal sub-k-core (possibly empty).
* ``connected_kcore_components`` — the same, split into connected
  components; these are exactly the candidate communities of Algorithms
  1 and 2 ("compute the connected k-core of H").

Both run in O(|H| + |E(G[H])|) using a worklist of underfull vertices.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.errors import SpecError
from repro.graphs.components import connected_components_of
from repro.graphs.csr import membership_mask
from repro.graphs.graph import Graph


def _check_k(k: int) -> None:
    if k < 0:
        raise SpecError(f"degree constraint k must be non-negative, got {k}")


def maximal_kcore(graph: Graph, k: int) -> set[int]:
    """Vertex set of the maximal k-core of the whole graph.

    One cascade peel of the whole vertex set at this k, O(n + m) —
    callers doing many k values should threshold
    :func:`~repro.core.decomposition.core_decomposition` themselves.
    """
    _check_k(k)
    mask, __ = graph.csr.peel_to_kcore(np.ones(graph.n, dtype=bool), k)
    return set(np.flatnonzero(mask).tolist())


def kcore_of_subset(graph: Graph, vertices: Iterable[int], k: int) -> set[int]:
    """The maximal sub-k-core of ``G[vertices]`` (empty set if none).

    The result is the unique maximal subset of ``vertices`` whose induced
    subgraph has minimum degree >= k.  Subsets that are a sizable fraction
    of the graph peel a boolean mask with vectorised frontier rounds
    (:meth:`repro.graphs.csr.CSRAdjacency.peel_to_kcore`); for subsets
    tiny relative to the graph the O(n) mask rounds would dwarf the work,
    so they run the subset-proportional worklist peel instead.
    """
    _check_k(k)
    alive = set(vertices)
    if len(alive) * 16 >= graph.n:
        mask = membership_mask(graph.n, alive)
        mask, __ = graph.csr.peel_to_kcore(mask, k)
        return set(np.flatnonzero(mask).tolist())
    return kcore_worklist(graph, alive, k)


def kcore_worklist(graph: Graph, alive: set[int], k: int) -> set[int]:
    """The worklist peel behind :func:`kcore_of_subset`: start from the
    vertices whose induced degree is below k and cascade deletions.
    Consumes ``alive``, which becomes the result."""
    for v in alive:
        graph.check_vertex(v)
    adj = graph.adjacency
    degree = {v: len(adj[v] & alive) for v in alive}
    queue = deque(v for v, d in degree.items() if d < k)
    in_queue = set(queue)
    while queue:
        v = queue.popleft()
        in_queue.discard(v)
        if v not in alive:
            continue
        alive.discard(v)
        for u in adj[v] & alive:
            degree[u] -= 1
            if degree[u] < k and u not in in_queue:
                queue.append(u)
                in_queue.add(u)
    return alive


def connected_kcore_components(
    graph: Graph, vertices: Iterable[int], k: int
) -> list[set[int]]:
    """Connected components of the maximal sub-k-core of ``G[vertices]``.

    These are the "disjoint connected components of k-core(H)" that
    Algorithms 1 and 2 enumerate.  Ordered by smallest member for
    determinism.
    """
    core = kcore_of_subset(graph, vertices, k)
    if not core:
        return []
    return connected_components_of(graph, core)
