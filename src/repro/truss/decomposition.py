"""Truss decomposition by support peeling.

The *support* of an edge is the number of triangles containing it; the
*truss number* of an edge is the largest k such that the edge survives in
the k-truss (every edge's support within the surviving subgraph is at
least ``k - 2``).  The standard peeling algorithm (Wang & Cheng 2012)
repeatedly removes the minimum-support edge, decrementing the support of
the edges it shared triangles with.

Complexity O(m^1.5) via the usual smaller-endpoint triangle enumeration —
comfortably fast at stand-in scale, and cross-validated against
``networkx.k_truss`` in the tests.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.graphs.graph import Graph
from repro.utils.heaps import IndexedMaxHeap


def _edge_id(u: int, v: int, n: int) -> int:
    """Dense id for the undirected edge {u, v}."""
    if u > v:
        u, v = v, u
    return u * n + v


def edge_supports(graph: Graph) -> dict[tuple[int, int], int]:
    """Triangle count of every edge, keyed by (u, v) with u < v.

    Flat-array support counting: orient here, count in the kernel tier.
    Orient every edge from lower to higher (degree, id) rank, so peel
    tie-breaks downstream see a fixed orientation, and hand the
    forward-arc CSR (``fptr``/``fdst``, runs sorted by target) to
    :func:`repro.kernels.arc_supports`: the O(m^1.5) smaller-endpoint
    triangle enumeration, vectorised in numpy.
    Arc ``i`` is the undirected edge ``(fsrc[i], fdst[i])``.
    """
    csr = graph.csr
    n = csr.n
    degree = csr.degrees()
    order = np.lexsort((np.arange(n), degree))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    dst = csr.indices
    keep = position[src] < position[dst]
    fsrc, fdst = src[keep], dst[keep]
    fptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fsrc, minlength=n), out=fptr[1:])
    support = kernels.arc_supports(fptr, fdst)
    lo = np.minimum(fsrc, fdst).tolist()
    hi = np.maximum(fsrc, fdst).tolist()
    return {
        (u, v): s for u, v, s in zip(lo, hi, support.tolist())
    }


def truss_decomposition(graph: Graph) -> dict[tuple[int, int], int]:
    """Truss number of every edge, keyed by (u, v) with u < v.

    Peels edges in non-decreasing support order; when edge (u, v) is
    removed at current level k, its truss number is k, and every edge of a
    triangle through (u, v) loses one support.
    """
    n = graph.n
    support = edge_supports(graph)
    if not support:
        return {}
    adj = {v: set(graph.adjacency[v]) for v in range(n)}
    heap = IndexedMaxHeap(reverse=True)  # min-heap over edge ids
    for (u, v), s in support.items():
        heap.push(_edge_id(u, v, n), float(s))
    truss: dict[tuple[int, int], int] = {}
    k = 2
    while len(heap):
        edge_id, s = heap.peek()
        s = int(s)
        if s > k - 2:
            k = s + 2
        heap.pop()
        u, v = divmod(edge_id, n)
        truss[(u, v)] = k
        # Remove the edge; update supports of co-triangle edges.
        adj[u].discard(v)
        adj[v].discard(u)
        for w in adj[u] & adj[v]:
            for a, b in ((u, w), (v, w)):
                key_id = _edge_id(a, b, n)
                if key_id in heap:
                    heap.update(key_id, heap.priority_of(key_id) - 1.0)
    return truss


def truss_max(graph: Graph) -> int:
    """The largest k with a non-empty k-truss (>= 2 when any edge exists)."""
    numbers = truss_decomposition(graph)
    if not numbers:
        return 0
    return max(numbers.values())
