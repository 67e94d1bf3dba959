"""Lazy list-of-sets adjacency view over CSR arrays.

A graph stores the same topology twice: flat CSR arrays
(the bulk-kernel substrate) and a list of Python sets (the incremental /
reference substrate).  For a graph *built* edge-by-edge the sets come
first and the CSR is derived; for a graph *attached* from a snapshot or
a shared-memory substrate it is the other way around — the CSR arrays
already exist (and are shared, read-only, with every other process on
the machine), while the Python sets would cost O(n + 2m) private heap
per process to materialise eagerly.  On the serving graphs that heap is
the dominant per-worker memory, dwarfing the arrays themselves.

:class:`LazyAdjacency` is the fix: a sequence that *looks like* the
list-of-sets adjacency but materialises each vertex's neighbour set on
first access, straight from the (possibly shared) CSR arrays.  A worker
that only runs CSR kernels touches no set at all; the small-subset
kernel branches and the set-based searches materialise exactly the
vertices they visit.
Sets are cached after first build, so amortised access cost matches the
eager list.

The view is read-only by contract, like ``Graph.adjacency`` itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LazyAdjacency"]


class LazyAdjacency:
    """List-of-sets facade over sorted CSR ``indptr``/``indices`` arrays.

    Supports exactly the access patterns :class:`repro.graphs.graph.Graph`
    and the set-adjacency kernels use: ``len()``, indexing, iteration.  The
    arrays must satisfy the CSR invariants (``graph_from_csr_arrays``
    validates them before building one of these).
    """

    __slots__ = ("_indptr", "_indices", "_sets")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._indptr = indptr
        self._indices = indices
        # Sparse cache: most workers touch a tiny fraction of vertices.
        self._sets: dict[int, set[int]] = {}

    @property
    def edge_count(self) -> int:
        """Number of undirected edges (``len(indices) // 2``)."""
        return int(self._indices.size) // 2

    def __len__(self) -> int:
        return int(self._indptr.size) - 1

    def __getitem__(self, vertex: int) -> set[int]:
        if isinstance(vertex, slice):
            return [self[v] for v in range(*vertex.indices(len(self)))]
        v = int(vertex)
        if v < 0:
            v += len(self)
        cached = self._sets.get(v)
        if cached is not None:
            return cached
        if not 0 <= v < len(self):
            raise IndexError(vertex)
        run = self._indices[self._indptr[v] : self._indptr[v + 1]]
        materialized = set(run.tolist())
        self._sets[v] = materialized
        return materialized

    def __iter__(self):
        for v in range(len(self)):
            yield self[v]

    def to_sets(self) -> list[set[int]]:
        """Materialise the full eager list (used by bulk rewrite paths)."""
        return [self[v] for v in range(len(self))]

    def __repr__(self) -> str:
        return (
            f"LazyAdjacency(n={len(self)}, m={self.edge_count}, "
            f"materialized={len(self._sets)})"
        )
