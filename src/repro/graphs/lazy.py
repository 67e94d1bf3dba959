"""Lazy list-of-sets view over a graph's CSR arrays.

A :class:`repro.graphs.graph.Graph` stores its topology once, as flat CSR
arrays — possibly shared read-only with every other process on the
machine (a snapshot mmap or a shared-memory substrate).  Some code still
wants Python sets: O(1) membership tests and per-vertex intersections
for the set-based searches, BFS over shrinking alive-sets, and the
reference implementations.  Materialising every set eagerly would cost
O(n + 2m) private heap per graph — on G(50k, 400k) some 80 MB against
the arrays' 3.4 MB.

:class:`LazyAdjacency` is the bridge: a sequence that *looks like* a
list-of-sets adjacency but builds each vertex's neighbour set on first
access, straight from the CSR arrays, and caches it.  A graph that only
runs CSR kernels touches no set at all; the set-based code materialises
exactly the vertices it visits.  Every graph owns one view
(``Graph.adjacency``), built by the graph itself and shared by the
graphs derived from it with the same topology.

The view and its sets are read-only by contract.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["LazyAdjacency"]


class LazyAdjacency:
    """List-of-sets facade over sorted CSR ``indptr``/``indices`` arrays.

    Supports exactly the access patterns the set-adjacency code uses:
    ``len()``, indexing (negative indices and slices included) and
    iteration.  The arrays must satisfy the CSR invariants
    (:func:`repro.graphs.csr.check_csr`).
    """

    __slots__ = ("_indptr", "_indices", "_sets")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._indptr = indptr
        self._indices = indices
        # Sparse cache: most graphs touch a small fraction of vertices.
        self._sets: dict[int, set[int]] = {}

    @property
    def materialized(self) -> int:
        """How many neighbour sets have been built so far."""
        return len(self._sets)

    def __len__(self) -> int:
        return int(self._indptr.size) - 1

    def __getitem__(self, vertex: int) -> set[int]:
        try:
            return self._sets[vertex]
        except (KeyError, TypeError):  # TypeError: a slice (unhashable)
            return self._materialize(vertex)

    def _materialize(self, vertex) -> set[int]:
        if isinstance(vertex, slice):
            return [self[v] for v in range(*vertex.indices(len(self)))]
        v = int(vertex)
        if v < 0:
            v += len(self)
        if not 0 <= v < len(self):
            raise IndexError(vertex)
        cached = self._sets.get(v)
        if cached is None:
            run = self._indices[self._indptr[v] : self._indptr[v + 1]]
            cached = self._sets[v] = set(run.tolist())
        return cached

    def __iter__(self) -> Iterator[set[int]]:
        for v in range(len(self)):
            yield self[v]

    def __repr__(self) -> str:
        return (
            f"LazyAdjacency(n={len(self)}, m={int(self._indices.size) // 2}, "
            f"materialized={self.materialized})"
        )
