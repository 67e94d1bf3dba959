"""A mutable peeling workspace over an immutable graph.

The min/max solvers and the non-overlapping wrappers repeatedly delete
vertices *from the same evolving graph* while keeping the remainder a
k-core — recopying adjacency for every deletion would be quadratic.
:class:`PeelingWorkspace` keeps an alive-set plus per-vertex induced
degrees and performs "remove v and cascade below-k vertices" in time
proportional to the affected region.  It records each cascade so callers
can inspect exactly what a removal cost (the sum solver's child expansion
reasons about that set).

Degrees live in a flat int64 array alongside a boolean alive mask: the
initial degrees come from one vectorised bincount and the k-core invariant
is established with the vectorised mask peel.  The Python-level ``alive``
set stays in sync, because solvers iterate it directly.

Workspaces are reusable: :meth:`reset` re-seeds the alive set for a new
query, recomputing every degree from scratch so no stale bookkeeping
leaks between queries.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.errors import SpecError, VertexError
from repro.graphs.csr import membership_mask
from repro.graphs.graph import Graph


class PeelingWorkspace:
    """Alive-set view of a graph supporting cascade deletions at level k.

    After construction the workspace holds the maximal k-core of the given
    subset (vertices below k are cascaded immediately), so the invariant
    *every alive vertex has alive-degree >= k* holds at all times.
    """

    __slots__ = ("graph", "k", "_alive", "_deg", "_mask")

    def __init__(
        self,
        graph: Graph,
        k: int,
        vertices: Iterable[int] | None = None,
    ) -> None:
        if k < 0:
            raise SpecError(f"degree constraint k must be non-negative, got {k}")
        self.graph = graph
        self.k = k
        self.reset(vertices)

    def reset(self, vertices: Iterable[int] | None = None) -> None:
        """Re-seed the workspace for a new query over ``vertices``.

        All degrees are recomputed from the graph, so bookkeeping from the
        previous query cannot go stale.  The k-core invariant is
        re-established immediately, exactly as in ``__init__``.
        """
        csr = self.graph.csr
        if vertices is None:
            mask = np.ones(csr.n, dtype=bool)
            degrees = csr.degrees()
        else:
            mask = membership_mask(csr.n, set(vertices))
            degrees = csr.subset_degrees(mask)
        mask, degrees = csr.peel_to_kcore(mask, self.k, degrees)
        self._mask = mask
        self._deg = degrees
        self._alive = set(np.flatnonzero(mask).tolist())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> set[int]:
        """The current alive vertex set.  Treat as read-only."""
        return self._alive

    def __len__(self) -> int:
        return len(self._alive)

    def __contains__(self, v: int) -> bool:
        return v in self._alive

    def degree(self, v: int) -> int:
        """Alive-induced degree of an alive vertex."""
        if v not in self._alive:
            raise VertexError(v, self.graph.n)
        return int(self._deg[v])

    def alive_neighbors(self, v: int) -> set[int]:
        """Alive neighbours of ``v`` (fresh set, safe to keep)."""
        return self.graph.adjacency[v] & self._alive

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _cascade(self, seeds: Iterable[int]) -> list[int]:
        """Remove ``seeds`` and everything that falls below k.  Returns the
        full list of removed vertices (seeds first, cascade order after).

        Per removed vertex: one CSR slice, one masked fancy-index
        decrement, one below-k scan over the flat arrays."""
        csr = self.graph.csr
        indptr, indices = csr.indptr, csr.indices
        alive, mask, degrees, k = self._alive, self._mask, self._deg, self.k
        removed: list[int] = []
        for v in seeds:
            if mask[v]:
                mask[v] = False
                alive.discard(v)
                removed.append(v)
        i = 0
        while i < len(removed):
            v = removed[i]
            i += 1
            neigh = indices[indptr[v] : indptr[v + 1]]
            neigh = neigh[mask[neigh]]
            if neigh.size:
                degrees[neigh] -= 1
                for u in neigh[degrees[neigh] < k].tolist():
                    mask[u] = False
                    alive.discard(u)
                    removed.append(u)
        return removed

    def remove(self, v: int) -> list[int]:
        """Delete alive vertex ``v``; cascade; return all removed vertices."""
        if v not in self._alive:
            raise VertexError(v, self.graph.n)
        return self._cascade([v])

    def remove_all(self, vertices: Iterable[int]) -> list[int]:
        """Delete several vertices at once (e.g. a whole community in the
        non-overlapping wrappers); cascade; return all removed vertices."""
        seeds = [v for v in vertices if v in self._alive]
        return self._cascade(seeds)

    # ------------------------------------------------------------------
    # Component queries on the alive set
    # ------------------------------------------------------------------
    def component_of(self, v: int) -> set[int]:
        """The alive connected component containing ``v``."""
        if v not in self._alive:
            raise VertexError(v, self.graph.n)
        adj = self.graph.adjacency
        alive = self._alive
        seen = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u] & alive:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def components(self) -> list[set[int]]:
        """All alive connected components, ordered by smallest member."""
        from repro.graphs.components import connected_components_of

        return connected_components_of(self.graph, self._alive)
