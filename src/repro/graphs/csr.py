"""Compressed-sparse-row adjacency: the array-speed graph representation.

A :class:`CSRAdjacency` stores the same topology as the list-of-sets
adjacency of :class:`repro.graphs.graph.Graph`, flattened into two flat
arrays — ``indptr`` (length ``n + 1``, int64) and ``indices`` (length
``2m``, int32 when every vertex id fits, neighbours of vertex ``v`` at
``indices[indptr[v]:indptr[v + 1]]``, sorted ascending).  The peeling kernels in :mod:`repro.core` and
:mod:`repro.truss` run over these flat arrays with bincount/frontier
operations instead of per-vertex Python set intersections, which is where
the order-of-magnitude speedups come from (see
``benchmarks/bench_substrates.py``).

The class also hosts the vectorised primitives every kernel needs:

* :meth:`gather` / :meth:`gather_full` — concatenate the neighbour runs of
  a frontier array in one shot (the repeat/arange offset trick);
* :meth:`subset_degrees` / :meth:`peel_to_kcore` /
  :meth:`components_of_mask` — induced degrees of a boolean vertex mask,
  the fixpoint "delete while min degree < k" peel, and the masked
  component split; :func:`repro.core.kcore.kcore_of_subset` and
  :func:`repro.influential.minmax_solvers.community_forest` peel here.

The peel and component-split hot loops themselves live in
:mod:`repro.kernels` (compiled when Numba is installed, pure numpy
otherwise); the methods here are thin flat-array adapters around that
dispatch point.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import VertexError
from repro.kernels import decrement_degrees

__all__ = ["CSRAdjacency", "decrement_degrees", "membership_mask"]


def membership_mask(n: int, vertices) -> np.ndarray:
    """Boolean membership mask over ``0..n-1``, validating vertex ids.

    One vectorised bounds check instead of a per-vertex Python loop; raises
    :class:`VertexError` naming an offending vertex, like ``check_vertex``.
    """
    members = np.fromiter(vertices, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    if members.size:
        lo, hi = int(members.min()), int(members.max())
        if lo < 0:
            raise VertexError(lo, n)
        if hi >= n:
            raise VertexError(hi, n)
        mask[members] = True
    return mask


class CSRAdjacency:
    """Immutable CSR view of an undirected graph's adjacency structure.

    ``indices`` is stored as int32 whenever every vertex id fits (n < 2³¹),
    halving the memory traffic of the gather-heavy kernels; the overflow
    guard falls back to int64 for hypothetical n >= 2³¹ graphs.  ``indptr``
    stays int64 unconditionally: its entries are cumulative *edge counts*
    that reach 2m and would overflow int32 already at m >= 2³⁰.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        index_dtype = self._index_dtype(len(self.indptr) - 1)
        self.indices = np.ascontiguousarray(indices, dtype=index_dtype)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @staticmethod
    def _index_dtype(n: int) -> np.dtype:
        """Narrowest integer dtype that can store every vertex id < ``n``."""
        if n <= np.iinfo(np.int32).max:
            return np.dtype(np.int32)
        return np.dtype(np.int64)

    @classmethod
    def from_adjacency(cls, adjacency: list[set[int]]) -> "CSRAdjacency":
        """Flatten a list-of-sets adjacency into sorted CSR arrays.

        One pass collects every (owner, neighbour) pair; a single lexsort
        then groups by owner and sorts each neighbour run ascending.
        """
        n = len(adjacency)
        counts = np.fromiter(
            (len(neigh) for neigh in adjacency), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        flat = np.fromiter(
            (v for neigh in adjacency for v in neigh), dtype=np.int64, count=total
        )
        owners = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((flat, owners))
        return cls(indptr, flat[order])

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        """Number of undirected edges (``indptr[-1] == 2m``)."""
        return int(self.indptr[-1]) // 2

    def __repr__(self) -> str:
        return f"CSRAdjacency(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour array of ``v`` (a read-only view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        """Degree of every vertex (fresh writable array)."""
        return np.diff(self.indptr)

    def gather(self, vertices: np.ndarray) -> np.ndarray:
        """Concatenated neighbour runs of ``vertices`` (duplicates kept)."""
        return self.indices[self._gather_positions(vertices)[0]]

    def gather_full(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`gather`, plus the owning vertex of each element and
        its absolute position inside ``indices``."""
        positions, counts = self._gather_positions(vertices)
        owners = np.repeat(np.asarray(vertices, dtype=np.int64), counts)
        return self.indices[positions], owners, positions

    def _gather_positions(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), counts
        cum = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        return np.repeat(starts, counts) + within, counts

    # ------------------------------------------------------------------
    # Component-local views
    # ------------------------------------------------------------------
    def induced_local(self, members: np.ndarray) -> "CSRAdjacency":
        """CSR of ``G[members]`` relabelled to the dense id space 0..c-1.

        ``members`` must be sorted ascending and duplicate-free; local id
        ``i`` stands for global vertex ``members[i]``.  Neighbour runs stay
        sorted because filtering and the monotone relabelling both preserve
        the original run order.  When the subset is a sizable fraction of
        the graph, one full-length relabel table (-1 outside ``members``)
        answers membership and local id in a single gather; otherwise a
        binary search does both, so many-small-component callers do not
        pay O(n) per build.
        """
        members = np.asarray(members, dtype=np.int64)
        c = members.size
        if c == 0:
            return CSRAdjacency(np.zeros(1, dtype=np.int64), np.empty(0))
        neigh = self.gather(members)
        counts = self.indptr[members + 1] - self.indptr[members]
        if c * 16 >= self.n:
            relabel = np.full(self.n, -1, dtype=self.indices.dtype)
            relabel[members] = np.arange(c, dtype=self.indices.dtype)
            local_of = relabel[neigh]
            inside = local_of >= 0
        else:
            local_of = np.searchsorted(members, neigh)
            # Out-of-range probes cannot match members[0].
            local_of[local_of == c] = 0
            inside = members[local_of] == neigh
        owners = np.repeat(np.arange(c, dtype=np.int64), counts)[inside]
        local_degrees = np.bincount(owners, minlength=c)
        indptr = np.zeros(c + 1, dtype=np.int64)
        np.cumsum(local_degrees, out=indptr[1:])
        return CSRAdjacency(indptr, local_of[inside])

    def components_of_mask(self, mask: np.ndarray) -> list[np.ndarray]:
        """Connected components among the vertices with ``mask`` set.

        Components are emitted in order of their smallest member and each
        is a sorted int64 id array — the same contract as the set-adjacency
        BFS of :func:`repro.graphs.components.components_bfs`, so solver
        outputs do not depend on which branch split a subset.
        ``mask`` is not modified.  The BFS itself runs in the kernel tier
        (:func:`repro.kernels.components_of_mask`).
        """
        return kernels.components_of_mask(self.indptr, self.indices, mask)

    # ------------------------------------------------------------------
    # Subset kernels
    # ------------------------------------------------------------------
    def subset_degrees(
        self, mask: np.ndarray, members: np.ndarray | None = None
    ) -> np.ndarray:
        """Induced degree of every vertex under boolean ``mask``.

        Returns a full-length int64 array (zero outside the mask).
        """
        if members is None:
            members = np.flatnonzero(mask)
        neigh, owners, __ = self.gather_full(members)
        inside = owners[mask[neigh]]
        return np.bincount(inside, minlength=mask.size).astype(np.int64, copy=False)

    def peel_to_kcore(
        self, mask: np.ndarray, k: int, degrees: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Peel ``mask`` (in place) to the maximal sub-k-core.

        Delete every masked vertex with induced degree < k, cascade the
        degree decrements, repeat until the fixpoint — the loop itself is
        :func:`repro.kernels.peel_to_kcore`.  Returns ``(mask, degrees)``;
        ``degrees`` is exact for surviving vertices (stale entries may
        remain for deleted ones).
        """
        if degrees is None:
            degrees = self.subset_degrees(mask)
        kernels.peel_to_kcore(self.indptr, self.indices, mask, k, degrees)
        return mask, degrees
