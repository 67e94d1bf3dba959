"""Compressed-sparse-row adjacency: the one topology store of a graph.

A :class:`CSRAdjacency` holds the edge set of a
:class:`repro.graphs.graph.Graph` in two flat arrays — ``indptr``
(length ``n + 1``, int64) and ``indices`` (length ``2m``, int32 when
every vertex id fits, neighbours of vertex ``v`` at
``indices[indptr[v]:indptr[v + 1]]``, sorted ascending).  The peeling
kernels in :mod:`repro.core` and :mod:`repro.truss` run over these flat
arrays with bincount/frontier operations instead of per-vertex Python
set intersections, which is where the order-of-magnitude speedups come
from (the experiment grid's ``reference`` tier times the set engine
against them).

:func:`check_csr` is the one structural validation of untrusted arrays
(vertex range, self-loops, sorted duplicate-free runs, symmetry).

The class also hosts the vectorised primitives every kernel needs:

* :meth:`gather` / :meth:`gather_full` — concatenate the neighbour runs of
  a frontier array in one shot (the repeat/arange offset trick);
* :meth:`subset_degrees` / :meth:`peel_to_kcore` /
  :meth:`components_of_mask` — induced degrees of a boolean vertex mask,
  the fixpoint "delete while min degree < k" peel, and the masked
  component split; :func:`repro.core.kcore.kcore_of_subset` and
  :func:`repro.influential.minmax_solvers.community_forest` peel here.

The peel and component-split hot loops themselves live in
:mod:`repro.kernels`; the methods here are thin flat-array adapters
around those kernels.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro import kernels
from repro.errors import GraphError, VertexError
from repro.kernels import decrement_degrees

__all__ = ["CSRAdjacency", "check_csr", "decrement_degrees", "membership_mask"]


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


def arc_keys(owners, targets, n: int) -> np.ndarray:
    """The int64 key ``u * n + v`` of each arc ``(owners[i], targets[i])``:
    a valid CSR's keys ascend strictly, and ``np.divmod(keys, n)`` inverts
    them.  ``targets`` may be any integer dtype, checked to lie in [0, n)."""
    keys = np.asarray(owners, dtype=np.int64) * n
    np.add(keys, targets, out=keys, casting="unsafe")
    return keys


def check_csr(indptr, indices, symmetric: bool = True) -> None:
    """Raise unless ``(indptr, indices)`` is a valid undirected CSR adjacency.

    One vectorised pass over the raw arrays (before any dtype narrowing,
    so an id past int32 cannot wrap into range): shapes, vertex id range,
    strictly ascending neighbour runs (which also rules out duplicates),
    and — unless ``symmetric=False`` — no self-loops and symmetry: the
    sorted arc keys ``u * n + v`` must equal the sorted reversed keys
    ``v * n + u``.  O(m log m) with the symmetry sort, O(m) without it;
    arrays a trusted producer vouches for skip only the symmetry part,
    because every kernel indexes by them.
    """
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    if indptr.ndim != 1 or indptr.size < 1:
        raise GraphError("indptr must be a 1-D array of length n + 1")
    n = int(indptr.size - 1)
    if indices.ndim != 1 or int(indptr[-1]) != indices.size:
        raise GraphError(
            f"indices length {indices.size} does not match indptr[-1]="
            f"{int(indptr[-1])}"
        )
    counts = np.diff(indptr.astype(np.int64))
    if int(indptr[0]) != 0 or np.any(counts < 0):
        raise GraphError("indptr must start at 0 and never decrease")
    if indices.size == 0:
        return
    if indices.dtype.kind not in "iu":
        raise GraphError(f"indices must be integers, got {indices.dtype}")
    lo, hi = int(indices.min()), int(indices.max())
    if lo < 0:
        raise VertexError(lo, n)
    if hi >= n:
        raise VertexError(hi, n)
    # Owners never decrease and ids are < n, so the arc keys ascend
    # strictly exactly when every neighbour run does.
    keys = arc_keys(np.repeat(np.arange(n, dtype=np.int64), counts), indices, n)
    if np.any(keys[1:] <= keys[:-1]):
        raise GraphError("neighbour runs must ascend strictly (sorted, no repeats)")
    if not symmetric:
        return
    owners, cols = np.divmod(keys, n)
    loops = np.flatnonzero(owners == cols)
    if loops.size:
        raise GraphError(f"self-loop at vertex {int(owners[loops[0]])}")
    reverse = np.sort(arc_keys(cols, owners, n))
    if not np.array_equal(keys, reverse):
        lonely = keys[~np.isin(keys, reverse)][0]
        u, v = divmod(int(lonely), n)
        raise GraphError(f"edge ({u}, {v}) is not symmetric")


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

        Each neighbour set is sorted in turn and streamed straight into
        the final ``indices`` array, so the only temporary beyond the
        result is one vertex's sorted run.
        """
        n = len(adjacency)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, adjacency), np.int64, n), out=indptr[1:])
        runs = chain.from_iterable(map(sorted, adjacency))
        return cls(indptr, np.fromiter(runs, cls._index_dtype(n), int(indptr[-1])))

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

    def owners(self) -> np.ndarray:
        """The owning vertex of every entry of ``indices`` (int64), so
        ``(owners(), indices)`` lists every arc as parallel arrays."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())

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
