"""The immutable weighted undirected graph at the bottom of everything.

Design notes
------------
Vertices are dense integers ``0..n-1``; an optional ``labels`` list carries
external names (used by the Aminer case study to show researcher names).
Weights live in a numpy float64 array.  Topology is stored **once**, as
CSR arrays (``self.csr``: :class:`repro.graphs.csr.CSRAdjacency`, flat
``indptr``/``indices`` with sorted neighbour runs, indices int32 on any
graph an int32 can index).  Every bulk kernel runs there at numpy speed:
:func:`repro.core.decomposition.core_decomposition` (frontier bucket
peeling), :func:`repro.core.kcore.kcore_of_subset` (mask peeling),
triangle/support counting in :mod:`repro.truss.decomposition`, the
min/max community forest (:mod:`repro.influential.minmax_solvers`), and
the candidate expansion of Algorithms 1/2
(:mod:`repro.influential.expansion_csr`).

``self.adjacency`` is a read-only list-of-sets *view* of those arrays
(:class:`repro.graphs.lazy.LazyAdjacency`): a vertex's neighbour set is
built on first access and cached.  O(1) membership tests and per-vertex
set intersections serve the incremental paths — BFS/component queries
restricted to shrinking alive-sets, the small-subset branches of the
subset kernels, and the reference implementations in
:mod:`repro.reference` — and a graph that only runs CSR kernels builds
no set at all.  Derived graphs (:meth:`with_weights`,
:meth:`with_labels`) share both the arrays and the view.

Instances are frozen after construction (builders and generators are the
only producers); algorithms that need mutation keep their own alive
masks and degree arrays instead, so one immutable graph can serve many
concurrent searches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError, VertexError, WeightError
from repro.graphs.csr import CSRAdjacency, check_csr
from repro.graphs.lazy import LazyAdjacency


class Graph:
    """Undirected vertex-weighted graph (paper Section II, Table II).

    Not meant to be constructed directly in user code — use
    :class:`repro.graphs.GraphBuilder`, a generator, or
    :func:`repro.graphs.builder.graph_from_csr_arrays`.  The constructor
    validates ``csr`` (unless ``_trusted``) but does not copy it.
    """

    __slots__ = ("_csr", "_adj", "_n", "_m", "_weights", "_labels")

    def __init__(
        self,
        csr: CSRAdjacency,
        weights: np.ndarray | Sequence[float] | None = None,
        labels: Sequence[str] | None = None,
        _trusted: bool = False,
    ) -> None:
        if not isinstance(csr, CSRAdjacency):
            raise TypeError(
                f"Graph takes a CSRAdjacency, got {type(csr).__name__}"
            )
        n = csr.n
        if weights is None:
            weights = np.zeros(n, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise WeightError(
                f"weights shape {weights.shape} does not match {n} vertices"
            )
        if n and (not np.all(np.isfinite(weights)) or weights.min() < 0):
            raise WeightError("vertex weights must be finite and non-negative")
        if not _trusted:
            check_csr(csr.indptr, csr.indices)
        self._csr = csr
        self._adj = LazyAdjacency(csr.indptr, csr.indices)
        self._n = n
        self._m = csr.m
        self._weights = weights
        weights.setflags(write=False)
        if labels is not None:
            if len(labels) != n:
                raise GraphError(f"{len(labels)} labels for {n} vertices")
            self._labels = list(labels)
        else:
            self._labels = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._m

    @property
    def weights(self) -> np.ndarray:
        """Read-only weight array, indexed by vertex id."""
        return self._weights

    @property
    def labels(self) -> list[str] | None:
        """External vertex names, if the graph carries any."""
        return self._labels

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def check_vertex(self, v: int) -> None:
        """Raise :class:`VertexError` unless ``v`` is a valid vertex id."""
        if not 0 <= v < self.n:
            raise VertexError(v, self.n)

    def label_of(self, v: int) -> str:
        """The display name of ``v`` (falls back to ``v{id}``)."""
        self.check_vertex(v)
        if self._labels is not None:
            return self._labels[v]
        return f"v{v}"

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> set[int]:
        """``N(v, G)``: the neighbour set of ``v``.  Do not mutate."""
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """``d(v, G)``: degree of ``v`` in the full graph."""
        self.check_vertex(v)
        indptr = self._csr.indptr
        return int(indptr[v + 1] - indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``{u, v}`` is an edge."""
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self._adj[u]

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once, as (u, v) with u < v, in
        ascending ``(u, v)`` order."""
        owners, indices = self._csr.owners(), self._csr.indices
        upper = np.flatnonzero(owners < indices)
        for start in range(0, upper.size, 4096):  # bounded Python lists
            chunk = upper[start : start + 4096]
            yield from zip(owners[chunk].tolist(), indices[chunk].tolist())

    @property
    def adjacency(self) -> LazyAdjacency:
        """Read-only list-of-sets view: ``adjacency[v]`` is ``N(v, G)``.

        Exposed for the set-based internal code (peelers, BFS); each set
        is built from the CSR on first access, cached, and must not be
        mutated.
        """
        return self._adj

    @property
    def csr(self) -> CSRAdjacency:
        """The CSR arrays: the graph's topology, flat ``indptr``/``indices``."""
        return self._csr

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int64 array."""
        return self._csr.degrees()

    @property
    def max_degree(self) -> int:
        """``dmax`` as reported in the paper's Table III."""
        if self.n == 0:
            return 0
        return int(self._csr.degrees().max())

    @property
    def avg_degree(self) -> float:
        """``davg = 2m/n`` as reported in the paper's Table III."""
        if self.n == 0:
            return 0.0
        return 2.0 * self.m / self.n

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def weight(self, v: int) -> float:
        """``w(v)``: weight of a single vertex."""
        self.check_vertex(v)
        return float(self._weights[v])

    @property
    def total_weight(self) -> float:
        """``w(V)``: sum of all vertex weights (balanced density needs it)."""
        return float(self._weights.sum())

    def weight_of(self, vertices: Iterable[int]) -> float:
        """``w(H)``: total weight of a vertex subset."""
        weights = self._weights
        return float(sum(weights[v] for v in vertices))

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_weights(self, weights: np.ndarray | Sequence[float]) -> "Graph":
        """A graph with identical topology but new vertex weights."""
        return self._derive(weights, self._labels)

    def with_labels(self, labels: Sequence[str]) -> "Graph":
        """A graph with identical topology/weights but new labels."""
        return self._derive(self._weights, labels)

    def _derive(self, weights, labels) -> "Graph":
        derived = Graph(self._csr, weights, labels=labels, _trusted=True)
        derived._adj = self._adj  # same topology: share the neighbour sets
        return derived
