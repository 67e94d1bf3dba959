"""The immutable weighted undirected graph at the bottom of everything.

Design notes
------------
Vertices are dense integers ``0..n-1``; an optional ``labels`` list carries
external names (used by the Aminer case study to show researcher names).
Weights live in a numpy float64 array.  Topology is held in **two
representations** over the same edge set:

* **set adjacency** (``self.adjacency``) — a list of Python sets, the
  primary storage.  O(1) membership tests and per-vertex set intersections
  make it the right substrate for the *incremental* paths: BFS/component
  queries restricted to shrinking alive-sets, the small-subset branches
  of the subset kernels, and the reference implementations in
  :mod:`repro.reference`.
* **CSR arrays** (``self.csr``) — flat ``indptr``/``indices`` arrays
  (:class:`repro.graphs.csr.CSRAdjacency`; indices int32 on any graph an
  int32 can index), built lazily on first access and cached for the
  graph's lifetime.  The *bulk* kernels run here at numpy speed:
  :func:`repro.core.decomposition.core_decomposition` (frontier bucket
  peeling), :func:`repro.core.kcore.kcore_of_subset` (mask peeling),
  triangle/support counting in :mod:`repro.truss.decomposition`, the
  min/max community forest (:mod:`repro.influential.minmax_solvers`),
  and the candidate expansion of Algorithms 1/2
  (:mod:`repro.influential.expansion_csr`).

Derived graphs (:meth:`with_weights`, :meth:`with_labels`, and induced
subgraphs built by :func:`repro.graphs.views.induced_subgraph`) share or
precompute the CSR cache so the flattening cost is paid once per topology.

Instances are frozen after construction (builders and generators are the
only producers); algorithms that need mutation keep their own alive
masks and degree arrays instead, so one immutable graph can serve many
concurrent searches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError, VertexError, WeightError
from repro.graphs.csr import CSRAdjacency
from repro.graphs.lazy import LazyAdjacency


class Graph:
    """Undirected vertex-weighted graph (paper Section II, Table II).

    Not meant to be constructed directly in user code — use
    :class:`repro.graphs.GraphBuilder` or a generator.  The constructor
    validates but does not copy ``adjacency`` (builders hand over ownership).
    """

    __slots__ = ("_adj", "_weights", "_m", "_labels", "_csr")

    def __init__(
        self,
        adjacency: list[set[int]],
        weights: np.ndarray | Sequence[float] | None = None,
        labels: Sequence[str] | None = None,
        _trusted: bool = False,
    ) -> None:
        n = len(adjacency)
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
            self._validate_adjacency(adjacency)
        self._adj = adjacency
        self._weights = weights
        weights.setflags(write=False)
        if isinstance(adjacency, LazyAdjacency):
            # Substrate-attached graph: the edge count comes from the CSR
            # arrays directly, without materialising any neighbour set.
            self._m = adjacency.edge_count
        else:
            self._m = sum(len(neigh) for neigh in adjacency) // 2
        self._csr = None
        if labels is not None:
            if len(labels) != n:
                raise GraphError(f"{len(labels)} labels for {n} vertices")
            self._labels = list(labels)
        else:
            self._labels = None

    @staticmethod
    def _validate_adjacency(adjacency: list[set[int]]) -> None:
        n = len(adjacency)
        for u, neigh in enumerate(adjacency):
            for v in neigh:
                if not 0 <= v < n:
                    raise VertexError(v, n)
                if v == u:
                    raise GraphError(f"self-loop at vertex {u}")
                if u not in adjacency[v]:
                    raise GraphError(f"edge ({u}, {v}) is not symmetric")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

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
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``{u, v}`` is an edge."""
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self._adj[u]

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once, as (u, v) with u < v."""
        for u, neigh in enumerate(self._adj):
            for v in neigh:
                if u < v:
                    yield u, v

    @property
    def adjacency(self) -> list[set[int]]:
        """The raw adjacency list.

        Exposed for performance-critical internal code (peelers, BFS); the
        sets must be treated as read-only.
        """
        return self._adj

    @property
    def csr(self) -> CSRAdjacency:
        """The CSR representation: flat ``indptr``/``indices`` arrays.

        Built lazily on first access (one O(m log m) lexsort flattening)
        and cached for the graph's lifetime; derived graphs share the
        cache, so a topology pays the build exactly once.
        """
        if self._csr is None:
            self._csr = CSRAdjacency.from_adjacency(self._adj)
        return self._csr

    @property
    def has_csr(self) -> bool:
        """True if the CSR arrays have already been materialised."""
        return self._csr is not None

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int64 array."""
        if self._csr is not None:
            return self._csr.degrees()
        return np.fromiter(
            (len(neigh) for neigh in self._adj), dtype=np.int64, count=self.n
        )

    @property
    def max_degree(self) -> int:
        """``dmax`` as reported in the paper's Table III."""
        if self.n == 0:
            return 0
        if self._csr is not None:
            # Also the lazy-adjacency path: substrate-attached graphs always
            # carry a seeded CSR, so no neighbour set is materialised here.
            return int(self._csr.degrees().max())
        return max(len(neigh) for neigh in self._adj)

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
        derived = Graph(self._adj, weights, labels=self._labels, _trusted=True)
        derived._csr = self._csr  # same topology: share the CSR cache
        return derived

    def with_labels(self, labels: Sequence[str]) -> "Graph":
        """A graph with identical topology/weights but new labels."""
        derived = Graph(self._adj, self._weights, labels=labels, _trusted=True)
        derived._csr = self._csr
        return derived
