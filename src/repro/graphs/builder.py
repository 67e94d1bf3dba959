"""Mutable assembly of :class:`~repro.graphs.graph.Graph` instances.

The builder tolerates duplicate edge insertions and both edge orientations,
silently ignores repeats, and rejects self-loops — matching how raw SNAP
edge lists behave (they contain both ``(u, v)`` and ``(v, u)`` lines).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError, VertexError
from repro.graphs.csr import CSRAdjacency, check_csr
from repro.graphs.graph import Graph


class GraphBuilder:
    """Accumulate vertices and edges, then ``build()`` an immutable Graph.

    >>> b = GraphBuilder(3)
    >>> b.add_edge(0, 1).add_edge(1, 2)  # doctest: +ELLIPSIS
    <repro.graphs.builder.GraphBuilder object at ...>
    >>> g = b.build()
    >>> (g.n, g.m)
    (3, 2)
    """

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._adj: list[set[int]] = [set() for __ in range(n)]
        self._weights: list[float] = [0.0] * n
        self._labels: list[str] | None = None
        self._built = False

    @property
    def n(self) -> int:
        """Number of vertices added so far."""
        return len(self._adj)

    def _check(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise VertexError(v, len(self._adj))

    def add_vertex(self, weight: float = 0.0, label: str | None = None) -> int:
        """Append a vertex; returns its id."""
        self._adj.append(set())
        self._weights.append(weight)
        if label is not None:
            if self._labels is None:
                self._labels = [f"v{i}" for i in range(len(self._adj) - 1)]
            self._labels.append(label)
        elif self._labels is not None:
            self._labels.append(f"v{len(self._adj) - 1}")
        return len(self._adj) - 1

    def ensure_vertex(self, v: int) -> "GraphBuilder":
        """Grow the vertex set so that id ``v`` exists."""
        if v < 0:
            raise VertexError(v, len(self._adj))
        while len(self._adj) <= v:
            self.add_vertex()
        return self

    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Add the undirected edge {u, v}; duplicates are ignored."""
        self._check(u)
        self._check(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        self._adj[u].add(v)
        self._adj[v].add(u)
        return self

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "GraphBuilder":
        """Add many undirected edges."""
        for u, v in edges:
            self.add_edge(u, v)
        return self

    def has_edge(self, u: int, v: int) -> bool:
        """True if {u, v} has been added."""
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        """Current neighbour set of ``v`` (a copy, safe to keep)."""
        self._check(v)
        return set(self._adj[v])

    def set_weight(self, v: int, weight: float) -> "GraphBuilder":
        """Assign ``w(v)``."""
        self._check(v)
        self._weights[v] = float(weight)
        return self

    def set_weights(self, weights: Sequence[float] | np.ndarray) -> "GraphBuilder":
        """Assign all vertex weights at once."""
        if len(weights) != len(self._adj):
            raise GraphError(
                f"{len(weights)} weights for {len(self._adj)} vertices"
            )
        self._weights = [float(w) for w in weights]
        return self

    def set_label(self, v: int, label: str) -> "GraphBuilder":
        """Assign a display name to ``v``."""
        self._check(v)
        if self._labels is None:
            self._labels = [f"v{i}" for i in range(len(self._adj))]
        self._labels[v] = label
        return self

    def build(self) -> Graph:
        """Freeze into a :class:`Graph`.  The builder must not be reused.

        The staging sets are flattened into the graph's CSR arrays once
        and dropped; the graph keeps no set of its own.
        """
        if self._built:
            raise GraphError("builder already consumed; create a new one")
        self._built = True
        csr = CSRAdjacency.from_adjacency(self._adj)
        self._adj = []
        return Graph(
            csr,
            np.asarray(self._weights, dtype=np.float64),
            labels=self._labels,
            _trusted=True,
        )


def graph_from_csr_arrays(
    indptr,
    indices,
    weights: Sequence[float] | None = None,
    labels: Sequence[str] | None = None,
    trusted: bool = False,
) -> Graph:
    """Rebuild a :class:`Graph` from flat CSR arrays.

    The inverse of flattening: snapshot loads and fleet members attaching
    a shared substrate receive ``(indptr, indices, weights)`` arrays and
    wrap them without re-parsing edge lists, re-sorting or copying
    anything (arrays already in the graph's dtypes are used as they are).

    The arrays are checked with one vectorised pass
    (:func:`repro.graphs.csr.check_csr`: shapes, id range, sorted
    duplicate-free runs, and by default self-loops and symmetry) — CSR
    payloads cross process boundaries, so they are not trusted input.
    ``trusted=True`` skips the self-loop and symmetry part (its O(m log m)
    sort); the O(m) checks every kernel relies on still run.  Reserve it
    for arrays this process produced or a manifest already vouches for —
    snapshot loads (:func:`repro.serving.store.load_snapshot`) and shared
    substrates (:mod:`repro.serving.substrate`) — never for arrays off
    the wire.
    """
    check_csr(indptr, indices, symmetric=not trusted)
    return Graph(
        CSRAdjacency(indptr, indices), weights, labels=labels, _trusted=True
    )


def graph_from_edges(
    edges: Iterable[tuple[int, int]],
    weights: Sequence[float] | None = None,
    n: int | None = None,
) -> Graph:
    """Convenience: build a graph straight from an edge iterable.

    ``n`` defaults to 1 + the largest endpoint mentioned; isolated trailing
    vertices therefore need an explicit ``n`` (or ``weights``, whose length
    wins when larger).
    """
    edge_list = [(int(u), int(v)) for u, v in edges]
    implied = 1 + max((max(u, v) for u, v in edge_list), default=-1)
    size = max(implied, n or 0, len(weights) if weights is not None else 0)
    builder = GraphBuilder(size)
    builder.add_edges(edge_list)
    if weights is not None:
        if len(weights) < size:
            raise GraphError(f"{len(weights)} weights for {size} vertices")
        builder.set_weights(weights)
    return builder.build()
