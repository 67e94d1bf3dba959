"""Incremental edge updates: patch a live CSR instead of rebuilding it.

The solvers treat :class:`~repro.graphs.graph.Graph` as immutable, and
until now the serving layer honoured that by *replacing* the graph on any
topology change — re-flattening the CSR (an O(m log m) lexsort plus a
Python pass over every adjacency set) and re-peeling the full core
decomposition for a single inserted edge.  :class:`GraphDelta` keeps the
immutability contract (every ``apply`` returns a *new* ``Graph``) while
paying only for what actually changed:

* **CSR patching** — each edge update is two tombstoned positions (a
  deletion) or two appended entries (an insertion) against the flat
  ``indices`` array; a batch is compacted into fresh arrays by one
  vectorised ``np.delete``/``np.insert`` memcpy per edge instead of the
  Python flattening.  ``indptr`` is repaired with two slice increments.
  The CSR is the graph's only topology store, so there is nothing else
  to patch: the new graph's neighbour-set view reads the patched arrays.
* **Incremental core repair** — the classic locality bound for single
  edge updates (Li, Yu & Mao, TKDE 2014; Sariyüce et al., VLDB 2013):
  inserting or deleting ``{u, v}`` can only change core numbers of
  vertices with core number ``k = min(core(u), core(v))``, and by at
  most one.  So instead of re-peeling the graph, each edge re-peels the
  touched endpoints' k-core subgraph — the mask ``cores >= k`` — to the
  ``(k+1)``-core (insertion) or the ``k``-core (deletion); exactly the
  level-``k`` vertices that enter (or drop out of) that core move to
  ``k + 1`` (or ``k - 1``).  Survivor sets are *exact*: the new
  ``(k+1)``-core is contained in ``{cores >= k}``, so the bounded peel
  computes the true new core, not an approximation.
* **Large batches fall back** — ``batch_threshold`` caps how many
  sequential single-edge repairs are worth it; past it the delta patches
  the adjacency in one pass and recomputes the decomposition with the
  ordinary bulk kernel, which is what the repair loop would asymptote to
  anyway.

A batch is **one atomic step**: validation (shape, range, self-loops,
in-batch duplicates, inserting an existing edge, deleting a missing one)
happens before any state is touched, so a rejected batch leaves the
delta — and every graph it previously produced — exactly as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.decomposition import core_decomposition
from repro.errors import GraphError, VertexError
from repro.graphs.csr import CSRAdjacency, arc_keys
from repro.graphs.graph import Graph

__all__ = ["DeltaReport", "GraphDelta", "normalize_edge_updates"]

#: Past this many edge updates in one batch, the incremental per-edge
#: repair loop (O(edits * m) array traffic) loses to one bulk recompute.
DEFAULT_BATCH_THRESHOLD = 64


def _as_vertex(value: object, n: int) -> int:
    """Coerce one endpoint to a valid vertex id (bools are not vertices)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GraphError(
            f"edge endpoints must be integers, got {value!r} "
            f"({type(value).__name__})"
        )
    vertex = int(value)
    if not 0 <= vertex < n:
        raise VertexError(vertex, n)
    return vertex


def normalize_edge_updates(
    edges: Iterable[object], n: int, label: str
) -> list[tuple[int, int]]:
    """Validate an edge list into canonical ``(u, v)`` pairs with u < v.

    Raises :class:`~repro.errors.GraphError` on anything that is not a
    duplicate-free list of in-range, non-self-loop vertex pairs; ``label``
    names the offending list ("insert"/"delete") in the message.
    """
    if isinstance(edges, (str, bytes)):
        raise GraphError(f"{label} edges must be a list of (u, v) pairs")
    normalized: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for entry in edges:
        if not isinstance(entry, Sequence) or len(entry) != 2:
            raise GraphError(
                f"{label} edge {entry!r} is not a (u, v) pair"
            )
        u, v = (_as_vertex(value, n) for value in entry)
        if u == v:
            raise GraphError(f"{label} edge ({u}, {v}) is a self-loop")
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise GraphError(
                f"{label} edge {edge} appears more than once in the batch"
            )
        seen.add(edge)
        normalized.append(edge)
    return normalized


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`GraphDelta.apply` batch did.

    ``touched`` is the invalidation scope: every endpoint of an applied
    edge plus every vertex whose core number changed.  ``max_affected_core``
    is the highest level k whose maximal k-core subgraph may differ from
    the pre-update graph — any k above it has an identical k-core (same
    vertices, same induced edges), which is what lets serving caches keep
    their entries for unaffected degree constraints.  The bound is tight
    per contribution: an inserted edge is induced in k-cores only up to
    the *smaller* of its endpoints' (new) core numbers — so attaching a
    low-core vertex to a high-core hub affects only the low levels, not
    everything up to the hub's core.
    """

    graph: Graph
    core_numbers: np.ndarray
    inserted: tuple[tuple[int, int], ...]
    deleted: tuple[tuple[int, int], ...]
    touched: np.ndarray
    cores_changed: int
    max_affected_core: int
    strategy: str = field(default="incremental")

    @property
    def edges_applied(self) -> int:
        """Total edge updates in the batch."""
        return len(self.inserted) + len(self.deleted)


class GraphDelta:
    """Apply batches of edge insertions/deletions to a live graph.

    Usage::

        delta = GraphDelta(graph, core_numbers=cores)   # cores optional
        report = delta.apply(insert=[(0, 5)], delete=[(2, 3)])
        report.graph          # new Graph, CSR already patched
        report.core_numbers   # repaired, == core_decomposition(new graph)

    The delta is reusable: after ``apply`` it tracks the updated graph,
    so successive batches stack.  ``graph``/``core_numbers`` always
    expose the current state.
    """

    def __init__(
        self,
        graph: Graph,
        core_numbers: np.ndarray | None = None,
        batch_threshold: int = DEFAULT_BATCH_THRESHOLD,
    ) -> None:
        if batch_threshold < 1:
            raise GraphError(
                f"batch_threshold must be >= 1, got {batch_threshold}"
            )
        if core_numbers is not None and core_numbers.shape != (graph.n,):
            raise GraphError(
                f"core_numbers shape {core_numbers.shape} does not match "
                f"{graph.n} vertices"
            )
        self._graph = graph
        self._batch_threshold = batch_threshold
        self._cores = core_numbers
        self.batches_applied = 0
        self.edges_applied = 0

    @property
    def graph(self) -> Graph:
        """The current (post-delta) graph."""
        return self._graph

    @property
    def core_numbers(self) -> np.ndarray:
        """Core numbers of the current graph (computed once if not seeded)."""
        if self._cores is None:
            self._cores = core_decomposition(self._graph)
        return self._cores

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def validate(
        graph: Graph,
        insert: Iterable[object] = (),
        delete: Iterable[object] = (),
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Check one batch against ``graph`` without applying anything.

        Returns the normalized ``(inserts, deletes)`` pairs, or raises
        :class:`~repro.errors.GraphError` /
        :class:`~repro.errors.VertexError` for malformed pairs, self
        loops, out-of-range vertices, in-batch duplicates, an empty
        batch, inserting an edge that already exists, or deleting one
        that does not.  The HTTP front end calls this up front so a bad
        request costs a 400 and nothing else (no epoch bump, no worker
        pool teardown).
        """
        inserts = normalize_edge_updates(insert, graph.n, "insert")
        deletes = normalize_edge_updates(delete, graph.n, "delete")
        if not inserts and not deletes:
            raise GraphError(
                "edge update batch is empty (nothing to insert or delete)"
            )
        overlap = set(inserts) & set(deletes)
        if overlap:
            raise GraphError(
                f"edge {sorted(overlap)[0]} appears in both insert and delete"
            )
        for u, v in inserts:
            if graph.has_edge(u, v):
                raise GraphError(f"insert edge ({u}, {v}) already exists")
        for u, v in deletes:
            if not graph.has_edge(u, v):
                raise GraphError(f"delete edge ({u}, {v}) does not exist")
        return inserts, deletes

    # ------------------------------------------------------------------
    # Batch application
    # ------------------------------------------------------------------
    def apply(
        self,
        insert: Iterable[object] = (),
        delete: Iterable[object] = (),
    ) -> DeltaReport:
        """Apply one atomic batch; returns the :class:`DeltaReport`.

        Validation runs completely before any mutation, so a raised
        :class:`~repro.errors.GraphError` leaves the delta untouched.
        An entirely empty batch is rejected — callers that reached this
        far with nothing to do almost certainly built their edge lists
        wrong, and the serving layer must not pay an epoch bump for it.
        """
        inserts, deletes = self.validate(self._graph, insert, delete)
        old_cores = self.core_numbers
        if len(inserts) + len(deletes) > self._batch_threshold:
            report = self._apply_recompute(inserts, deletes, old_cores)
        else:
            report = self._apply_incremental(inserts, deletes, old_cores)
        self._graph = report.graph
        self._cores = report.core_numbers
        self.batches_applied += 1
        self.edges_applied += report.edges_applied
        return report

    # ------------------------------------------------------------------
    # Incremental path (CSR patch + bounded re-peel)
    # ------------------------------------------------------------------
    def _apply_incremental(
        self,
        inserts: list[tuple[int, int]],
        deletes: list[tuple[int, int]],
        old_cores: np.ndarray,
    ) -> DeltaReport:
        graph = self._graph
        csr = graph.csr
        indptr = csr.indptr.copy()
        indices = csr.indices.copy()
        cores = old_cores.copy()
        changed = np.zeros(graph.n, dtype=bool)

        # Deletions first, then insertions; each edge is one exact step
        # (patch the CSR, then repair cores against it), so the repair
        # always sees the true intermediate graph.
        for u, v in deletes:
            indptr, indices = _delete_edge_csr(indptr, indices, u, v)
            self._repair_delete(
                CSRAdjacency(indptr, indices), cores, changed, u, v
            )
        for u, v in inserts:
            indptr, indices = _insert_edge_csr(indptr, indices, u, v)
            self._repair_insert(
                CSRAdjacency(indptr, indices), cores, changed, u, v
            )

        new_graph = Graph(
            CSRAdjacency(indptr, indices),
            graph.weights,
            labels=graph.labels,
            _trusted=True,
        )
        return self._report(
            new_graph, old_cores, cores, changed, inserts, deletes,
            strategy="incremental",
        )

    @staticmethod
    def _repair_insert(
        csr: CSRAdjacency,
        cores: np.ndarray,
        changed: np.ndarray,
        u: int,
        v: int,
    ) -> None:
        """Exact core repair after inserting ``{u, v}`` (already in csr).

        Only vertices at level ``k = min(core(u), core(v))`` can rise, and
        the new ``(k+1)``-core is contained in ``{cores >= k}`` (insertion
        raises core numbers by at most one, and only at level k), so
        peeling that mask to the ``(k+1)``-core finds exactly the risers.
        """
        k = int(min(cores[u], cores[v]))
        mask = cores >= k
        csr.peel_to_kcore(mask, k + 1)
        rose = np.flatnonzero(mask & (cores == k))
        if rose.size:
            cores[rose] = k + 1
            changed[rose] = True

    @staticmethod
    def _repair_delete(
        csr: CSRAdjacency,
        cores: np.ndarray,
        changed: np.ndarray,
        u: int,
        v: int,
    ) -> None:
        """Exact core repair after deleting ``{u, v}`` (already gone).

        Mirror bound: only level-k vertices can drop (by one), and the new
        k-core is still contained in ``{cores >= k}``, so the bounded peel
        to the k-core identifies exactly the vertices that fall to k - 1.
        """
        k = int(min(cores[u], cores[v]))
        mask = cores >= k
        csr.peel_to_kcore(mask, k)
        fell = np.flatnonzero(~mask & (cores >= k))
        if fell.size:
            cores[fell] = k - 1
            changed[fell] = True

    # ------------------------------------------------------------------
    # Recompute path (large batches)
    # ------------------------------------------------------------------
    def _apply_recompute(
        self,
        inserts: list[tuple[int, int]],
        deletes: list[tuple[int, int]],
        old_cores: np.ndarray,
    ) -> DeltaReport:
        graph = self._graph
        new_graph = Graph(
            _patch_arcs(graph.csr, inserts, deletes),
            graph.weights,
            labels=graph.labels,
            _trusted=True,
        )
        cores = core_decomposition(new_graph)
        changed = cores != old_cores
        return self._report(
            new_graph, old_cores, cores, changed, inserts, deletes,
            strategy="recompute",
        )

    def _report(
        self,
        new_graph: Graph,
        old_cores: np.ndarray,
        new_cores: np.ndarray,
        changed: np.ndarray,
        inserts: list[tuple[int, int]],
        deletes: list[tuple[int, int]],
        strategy: str,
    ) -> DeltaReport:
        endpoints = np.zeros(new_graph.n, dtype=bool)
        for u, v in inserts:
            endpoints[u] = endpoints[v] = True
        for u, v in deletes:
            endpoints[u] = endpoints[v] = True
        net_changed = new_cores != old_cores
        touched = np.flatnonzero(endpoints | changed | net_changed)
        # The k-core at level q differs between the old and new graph only
        # when (a) a vertex crosses the q threshold — q <= max(old, new)
        # for some *changed* vertex — or (b) an applied edge is induced in
        # the q-region: an inserted edge exists only in the new graph, so
        # only for q <= min of its endpoints' new cores (deleted edges
        # mirror with old cores).  max() of those contributions is the
        # bound; notably an edge touching a high-core hub contributes its
        # *low* endpoint's level, not the hub's.
        levels = [int(min(new_cores[u], new_cores[v])) for u, v in inserts]
        levels += [int(min(old_cores[u], old_cores[v])) for u, v in deletes]
        changed_ids = np.flatnonzero(net_changed)
        if changed_ids.size:
            levels.append(
                int(
                    np.maximum(
                        old_cores[changed_ids], new_cores[changed_ids]
                    ).max()
                )
            )
        return DeltaReport(
            graph=new_graph,
            core_numbers=new_cores,
            inserted=tuple(inserts),
            deleted=tuple(deletes),
            touched=touched,
            cores_changed=int(np.count_nonzero(net_changed)),
            max_affected_core=max(levels, default=0),
            strategy=strategy,
        )


# ----------------------------------------------------------------------
# CSR splicing (the tombstone/append compaction primitives)
# ----------------------------------------------------------------------
def _patch_arcs(
    csr: CSRAdjacency,
    inserts: list[tuple[int, int]],
    deletes: list[tuple[int, int]],
) -> CSRAdjacency:
    """A new CSR with a whole validated batch applied in one sorted pass.

    Every arc is its :func:`~repro.graphs.csr.arc_keys` key, which the CSR
    lists in ascending order, so deleting is a sorted set difference,
    inserting a sorted union, and the new ``indptr`` is the owners'
    bincount.
    """
    n = csr.n

    def both_arcs(edges: list[tuple[int, int]]) -> np.ndarray:
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        return arc_keys(np.concatenate([u, v]), np.concatenate([v, u]), n)

    keys = arc_keys(csr.owners(), csr.indices, n)
    keys = np.setdiff1d(keys, both_arcs(deletes), assume_unique=True)
    keys = np.union1d(keys, both_arcs(inserts))
    owners, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return CSRAdjacency(indptr, indices)


def _run_position(
    indptr: np.ndarray, indices: np.ndarray, owner: int, value: int
) -> int:
    """Absolute position of ``value`` (or its insertion point) in the
    sorted neighbour run of ``owner``."""
    lo, hi = int(indptr[owner]), int(indptr[owner + 1])
    return lo + int(np.searchsorted(indices[lo:hi], value))


def _insert_edge_csr(
    indptr: np.ndarray, indices: np.ndarray, u: int, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """Append ``{u, v}`` into patched copies of the CSR arrays.

    Two entries join the flat ``indices`` array at their sorted positions
    in one ``np.insert`` compaction; when both land on the same absolute
    boundary position (adjacent — possibly empty — runs), the entry
    belonging to the earlier run must be emitted first, and run order is
    owner order, hence the ``(position, owner)`` ordering.
    """
    additions = sorted(
        (
            (_run_position(indptr, indices, u, v), u, v),
            (_run_position(indptr, indices, v, u), v, u),
        )
    )
    positions = [position for position, __, __unused in additions]
    values = np.asarray(
        [value for __, __unused, value in additions], dtype=indices.dtype
    )
    indices = np.insert(indices, positions, values)
    indptr = indptr.copy()
    indptr[u + 1 :] += 1
    indptr[v + 1 :] += 1
    return indptr, indices


def _delete_edge_csr(
    indptr: np.ndarray, indices: np.ndarray, u: int, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tombstone ``{u, v}``'s two entries and compact in one pass."""
    positions = [
        _run_position(indptr, indices, u, v),
        _run_position(indptr, indices, v, u),
    ]
    indices = np.delete(indices, positions)
    indptr = indptr.copy()
    indptr[u + 1 :] -= 1
    indptr[v + 1 :] -= 1
    return indptr, indices
