"""Scoped cache invalidation for live edge updates.

:class:`~repro.serving.service.QueryService` used to answer any topology
change with ``replace_graph`` — a full reset of the engine pool, the
result cache and the truss decomposition, even for one inserted edge.
This module is the surgical alternative: it threads a
:class:`~repro.graphs.delta.GraphDelta` batch through the serving state
and drops **only what the batch can actually have changed**.

The scoping rests on the locality bound the delta reports
(:attr:`~repro.graphs.delta.DeltaReport.max_affected_core`, "kbar"):

* any degree constraint ``k > kbar`` has an *identical* maximal k-core
  (same vertices, same induced edges) before and after the batch, so the
  engine pool's per-k seed state and every cached result at such a k
  survive untouched;
* per-k seed state at ``k <= kbar`` is dropped (component partitions can
  merge/split there) and lazily rebuilt from the repaired core numbers;
* a pooled :class:`~repro.influential.expansion_csr.ComponentStructure`
  is a pure function of the topology *induced on its members*, so an LRU
  entry is dropped only when some applied edge has **both** endpoints
  inside its member set — structures for untouched communities survive
  even at affected ks;
* cached results for ``cohesion="truss"`` queries are all dropped (the
  truss lattice has no equally tight locality bound), and cached truss
  numbers are evicted only for the connected components containing a
  touched vertex, then recomputed lazily — per affected component, on
  the next truss query — because truss numbers never cross a component
  boundary.

Weight updates are untouched by all of this: they keep going through
:meth:`~repro.serving.service.QueryService.update_weights`, which
preserves every topology-derived cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRAdjacency
from repro.graphs.delta import DeltaReport
from repro.graphs.graph import Graph

__all__ = [
    "UpdateReport",
    "component_mask",
    "evict_truss_entries",
    "refresh_truss_numbers",
    "structure_survives",
]


@dataclass
class UpdateReport:
    """What one served edge-update batch changed (JSON-ready summary)."""

    delta: DeltaReport
    structures_dropped: int = 0
    truss_entries_dropped: int = 0
    results_dropped: int = 0

    def summary(self) -> dict[str, object]:
        """The payload served by ``POST /v1/update-edges`` and the CLI."""
        delta = self.delta
        return {
            "inserted": len(delta.inserted),
            "deleted": len(delta.deleted),
            "n": delta.graph.n,
            "m": delta.graph.m,
            "touched": int(delta.touched.size),
            "cores_changed": delta.cores_changed,
            "max_affected_core": delta.max_affected_core,
            "strategy": delta.strategy,
            "structures_dropped": self.structures_dropped,
            "truss_entries_dropped": self.truss_entries_dropped,
            "results_dropped": self.results_dropped,
        }


def component_mask(csr: CSRAdjacency, seeds: np.ndarray) -> np.ndarray:
    """Boolean mask of every vertex connected to any seed vertex.

    One vectorised frontier BFS over the CSR — the helper the truss
    eviction uses to turn "touched vertices" into "affected components".
    """
    mask = np.zeros(csr.n, dtype=bool)
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    if frontier.size == 0:
        return mask
    mask[frontier] = True
    while frontier.size:
        neigh = csr.gather(frontier)
        neigh = neigh[~mask[neigh]]
        if neigh.size == 0:
            break
        mask[neigh] = True
        frontier = np.unique(neigh)
    return mask


def structure_survives(
    members: np.ndarray, edges: tuple[tuple[int, int], ...]
) -> bool:
    """True when no applied edge lies inside ``members`` (sorted ids).

    A cached component structure only encodes the topology induced on its
    member set, so an edge with at most one endpoint inside leaves every
    cached array (local CSR, degrees, cascade predicate, spanning tree and
    the articulation mask read off it) valid.
    """
    for u, v in edges:
        lo = int(np.searchsorted(members, u))
        if lo < members.size and members[lo] == u:
            hi = int(np.searchsorted(members, v))
            if hi < members.size and members[hi] == v:
                return False
    return True


def evict_truss_entries(
    truss_numbers: dict[tuple[int, int], int], affected: np.ndarray
) -> tuple[dict[tuple[int, int], int], int]:
    """Drop cached truss numbers inside affected components.

    ``affected`` is a boolean vertex mask (see :func:`component_mask`).
    Truss numbers are triangle-derived and triangles never span
    components, so entries fully outside the mask stay exact.  Returns
    the surviving dict and how many entries were evicted.
    """
    kept = {
        edge: t
        for edge, t in truss_numbers.items()
        if not (affected[edge[0]] or affected[edge[1]])
    }
    return kept, len(truss_numbers) - len(kept)


def refresh_truss_numbers(
    graph: Graph,
    truss_numbers: dict[tuple[int, int], int],
    pending: np.ndarray,
) -> dict[tuple[int, int], int]:
    """Recompute truss numbers for the pending components and merge.

    ``pending`` is a vertex mask closed under connectivity (a union of
    whole components of ``graph``).  The recomputation runs on a same-n
    graph whose adjacency keeps only the pending components — vertex ids
    are unchanged, so the freshly peeled edge keys merge straight into
    the surviving dict.
    """
    from repro.truss.decomposition import truss_decomposition

    adjacency = [
        graph.adjacency[v] if pending[v] else set() for v in range(graph.n)
    ]
    induced = Graph(adjacency, graph.weights, _trusted=True)
    merged = dict(truss_numbers)
    merged.update(truss_decomposition(induced))
    return merged
