"""The kernel tier: the hottest flat-array loops, vectorised with numpy.

========================  =============================================
``peel_to_kcore``         in-place "delete while min degree < k" peel
``components_of_mask``    connected components of a masked vertex set
``core_numbers``          full core decomposition (Batagelj–Zaveršnik)
``arc_supports``          per-edge triangle counts (degree orientation)
========================  =============================================

Each kernel takes flat CSR arrays (``indptr``/``indices`` instead of a
``CSRAdjacency``).  Callers reach them as module attributes
(``kernels.peel_to_kcore(...)``), so a tracer can wrap one by patching
this module.  ``certify_connected`` (a spanning-tree proof that a masked
vertex set is still connected, in time proportional to the removed
vertices' neighbourhoods; ``False`` means "not proved") and the
``decrement_degrees`` helper live here too.

Determinism contract: every function returns exact integer/boolean
results — peel fixpoints are unique, BFS components are emitted by
smallest member as sorted arrays, supports are exact triangle counts.
The original dict/set implementations in :mod:`repro.reference` remain
the parity oracle; the property suites in ``tests/properties`` and
``tests/kernels`` hold the two in lockstep.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "arc_supports",
    "certify_connected",
    "components_of_mask",
    "core_numbers",
    "decrement_degrees",
    "kernel_backend",
    "peel_to_kcore",
]


def kernel_backend() -> str:
    """Name of the kernel implementation, for run headers: ``"numpy"``."""
    return "numpy"


def _gather(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Concatenated neighbour runs of ``vertices`` (duplicates kept)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return indices[:0]
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    return indices[np.repeat(starts, counts) + within]


def decrement_degrees(degrees: np.ndarray, neigh: np.ndarray) -> np.ndarray:
    """Subtract each occurrence in ``neigh`` from ``degrees``; return the
    distinct touched vertices.

    Hybrid strategy: a full-length bincount costs O(n) regardless of the
    frontier, so small waves (the long tail of a cascade) use duplicate-safe
    ``subtract.at`` plus a sort-based unique instead — each wave then costs
    O(x log x) in its own size only.
    """
    n = degrees.size
    if neigh.size * 16 < n:
        np.subtract.at(degrees, neigh, 1)
        return np.unique(neigh)
    counts = np.bincount(neigh, minlength=n)
    degrees -= counts
    return np.flatnonzero(counts)


def peel_to_kcore(
    indptr: np.ndarray,
    indices: np.ndarray,
    mask: np.ndarray,
    k: int,
    degrees: np.ndarray,
) -> None:
    """Peel ``mask`` (in place) to the maximal sub-k-core.

    Frontier loop: delete every masked vertex with induced degree < k,
    decrement its surviving neighbours via one bincount, repeat until the
    fixpoint.  ``degrees`` is updated in place and is exact for surviving
    vertices (stale entries may remain for deleted ones).
    """
    members = np.flatnonzero(mask)
    frontier = members[degrees[members] < k]
    while frontier.size:
        mask[frontier] = False
        neigh = _gather(indptr, indices, frontier)
        neigh = neigh[mask[neigh]]
        candidates = decrement_degrees(degrees, neigh)
        frontier = candidates[degrees[candidates] < k]


def components_of_mask(
    indptr: np.ndarray, indices: np.ndarray, mask: np.ndarray
) -> list[np.ndarray]:
    """Connected components among the vertices with ``mask`` set.

    Vectorised frontier BFS: each round gathers the neighbour runs of the
    whole frontier at once.  Components are emitted in order of their
    smallest member and each is a sorted int64 id array — the same
    contract as the set-adjacency BFS, so solver outputs do not depend on
    which path split a subset.  ``mask`` is not modified.
    """
    unvisited = mask.copy()
    # Two escape hatches keep the level-synchronous BFS from paying fixed
    # overheads per level on shapes it does not suit: narrow levels sort
    # their own neighbour multiset instead of the O(n) scratch-mask
    # collect, and a component whose frontier is *still* narrow after
    # many levels is a high-diameter chain — numpy call overhead per
    # level would make it quadratic-feeling, so the remainder drains
    # through a scalar worklist instead.
    scratch = np.zeros(mask.size, dtype=bool)
    components: list[np.ndarray] = []
    # Stop once every masked vertex is placed, rather than testing the
    # rest of the seeds in Python after the last BFS has swept them.
    remaining = int(np.count_nonzero(mask))
    for seed in np.flatnonzero(mask):
        if not remaining:
            break
        if not unvisited[seed]:
            continue
        unvisited[seed] = False
        frontier = np.asarray([seed], dtype=np.int64)
        chunks = [frontier]
        level = 0
        while frontier.size:
            level += 1
            if level >= 32 and frontier.size * 64 < mask.size:
                chunks.append(_drain_bfs(indptr, indices, frontier, unvisited))
                break
            neigh = _gather(indptr, indices, frontier)
            neigh = neigh[unvisited[neigh]]
            if neigh.size == 0:
                break
            unvisited[neigh] = False
            if neigh.size * 16 < mask.size:
                frontier = np.unique(neigh).astype(np.int64, copy=False)
            else:
                scratch[neigh] = True
                frontier = np.flatnonzero(scratch)
                scratch[frontier] = False
            chunks.append(frontier)
        if len(chunks) == 1:
            component = chunks[0]
        else:
            component = np.sort(np.concatenate(chunks))
        components.append(component)
        remaining -= component.size
    return components


def _drain_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    unvisited: np.ndarray,
) -> np.ndarray:
    """Finish a BFS one vertex at a time from an already-visited
    frontier; returns the newly reached vertices (marked visited)."""
    ip, idx = indptr, indices
    queue = frontier.tolist()
    head = 0
    found: list[int] = []
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in idx[ip[v] : ip[v + 1]].tolist():
            if unvisited[u]:
                unvisited[u] = False
                found.append(u)
                queue.append(u)
    return np.asarray(found, dtype=np.int64)


def certify_connected(
    indptr: np.ndarray,
    indices: np.ndarray,
    parent: np.ndarray,
    tin: np.ndarray,
    tout: np.ndarray,
    mask: np.ndarray,
    removed: np.ndarray,
) -> bool:
    """True only if a spanning tree proves the ``mask`` vertices connected.

    ``parent``/``tin``/``tout`` describe a spanning tree of the whole
    graph (the root is its own parent; ``tin`` is a preorder and ``tout``
    is ``tin`` plus the subtree size, so ``t``'s descendants are exactly
    the ids with ``tin[t] <= tin[y] < tout[t]``); ``removed`` lists the
    ids outside ``mask``.  Work is proportional to the removed vertices
    and their neighbourhoods, not to the graph.  Survivors whose tree
    path to the root avoids ``removed`` are connected through the root.
    Every other survivor climbs tree edges to an *orphan* — a survivor
    whose parent is removed — so the proof holds when every orphan has a
    surviving neighbour outside the subtree of every removed vertex whose
    parent survives (such a neighbour's root path avoids ``removed``).
    ``False`` means "not proved", never "disconnected": the caller falls
    back to :func:`components_of_mask`.  ``mask`` is not modified.
    """
    removed = np.asarray(removed, dtype=np.int64)
    up = parent[removed]
    if np.any(up == removed):
        return False  # the root itself was removed
    neigh = _gather(indptr, indices, removed)
    owners = np.repeat(removed, indptr[removed + 1] - indptr[removed])
    orphans = neigh[mask[neigh] & (parent[neigh] == owners)]
    if orphans.size == 0:
        return True
    # The removed subtrees form a laminar family of preorder intervals;
    # keeping the maximal ones leaves disjoint sorted intervals, which one
    # searchsorted probes.
    tops = removed[mask[up]]
    tops = tops[np.argsort(tin[tops])]
    starts, ends = tin[tops], tout[tops]
    reach = np.maximum.accumulate(ends)
    outer = np.ones(starts.size, dtype=bool)
    outer[1:] = starts[1:] >= reach[:-1]
    starts, ends = starts[outer], ends[outer]
    ys = _gather(indptr, indices, orphans)
    yowners = np.repeat(
        np.arange(orphans.size), indptr[orphans + 1] - indptr[orphans]
    )
    alive = mask[ys]
    ys, yowners = ys[alive], yowners[alive]
    tin_y = tin[ys]
    slot = np.searchsorted(starts, tin_y, side="right") - 1
    inside = (slot >= 0) & (tin_y < ends[np.maximum(slot, 0)])
    anchored = np.zeros(orphans.size, dtype=bool)
    anchored[yowners[~inside]] = True
    return bool(anchored.all())


def core_numbers(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Core number of every vertex: vectorised BZ, peeling degree waves.

    Outer loop raises the peel level k to the minimum surviving degree;
    inner loop removes the whole ``degree <= k`` frontier at once, gathers
    every surviving neighbour of the frontier in one CSR multi-slice, and
    decrements their degrees with a single bincount.  Vertices removed
    while the level is k have core number exactly k, so the result matches
    the sequential Batagelj–Zaveršnik peel.
    """
    n = indptr.size - 1
    degree = np.diff(indptr)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    sentinel = np.iinfo(np.int64).max
    remaining = n
    k = 0
    while remaining:
        level_floor = int(np.where(alive, degree, sentinel).min())
        if level_floor > k:
            k = level_floor
        frontier = np.flatnonzero(alive & (degree <= k))
        while frontier.size:
            core[frontier] = k
            alive[frontier] = False
            remaining -= frontier.size
            neigh = _gather(indptr, indices, frontier)
            neigh = neigh[alive[neigh]]
            candidates = decrement_degrees(degree, neigh)
            frontier = candidates[degree[candidates] <= k]
    return core


def arc_supports(fptr: np.ndarray, fdst: np.ndarray) -> np.ndarray:
    """Triangle count of every forward arc of a degree-oriented DAG.

    ``fptr``/``fdst`` are the CSR of the forward orientation (every edge
    oriented from lower to higher (degree, id) rank; runs sorted by
    target), so arc ``i`` is ``(src_of(i), fdst[i])`` and each undirected
    edge appears exactly once.  For each arc (u, v), scan the *smaller*
    of forward(u)/forward(v): candidate w closes a triangle iff the
    remaining pair is also a forward arc.  A triangle with ranks a < b <
    c is found only at its (a, b) arc — the completing test from any
    other arc would need a backward arc — so each triangle counts exactly
    once whichever side is scanned, incrementing all three of its arcs.
    Arc blocks of bounded size gather their (arc, w) candidate pairs, one
    searchsorted tests them, and one bincount accumulates the per-arc
    triangle counts; total work is ``sum min(|forward(u)|,
    |forward(v)|)``, the classic O(m^1.5) bound, and peak memory is
    capped per block.
    """
    n = fptr.size - 1
    arcs = fdst.size
    support = np.zeros(arcs, dtype=np.int64)
    if arcs == 0:
        return support
    fcount = np.diff(fptr)
    fsrc = np.repeat(np.arange(n, dtype=np.int64), fcount)
    composite = fsrc * n + fdst  # sorted ascending by construction
    src_smaller = fcount[fsrc] <= fcount[fdst]
    scanned = np.where(src_smaller, fsrc, fdst)
    tested = np.where(src_smaller, fdst, fsrc)
    expand = fcount[scanned]  # |forward(scanned)| per arc
    cum = np.cumsum(expand)
    # Total candidate pairs is the O(m^1.5) work bound; process arcs in
    # blocks so peak memory stays bounded instead of tracking it (a
    # large clique would otherwise materialise gigabyte-sized arrays).
    chunk_pairs = 1 << 22
    start = 0
    while start < arcs:
        base = int(cum[start - 1]) if start else 0
        stop = int(np.searchsorted(cum, base + chunk_pairs, side="right"))
        stop = max(stop, start + 1)
        block_expand = expand[start:stop]
        block_total = int(cum[stop - 1]) - base
        if block_total:
            arc_of = np.repeat(
                np.arange(start, stop, dtype=np.int64), block_expand
            )
            # w_pos[j] walks forward(scanned) for arc j: one fused
            # repeat carries both run start and cumulative offset.
            block_cum = cum[start:stop] - base
            w_pos = np.arange(block_total, dtype=np.int64) + np.repeat(
                fptr[scanned[start:stop]] - (block_cum - block_expand),
                block_expand,
            )
            w = fdst[w_pos]
            key = tested[arc_of] * n + w
            found = np.minimum(np.searchsorted(composite, key), arcs - 1)
            hit = composite[found] == key
            support += np.bincount(
                np.concatenate([arc_of[hit], w_pos[hit], found[hit]]),
                minlength=arcs,
            )
        start = stop
    return support
