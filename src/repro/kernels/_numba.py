"""Numba-compiled kernel implementations (the ``repro[fast]`` extra).

Importing this module requires ``numba``; :mod:`repro.kernels` only
imports it when the import succeeds and ``REPRO_NO_NUMBA`` is unset, so
the package never hard-depends on a compiler toolchain.  Every kernel is
``@njit(nogil=True, cache=True)``:

* ``nogil`` — the compiled loops drop the GIL, which is what makes the
  threaded intra-query expansion in
  :mod:`repro.influential.expansion_csr` real parallelism instead of
  time-slicing;
* ``cache`` — compiled machine code persists in ``__pycache__``, so the
  first-call JIT cost is paid once per environment, not once per
  process.

Each public wrapper keeps the exact flat-array signature and result
contract of its :mod:`repro.kernels._numpy` twin — same fixpoints, same
component ordering, same exact triangle counts — so the two backends are
interchangeable bit for bit (the parity suites hold them together).
Compilation specialises lazily per dtype: ``indices`` arrives as int32
on ordinary graphs and int64 past 2³¹ ids, and both specialise from the
same source.
"""

from __future__ import annotations

import numpy as np
from numba import njit

__all__ = [
    "arc_supports",
    "components_of_mask",
    "core_numbers",
    "peel_to_kcore",
]


@njit(nogil=True, cache=True)
def _peel_kernel(indptr, indices, mask, k, degrees):
    n = mask.size
    # Worklist of deleted-but-unprocessed vertices.  A vertex is unmasked
    # at push time, so it enters the stack at most once and the stack
    # never outgrows n.
    stack = np.empty(n, np.int64)
    top = 0
    for v in range(n):
        if mask[v] and degrees[v] < k:
            mask[v] = False
            stack[top] = v
            top += 1
    while top:
        top -= 1
        v = stack[top]
        for e in range(indptr[v], indptr[v + 1]):
            u = indices[e]
            if mask[u]:
                degrees[u] -= 1
                if degrees[u] < k:
                    mask[u] = False
                    stack[top] = u
                    top += 1


def peel_to_kcore(
    indptr: np.ndarray,
    indices: np.ndarray,
    mask: np.ndarray,
    k: int,
    degrees: np.ndarray,
) -> None:
    """In-place k-core peel of ``mask``; see the numpy twin for the
    contract (unique fixpoint, survivor degrees exact)."""
    _peel_kernel(indptr, indices, mask, k, degrees)


@njit(nogil=True, cache=True)
def _components_kernel(indptr, indices, mask):
    n = mask.size
    visited = np.zeros(n, np.bool_)
    # One shared order array doubles as every component's BFS queue; the
    # boundaries between components land in `offsets`.
    order = np.empty(n, np.int64)
    offsets = np.empty(n + 1, np.int64)
    offsets[0] = 0
    total = 0
    count = 0
    for seed in range(n):
        if not mask[seed] or visited[seed]:
            continue
        visited[seed] = True
        order[total] = seed
        total += 1
        head = total - 1
        while head < total:
            v = order[head]
            head += 1
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                if mask[u] and not visited[u]:
                    visited[u] = True
                    order[total] = u
                    total += 1
        count += 1
        offsets[count] = total
    return order[:total], offsets[: count + 1]


def components_of_mask(
    indptr: np.ndarray, indices: np.ndarray, mask: np.ndarray
) -> list[np.ndarray]:
    """Connected components of the masked vertices.

    Seeds scan ascending, so each component's first vertex is its
    smallest member and components come out in smallest-member order;
    each slice is then sorted — the identical contract to the numpy twin
    and the set-adjacency BFS.  ``mask`` is not modified.
    """
    order, offsets = _components_kernel(indptr, indices, mask)
    return [
        np.sort(order[offsets[i] : offsets[i + 1]])
        for i in range(offsets.size - 1)
    ]


@njit(nogil=True, cache=True)
def _core_numbers_kernel(indptr, indices):
    # Batagelj–Zaveršnik bucket peel, verbatim from repro.reference: a
    # counting sort of vertices by degree with O(1) bucket demotion
    # swaps.  O(n + m), and branch-free enough that the compiled loop
    # runs at memory speed.
    n = indptr.size - 1
    degree = np.empty(n, np.int64)
    maxd = 0
    for v in range(n):
        d = indptr[v + 1] - indptr[v]
        degree[v] = d
        if d > maxd:
            maxd = d
    bin_start = np.zeros(maxd + 2, np.int64)
    for v in range(n):
        bin_start[degree[v] + 1] += 1
    for d in range(1, maxd + 2):
        bin_start[d] += bin_start[d - 1]
    position = np.empty(n, np.int64)
    order = np.empty(n, np.int64)
    cursor = bin_start.copy()
    for v in range(n):
        position[v] = cursor[degree[v]]
        order[position[v]] = v
        cursor[degree[v]] += 1
    core = degree.copy()
    for i in range(n):
        v = order[i]
        for e in range(indptr[v], indptr[v + 1]):
            u = indices[e]
            if core[u] > core[v]:
                du = core[u]
                pu = position[u]
                pw = bin_start[du]
                w = order[pw]
                if u != w:
                    order[pu] = w
                    order[pw] = u
                    position[u] = pw
                    position[w] = pu
                bin_start[du] += 1
                core[u] -= 1
    return core


def core_numbers(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Core number of every vertex (int64), O(n + m)."""
    if indptr.size <= 1:
        return np.zeros(0, dtype=np.int64)
    return _core_numbers_kernel(indptr, indices)


@njit(nogil=True, cache=True)
def _arc_supports_kernel(fptr, fdst):
    n = fptr.size - 1
    arcs = fdst.size
    support = np.zeros(arcs, np.int64)
    # For each forward arc (u, v), a sorted merge intersects forward(u)
    # with forward(v).  A triangle with ranks a < b < c surfaces only at
    # its (a, b) arc (any other pairing would need a backward arc), and
    # each intersection hit increments all three of the triangle's arcs
    # — i at (u, v), a at (u, w), b at (v, w) — so every triangle counts
    # exactly once per arc, matching the numpy twin bit for bit.
    for u in range(n):
        for i in range(fptr[u], fptr[u + 1]):
            v = fdst[i]
            a = fptr[u]
            b = fptr[v]
            ea = fptr[u + 1]
            eb = fptr[v + 1]
            while a < ea and b < eb:
                wa = fdst[a]
                wb = fdst[b]
                if wa < wb:
                    a += 1
                elif wb < wa:
                    b += 1
                else:
                    support[i] += 1
                    support[a] += 1
                    support[b] += 1
                    a += 1
                    b += 1
    return support


def arc_supports(fptr: np.ndarray, fdst: np.ndarray) -> np.ndarray:
    """Per-arc triangle counts of the forward orientation; O(m^1.5)."""
    if fdst.size == 0:
        return np.zeros(0, dtype=np.int64)
    return _arc_supports_kernel(fptr, fdst)
