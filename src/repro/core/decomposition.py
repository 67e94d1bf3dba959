"""Core decomposition via the Batagelj–Zaveršnik bucket-peeling algorithm.

The *core number* of a vertex is the largest k such that the vertex belongs
to a (non-empty) k-core.  One O(n + m) pass computes all core numbers,
from which every maximal k-core falls out by thresholding — this is the
preprocessing step of every solver, and it also yields the ``kmax`` column
of the paper's Table III (the largest k with a non-empty k-core).

The computation runs in the kernel tier
(:func:`repro.kernels.core_numbers`): a vectorised degree-wave peel in pure
numpy.  The pointer-chasing BZ peel over set adjacency lives on in
:mod:`repro.reference` as the test oracle.

Reference: V. Batagelj and M. Zaveršnik, "An O(m) Algorithm for Cores
Decomposition of Networks", 2003.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.graphs.graph import Graph


def core_decomposition(graph: Graph) -> np.ndarray:
    """Core number of every vertex as an int64 array, O(n + m)."""
    if graph.n == 0:
        return np.zeros(0, dtype=np.int64)
    csr = graph.csr
    return kernels.core_numbers(csr.indptr, csr.indices)


def kmax(graph: Graph) -> int:
    """The largest k for which a non-empty k-core exists (Table III)."""
    if graph.n == 0:
        return 0
    return int(core_decomposition(graph).max())


def core_number_histogram(graph: Graph) -> dict[int, int]:
    """Map core number -> how many vertices have it (diagnostics)."""
    cores = core_decomposition(graph)
    values, counts = np.unique(cores, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}
