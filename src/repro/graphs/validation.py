"""Structural invariants of graphs, checkable on demand.

Generators and loaders call :func:`validate_graph` in tests (and optionally
in production via ``strict=True`` flags) to catch symmetry violations,
self-loops, weight anomalies and label mismatches early rather than deep
inside a solver.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, WeightError
from repro.graphs.csr import check_csr
from repro.graphs.graph import Graph


def validate_graph(graph: Graph) -> None:
    """Raise if any structural invariant of ``graph`` is violated.

    Checks: the CSR invariants (endpoint ranges, no self-loops, sorted
    duplicate-free runs, symmetry — :func:`repro.graphs.csr.check_csr`),
    weight domain, and label arity.  O(n + m log m), vectorised.
    """
    n = graph.n
    check_csr(graph.csr.indptr, graph.csr.indices)
    weights = graph.weights
    if weights.shape != (n,):
        raise WeightError(f"weights shape {weights.shape} for {n} vertices")
    if n and (not np.all(np.isfinite(weights)) or float(weights.min()) < 0.0):
        raise WeightError("weights must be finite and non-negative")
    if graph.labels is not None and len(graph.labels) != n:
        raise GraphError(f"{len(graph.labels)} labels for {n} vertices")


def assert_same_topology(a: Graph, b: Graph) -> None:
    """Raise unless the two graphs have identical vertex/edge sets."""
    if a.n != b.n:
        raise GraphError(f"vertex counts differ: {a.n} vs {b.n}")
    if not (
        np.array_equal(a.csr.indptr, b.csr.indptr)
        and np.array_equal(a.csr.indices, b.csr.indices)
    ):
        raise GraphError("edge sets differ")
