"""Shared fixtures: the paper's example graphs and small random instances."""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro import reference

from repro.graphs.builder import GraphBuilder, graph_from_edges
from repro.graphs.generators.examples import figure1_graph, tiny_kcore_graph
from repro.graphs.generators.random_graphs import gnp_random_graph
from repro.utils.rng import make_rng


@pytest.fixture
def figure1():
    """The paper's 11-vertex running example (Figure 1)."""
    return figure1_graph()


@pytest.fixture
def tiny():
    """7-vertex graph with K4 3-core, weights 1..7."""
    return tiny_kcore_graph()


@pytest.fixture
def triangle():
    """K3 with weights 1, 2, 3."""
    return graph_from_edges([(0, 1), (1, 2), (0, 2)], weights=[1.0, 2.0, 3.0])


@pytest.fixture
def two_triangles():
    """Two disjoint triangles: {0,1,2} (weights 1,2,3), {3,4,5} (10,20,30)."""
    return graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        weights=[1.0, 2.0, 3.0, 10.0, 20.0, 30.0],
    )


@pytest.fixture
def five_clique():
    """K5 with weights 5, 4, 3, 2, 1 on vertices 0..4."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    return graph_from_edges(edges, weights=[5.0, 4.0, 3.0, 2.0, 1.0])


@pytest.fixture
def path_graph():
    """A 5-vertex path (max core number 1)."""
    return graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], weights=[1.0] * 5)


@pytest.fixture
def empty_graph():
    """Zero vertices."""
    return GraphBuilder(0).build()


#: Solver engines a test may run under: production CSR, or the reference
#: set engine scoped by :func:`repro.reference.set_engine`.
ENGINES = ("set", "csr")


def engine(name: str):
    """Context manager running Algorithms 1 and 2 on engine ``name``."""
    return reference.set_engine() if name == "set" else nullcontext()


def random_weighted_graph(n: int, p: float, seed: int):
    """Small random graph with random positive weights (test helper)."""
    graph = gnp_random_graph(n, p, seed=seed)
    rng = make_rng(seed + 1)
    weights = rng.uniform(0.5, 10.0, size=n)
    return graph.with_weights(np.round(weights, 3))


@pytest.fixture
def small_random_graphs():
    """A batch of small random weighted graphs for oracle comparisons."""
    cases = []
    for seed, (n, p) in enumerate([(8, 0.45), (10, 0.4), (12, 0.35), (9, 0.5)]):
        cases.append(random_weighted_graph(n, p, seed=100 + seed))
    return cases
