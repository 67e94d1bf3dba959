"""Property-based tests for the k-core machinery."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import core_decomposition
from repro.core.kcore import (
    connected_kcore_components,
    kcore_of_subset,
    maximal_kcore,
)
from repro.graphs.builder import graph_from_edges


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 14))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=40))
    weights = draw(
        st.lists(
            st.floats(0.1, 50.0), min_size=n, max_size=n
        )
    )
    return graph_from_edges(edges, weights=weights, n=n)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_core_numbers_match_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges())
    expected = nx.core_number(g)
    ours = core_decomposition(graph)
    assert {v: int(c) for v, c in enumerate(ours)} == expected


@given(small_graphs(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_kcore_invariants(graph, k):
    core = maximal_kcore(graph, k)
    adj = graph.adjacency
    # Cohesive: every member has >= k neighbours inside.
    assert all(len(adj[v] & core) >= k for v in core)
    # Idempotent: re-coring changes nothing.
    assert kcore_of_subset(graph, core, k) == core
    # Nested: the (k+1)-core is contained in the k-core.
    assert maximal_kcore(graph, k + 1) <= core


@given(small_graphs(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_kcore_is_maximal(graph, k):
    """No vertex outside the k-core can be added back: any superset that is
    cohesive must already be inside."""
    core = maximal_kcore(graph, k)
    adj = graph.adjacency
    for v in range(graph.n):
        if v in core:
            continue
        extended = core | {v}
        # v must fail the degree bound in the extension (otherwise the
        # "maximal" claim of Definition 1 would be violated).
        assert len(adj[v] & extended) < k


@given(small_graphs(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_components_partition_the_core(graph, k):
    components = connected_kcore_components(graph, range(graph.n), k)
    union: set[int] = set()
    for comp in components:
        assert not (union & comp)  # disjoint
        union |= comp
    assert union == maximal_kcore(graph, k)
