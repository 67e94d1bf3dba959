"""Property-based parity between the CSR engine and its references.

Production runs one engine (flat CSR arrays and the kernel tier); the
original set-of-sets implementations live on in :mod:`repro.reference`,
and the subset kernels keep a worklist/BFS branch for tiny subsets.  On
random graphs every pair must return *identical* results — not merely
equivalent ones — because solvers layered on top are deterministic
functions of the kernel outputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, reference
from repro.aggregators.registry import get_aggregator
from repro.core.decomposition import core_decomposition
from repro.core.kcore import (
    connected_kcore_components,
    kcore_of_subset,
    kcore_worklist,
    maximal_kcore,
)
from repro.graphs.builder import graph_from_edges
from repro.graphs.components import components_bfs, connected_components_of
from repro.influential.api import top_r_communities
from repro.influential.expansion import expansion_context, members_frozenset
from repro.influential.expansion_csr import ComponentStructure, MemberArray
from repro.truss.decomposition import edge_supports
from repro.utils.zobrist import ZobristHasher

AGGREGATORS = ("sum", "avg", "min", "max")

#: Expansion factory per engine.
CONTEXTS = {"set": reference.expansion_context, "csr": expansion_context}


@st.composite
def weighted_graphs(draw, min_n=2, max_n=16, max_edges=48):
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=max_edges)
    )
    weights = draw(st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n))
    return graph_from_edges(edges, weights=weights, n=n)


def _subsets(graph, data):
    subset = data.draw(
        st.lists(st.integers(0, graph.n - 1), unique=True, max_size=graph.n)
    )
    # Every non-empty subset of a <= 16-vertex graph takes the mask branch.
    assert not subset or len(subset) * 16 >= graph.n
    return subset


def _flatten(children):
    return [
        (members_frozenset(child.vertices), child.value, child.key)
        for child in children
    ]


@given(weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_core_decomposition_parity(graph):
    assert np.array_equal(
        reference.core_decomposition(graph), core_decomposition(graph)
    )


@given(weighted_graphs(), st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_kcore_of_subset_parity(graph, k, data):
    """The mask branch of ``kcore_of_subset`` against the worklist peel."""
    subset = _subsets(graph, data)
    assert kcore_of_subset(graph, subset, k) == kcore_worklist(
        graph, set(subset), k
    )
    cores = reference.core_decomposition(graph)
    assert maximal_kcore(graph, k) == set(np.flatnonzero(cores >= k).tolist())


@given(weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_truss_parity(graph):
    assert edge_supports(graph) == reference.edge_supports(graph)


@given(weighted_graphs(min_n=5), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_top_r_parity(graph, k, r):
    for f in AGGREGATORS:
        produced = top_r_communities(graph, k, r, f=f)
        with reference.set_engine():
            expected = top_r_communities(graph, k, r, f=f)
        assert produced == expected, f
        assert produced.values() == expected.values(), f


@given(weighted_graphs(), st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_connected_components_parity(graph, k, data):
    """The mask branch of ``connected_components_of`` against the BFS."""
    subset = _subsets(graph, data)
    assert connected_components_of(graph, subset) == components_bfs(
        graph, set(subset)
    )


@given(weighted_graphs(min_n=4), st.integers(1, 3), st.sampled_from(
    ["sum", "sum-surplus(alpha=2)", "avg"]
))
@settings(max_examples=50, deadline=None)
def test_expansion_children_parity(graph, k, f):
    """The two expansion engines must emit *identical* children — same
    vertex sets, bit-identical values, equal Zobrist keys — for every
    removal, both per vertex and through the batched ``expand`` pass."""
    aggregator = get_aggregator(f)
    hasher = ZobristHasher(graph.n)
    for component in connected_kcore_components(graph, range(graph.n), k):
        value = aggregator.value(graph, frozenset(component))
        contexts = {
            name: make(graph, frozenset(component), k, aggregator, value, hasher)
            for name, make in CONTEXTS.items()
        }
        for vertex in sorted(component):
            flattened = {
                name: _flatten(ctx.children_after_removal(vertex))
                for name, ctx in contexts.items()
            }
            assert flattened["set"] == flattened["csr"], (vertex, k, f)
        batches = {
            name: _flatten(ctx.expand()) for name, ctx in contexts.items()
        }
        assert batches["set"] == batches["csr"], (k, f)


@given(weighted_graphs(min_n=4, max_n=40, max_edges=140), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_spanning_tree_certificate_is_sound(graph, k):
    """Whenever the spanning-tree certificate accepts a cascade's
    survivors, the component BFS it replaces returns exactly one piece:
    the survivor set — for every removal from every k-core component."""
    hasher = ZobristHasher(graph.n)
    for component in connected_kcore_components(graph, range(graph.n), k):
        members = MemberArray.from_iterable(component, hasher)
        structure = ComponentStructure.build(graph, members, k, hasher)
        tree = structure.tree
        local = structure.local
        for i in range(len(members)):
            mask = np.ones(len(members), dtype=bool)
            mask[i] = False
            local.peel_to_kcore(mask, k)
            survivors = np.flatnonzero(mask)
            if survivors.size == 0:
                continue
            if kernels.certify_connected(
                local.indptr, local.indices, tree.parent, tree.tin,
                tree.tout, mask, np.flatnonzero(~mask),
            ):
                pieces = local.components_of_mask(mask)
                assert [p.tolist() for p in pieces] == [survivors.tolist()]


@given(weighted_graphs(min_n=4), st.integers(1, 3),
       st.floats(0.0, 0.99), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_expansion_floor_parity(graph, k, rel_floor, r):
    """A value floor (static or callable) prunes identically on both
    engines, and never prunes a child a floorless expansion would keep
    above the floor."""
    aggregator = get_aggregator("sum")
    hasher = ZobristHasher(graph.n)
    for component in connected_kcore_components(graph, range(graph.n), k):
        value = aggregator.value(graph, frozenset(component))
        floor = rel_floor * value
        results = {}
        for name, make in CONTEXTS.items():
            def context():
                return make(
                    graph, frozenset(component), k, aggregator, value, hasher
                )

            results[name] = _flatten(context().expand(floor))
            callable_children = _flatten(context().expand(lambda: floor))
            assert callable_children == results[name], name
        assert results["set"] == results["csr"]
        # Conservativeness: the floor may generate extra children below it
        # (it prunes on the min_removal_loss bound, not exact values) but
        # must never drop one at-or-above it.
        unfiltered = _flatten(
            expansion_context(
                graph, frozenset(component), k, aggregator, value, hasher
            ).expand()
        )
        floored = set(results["csr"])
        assert floored <= set(unfiltered)
        for child in unfiltered:
            if child[1] >= floor:
                assert child in floored, child
