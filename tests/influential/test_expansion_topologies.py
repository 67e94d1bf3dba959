"""Expansion edge cases on known topologies, on the CSR engine and the
reference set engine.

Each topology pins down one branch of the expansion machinery:

* clique — no articulation vertices, every induced degree equal: at
  ``k = n - 2`` every removal cascades to nothing (the all-weak case), at
  smaller k every removal is the pure fast path;
* cycle — 2-regular, articulation-free, but every neighbour sits at the
  cascade threshold for ``k = 2``: removals must annihilate the whole
  component via the cascade path;
* barbell / articulation chain — two cliques joined through a path: every
  bridge vertex is an articulation vertex, so removals there must split
  the survivors into multiple children;
* spanning-tree certificate shapes — cascades the tree proves connected
  (no component BFS), and cascades it must decline (a split, a removed
  root, an orphan reconnecting only through its own subtree), where the
  BFS still gives the answer.

For every vertex of every topology both engines are checked against the
brute-force re-core reference, which exercises fast-path vs cascade-path
agreement: the reference has no fast path at all.
"""

import numpy as np
import pytest

from repro import kernels, reference
from repro.aggregators.registry import get_aggregator
from repro.core.kcore import connected_kcore_components
from repro.graphs.builder import graph_from_edges
from repro.influential.expansion import expansion_context, members_frozenset
from repro.influential.expansion_csr import CSRExpansionContext, MemberArray
from repro.utils.zobrist import ZobristHasher

#: Expansion factory per engine.
CONTEXTS = {"set": reference.expansion_context, "csr": expansion_context}


def _clique_graph(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return graph_from_edges(edges, weights=[float(v + 1) for v in range(n)])


def _cycle_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graph_from_edges(edges, weights=[float(v + 1) for v in range(n)])


def _barbell_graph(clique=5, path=3):
    """Two k-cliques joined by a path of ``path`` extra vertices."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    offset = clique + path
    edges += [
        (offset + i, offset + j)
        for i in range(clique)
        for j in range(i + 1, clique)
    ]
    chain = [clique - 1] + [clique + i for i in range(path)] + [offset]
    edges += list(zip(chain, chain[1:]))
    n = 2 * clique + path
    return graph_from_edges(edges, weights=[float(v + 1) for v in range(n)])


def _reference_children(graph, component, k, vertex):
    remainder = set(component)
    remainder.discard(vertex)
    return {
        frozenset(c) for c in connected_kcore_components(graph, remainder, k)
    }


def _check_against_reference(graph, k, f="sum"):
    aggregator = get_aggregator(f)
    hasher = ZobristHasher(graph.n)
    per_engine = {}
    for engine, make_context in CONTEXTS.items():
        produced = {}
        for component in connected_kcore_components(graph, range(graph.n), k):
            value = aggregator.value(graph, frozenset(component))
            ctx = make_context(
                graph, frozenset(component), k, aggregator, value, hasher
            )
            for vertex in sorted(component):
                children = ctx.children_after_removal(vertex)
                assert {
                    members_frozenset(c.vertices) for c in children
                } == _reference_children(graph, component, k, vertex), (
                    engine, vertex, k
                )
                for child in children:
                    members = members_frozenset(child.vertices)
                    assert child.value == pytest.approx(
                        aggregator.value(graph, members)
                    )
                    assert child.key == hasher.hash_set(members)
                    produced[(min(component), vertex, members)] = (
                        child.value, child.key
                    )
        per_engine[engine] = produced
    # Fast path (set: no BFS; csr: np.delete) and cascade path must agree
    # not only with the reference sets but bit-for-bit with each other.
    assert per_engine["set"] == per_engine["csr"]


@pytest.mark.parametrize("n", [4, 6, 9])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_clique_children(n, k):
    _check_against_reference(_clique_graph(n), k)


def test_clique_all_removals_are_fast_path():
    """K6 at k=3: no vertex is articulation, no neighbour at degree k, so
    every child must be the one-copy fast path product."""
    graph = _clique_graph(6)
    hasher = ZobristHasher(graph.n)
    aggregator = get_aggregator("sum")
    ctx = CSRExpansionContext(
        graph, frozenset(range(6)), 3, aggregator, 21.0, hasher
    )
    assert not ctx.has_weak.any()
    assert not ctx.articulation.any()
    for v in range(6):
        (child,) = ctx.children_after_removal(v)
        assert len(child.vertices) == 5


def test_clique_at_threshold_cascades_to_nothing():
    """K5 at k=4: every neighbour of a removed vertex drops below k, so
    the cascade wipes the component and no children exist."""
    graph = _clique_graph(5)
    hasher = ZobristHasher(graph.n)
    aggregator = get_aggregator("sum")
    for engine, make_context in CONTEXTS.items():
        ctx = make_context(
            graph, frozenset(range(5)), 4, aggregator, 15.0, hasher
        )
        for v in range(5):
            assert ctx.children_after_removal(v) == [], (engine, v)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_cycle_children(n):
    graph = _cycle_graph(n)
    for k in (1, 2):
        _check_against_reference(graph, k)


def test_cycle_removal_annihilates_at_k2():
    """C8 is exactly a 2-core; deleting any vertex cascades the rest away."""
    graph = _cycle_graph(8)
    hasher = ZobristHasher(graph.n)
    aggregator = get_aggregator("sum")
    for engine, make_context in CONTEXTS.items():
        ctx = make_context(
            graph, frozenset(range(8)), 2, aggregator, 36.0, hasher
        )
        assert list(ctx.expand()) == [], engine


@pytest.mark.parametrize("path", [1, 2, 4])
def test_barbell_children(path):
    graph = _barbell_graph(clique=5, path=path)
    for k in (1, 2):
        _check_against_reference(graph, k)


def test_barbell_articulation_splits():
    """Removing a mid-path vertex at k=1 must split into two children —
    the cascade/split path — and both engines must find the same pieces,
    flagging exactly the chain as articulation vertices."""
    graph = _barbell_graph(clique=4, path=3)
    component = frozenset(range(graph.n))
    hasher = ZobristHasher(graph.n)
    aggregator = get_aggregator("sum")
    csr_ctx = CSRExpansionContext(
        graph, component, 1, aggregator,
        aggregator.value(graph, component), hasher,
    )
    ids = csr_ctx.members.ids
    # chain vertices: last vertex of clique A, the path, first of clique B
    chain = [3, 4, 5, 6, 7]
    articulation_global = set(
        ids[np.flatnonzero(csr_ctx.articulation)].tolist()
    )
    assert articulation_global == set(chain)
    middle = 5
    for engine, make_context in CONTEXTS.items():
        ctx = make_context(
            graph, component, 1, aggregator,
            aggregator.value(graph, component), hasher,
        )
        children = ctx.children_after_removal(middle)
        assert len(children) == 2, engine
        sides = sorted(
            (sorted(members_frozenset(c.vertices)) for c in children),
            key=lambda side: side[0],
        )
        assert sides[0][0] == 0 and sides[1][-1] == graph.n - 1


def test_sum_surplus_incremental_values_on_barbell():
    """Cascade-path incremental values must match from-scratch evaluation
    for the parameterised sum family too."""
    graph = _barbell_graph(clique=5, path=2)
    aggregator = get_aggregator("sum-surplus(alpha=3)")
    hasher = ZobristHasher(graph.n)
    component = frozenset(range(graph.n))
    value = aggregator.value(graph, component)
    for engine, make_context in CONTEXTS.items():
        ctx = make_context(graph, component, 1, aggregator, value, hasher)
        for child in ctx.expand():
            assert child.value == pytest.approx(
                aggregator.value(graph, members_frozenset(child.vertices))
            )


def test_member_array_round_trip():
    hasher = ZobristHasher(32)
    members = MemberArray.from_iterable({5, 1, 17}, hasher)
    assert members.ids.dtype == np.int32
    assert list(members) == [1, 5, 17]
    assert members.to_frozenset() == frozenset({1, 5, 17})
    assert members.key == hasher.hash_set({1, 5, 17})
    twin = MemberArray.from_iterable([17, 5, 1], hasher)
    assert members == twin
    assert hash(members) == hash(twin)
    assert members != MemberArray.from_iterable([1, 5], hasher)


def _split_spy(monkeypatch):
    """Record the certificate's verdicts and the component BFS calls."""
    verdicts, splits = [], []
    certify, split = kernels.certify_connected, kernels.components_of_mask

    def spy_certify(*args):
        verdict = certify(*args)
        verdicts.append(verdict)
        return verdict

    def spy_split(*args):
        splits.append(True)
        return split(*args)

    monkeypatch.setattr(kernels, "certify_connected", spy_certify)
    monkeypatch.setattr(kernels, "components_of_mask", spy_split)
    return verdicts, splits


def _cascade(graph, k, vertex, monkeypatch):
    """Children of removing ``vertex`` from the whole graph (one connected
    k-core) on the CSR engine, checked against the re-core reference."""
    component = frozenset(range(graph.n))
    aggregator = get_aggregator("sum")
    ctx = CSRExpansionContext(
        graph, component, k, aggregator,
        aggregator.value(graph, component), ZobristHasher(graph.n),
    )
    assert ctx.has_weak[vertex] or ctx.articulation[vertex], "not a cascade"
    with monkeypatch.context() as patch:
        verdicts, splits = _split_spy(patch)
        children = ctx.children_after_removal(vertex)
    pieces = {members_frozenset(c.vertices) for c in children}
    assert pieces == _reference_children(graph, component, k, vertex)
    return ctx.structure.tree, verdicts, splits, pieces


def _clique_with_extras(extras):
    """K6 on 0..5 plus vertices 6, 7, ..., each joined to the listed ids."""
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    for offset, neighbours in enumerate(extras):
        edges += [(6 + offset, v) for v in neighbours]
    n = 6 + len(extras)
    return graph_from_edges(edges, weights=[float(v + 1) for v in range(n)])


def test_certificate_declines_barbell_bridge(monkeypatch):
    """At k=2 removing a path vertex cascades the whole path away: the
    survivors really are two cliques, so the proof must decline and the
    BFS split yields both."""
    graph = _barbell_graph(clique=5, path=3)
    __, verdicts, splits, pieces = _cascade(graph, 2, 6, monkeypatch)
    assert verdicts == [False] and splits == [True]
    assert pieces == {frozenset(range(5)), frozenset(range(8, 13))}


def test_certificate_declines_removed_root(monkeypatch):
    """Removing the tree root (the max-degree vertex 0) voids the proof
    outright, even though the surviving K5 is connected."""
    graph = _clique_with_extras([(0, 1, 2)])
    tree, verdicts, splits, pieces = _cascade(graph, 3, 0, monkeypatch)
    assert tree.parent[0] == 0
    assert verdicts == [False] and splits == [True]
    assert pieces == {frozenset(range(1, 6))}


def test_certificate_accepts_leaf_cascade(monkeypatch):
    """Removing vertex 6 cascades its degree-k neighbour 7 away; both are
    tree leaves, so no survivor is orphaned and no BFS runs."""
    graph = _clique_with_extras([(0, 1, 2), (3, 4, 6)])
    tree, verdicts, splits, pieces = _cascade(graph, 3, 6, monkeypatch)
    assert tree.parent[6] == 0 and tree.parent[7] == 3
    assert verdicts == [True] and splits == []
    assert pieces == {frozenset(range(6))}


def test_certificate_declines_orphan_anchored_below(monkeypatch):
    """Removing 1 (and its pendant 2) orphans 3, whose only surviving
    neighbour 4 is its own child: the path back to the root runs through
    4's non-tree edge to 9.  The proof cannot see that and declines; the
    BFS still returns the one connected child."""
    edges = [
        (0, 1), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (3, 4), (5, 8),
        (8, 9), (9, 4),
    ]
    graph = graph_from_edges(edges, weights=[float(v + 1) for v in range(10)])
    tree, verdicts, splits, pieces = _cascade(graph, 1, 1, monkeypatch)
    assert tree.parent[0] == 0 and tree.parent[3] == 1 and tree.parent[4] == 3
    assert verdicts == [False] and splits == [True]
    assert pieces == {frozenset(range(graph.n)) - {1, 2}}
