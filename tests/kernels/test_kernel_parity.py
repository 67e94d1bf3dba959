"""Parity of the kernel tier against the set oracles.

Every hot kernel in :mod:`repro.kernels` must agree *bit for bit* with
the original set-adjacency implementations: :mod:`repro.reference` and
the worklist/BFS branches of the subset kernels.

Exactness is the contract: peel fixpoints, component splits, core
numbers and triangle counts are integer results with one correct value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, reference
from repro.core.kcore import kcore_worklist
from repro.graphs.builder import graph_from_edges
from repro.graphs.components import components_bfs
from repro.influential.expansion_csr import _spanning_tree


@st.composite
def graphs(draw, min_n=2, max_n=16, max_edges=48):
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=max_edges)
    )
    return graph_from_edges(edges, weights=[1.0] * n, n=n)


def _subset_mask(draw_subset, graph, data):
    subset = data.draw(
        st.lists(
            st.integers(0, graph.n - 1), unique=True, max_size=graph.n
        )
    )
    mask = np.zeros(graph.n, dtype=bool)
    mask[subset] = True
    return subset, mask


def _forward_arcs(graph):
    """The (fptr, fsrc, fdst) degree orientation ``edge_supports`` builds."""
    csr = graph.csr
    n = csr.n
    degree = csr.degrees()
    order = np.lexsort((np.arange(n), degree))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    keep = position[src] < position[csr.indices]
    fsrc, fdst = src[keep], csr.indices[keep]
    fptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fsrc, minlength=n), out=fptr[1:])
    return fptr, fsrc, fdst


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_core_numbers_parity(graph):
    csr = graph.csr
    oracle = reference.core_decomposition(graph)
    core = kernels.core_numbers(csr.indptr, csr.indices)
    assert core.dtype == np.int64
    assert np.array_equal(core, oracle)


@given(graphs(), st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_peel_to_kcore_parity(graph, k, data):
    subset, mask = _subset_mask(None, graph, data)
    oracle = kcore_worklist(graph, set(subset), k)
    csr = graph.csr
    degrees = csr.subset_degrees(mask)
    kernels.peel_to_kcore(csr.indptr, csr.indices, mask, k, degrees)
    assert set(np.flatnonzero(mask).tolist()) == oracle
    # Survivor degrees are exact induced degrees of the fixpoint; deleted
    # entries may hold stale values and are outside the kernel contract.
    assert np.array_equal(degrees[mask], csr.subset_degrees(mask)[mask])


def _check_components_parity(graph, subset, mask):
    oracle = components_bfs(graph, set(subset))
    csr = graph.csr
    before = mask.copy()
    pieces = kernels.components_of_mask(csr.indptr, csr.indices, mask)
    assert np.array_equal(mask, before), "mask must not be modified"
    # Emitted by smallest member, each a sorted int64 id array.
    assert [set(piece.tolist()) for piece in pieces] == oracle
    for piece in pieces:
        assert piece.dtype == np.int64
        assert np.array_equal(piece, np.sort(piece))


@given(graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_components_of_mask_parity(graph, data):
    subset, mask = _subset_mask(None, graph, data)
    _check_components_parity(graph, subset, mask)


def _path_edges(n):
    return [(v, v + 1) for v in range(n - 1)]


# (n, edges, masked subset, whether the split must drain a chain)
SPLITTER_SHAPES = {
    "empty-mask": (8, _path_edges(8), [], False),
    "one-vertex": (8, _path_edges(8), [5], False),
    # Every other vertex of a path: 150 singletons, one seed each.
    "isolated": (300, _path_edges(300), list(range(0, 300, 2)), False),
    "first-bfs-covers-all": (
        40,
        _path_edges(40) + [(0, 39), (0, 20), (10, 30)],
        list(range(40)),
        False,
    ),
    # A 200-vertex chain (narrow frontier for >= 32 levels: the scalar
    # drain) followed by a triangle the seed loop must still reach.
    "long-chain": (
        203,
        _path_edges(200) + [(200, 201), (201, 202), (200, 202)],
        list(range(203)),
        True,
    ),
}


@pytest.mark.parametrize("shape", sorted(SPLITTER_SHAPES))
def test_components_of_mask_shapes(shape, monkeypatch):
    n, edges, subset, drains = SPLITTER_SHAPES[shape]
    graph = graph_from_edges(edges, weights=[1.0] * n, n=n)
    mask = np.zeros(n, dtype=bool)
    mask[subset] = True
    drained = []
    drain = kernels._drain_bfs

    def spy_drain(*args):
        drained.append(True)
        return drain(*args)

    monkeypatch.setattr(kernels, "_drain_bfs", spy_drain)
    _check_components_parity(graph, subset, mask)
    assert bool(drained) == drains


def _check_certificate(graph, mask):
    """The certificate leaves ``mask`` alone, answers a plain bool, and an
    accepted proof is never wrong: the BFS split then has exactly one
    piece."""
    csr = graph.csr
    tree = _spanning_tree(csr)
    removed = np.flatnonzero(~mask)
    before = mask.copy()
    verdict = kernels.certify_connected(
        csr.indptr, csr.indices, tree.parent, tree.tin, tree.tout,
        mask, removed,
    )
    assert np.array_equal(mask, before), "mask must not be modified"
    assert type(verdict) is bool
    if verdict:
        (piece,) = csr.components_of_mask(mask)
        assert np.array_equal(piece, np.flatnonzero(mask))
    return verdict


def _star_of_paths(arms, length):
    """A hub (vertex 0) with ``arms`` paths of ``length`` vertices."""
    edges = []
    for arm in range(arms):
        chain = [0] + [1 + arm * length + j for j in range(length)]
        edges += list(zip(chain, chain[1:]))
    return 1 + arms * length, edges


# (graph builder, removed set, expected verdict)
CERTIFICATE_SHAPES = {
    "nothing-removed": (lambda: _star_of_paths(3, 3), [], True),
    # Arm tips are tree leaves: no orphans at all.
    "leaves-removed": (lambda: _star_of_paths(3, 3), [3, 6, 9], True),
    "root-removed": (lambda: _star_of_paths(3, 3), [0], False),
    # Cutting an arm in the middle disconnects its tail.
    "arm-cut": (lambda: _star_of_paths(3, 3), [2], False),
    # A 6-cycle with chord (0, 3), rooted at 0: the BFS tree hangs 4 below
    # 3, so removing 3 orphans 4, which reaches the root's part through
    # the non-tree edge (4, 5).
    "cycle-orphan-anchored": (
        lambda: (6, [(v, (v + 1) % 6) for v in range(6)] + [(0, 3)]),
        [3],
        True,
    ),
}


@pytest.mark.parametrize("shape", sorted(CERTIFICATE_SHAPES))
def test_certify_connected_shapes(shape):
    build, removed, expected = CERTIFICATE_SHAPES[shape]
    n, edges = build()
    graph = graph_from_edges(edges, weights=[1.0] * n, n=n)
    mask = np.ones(n, dtype=bool)
    mask[removed] = False
    assert _check_certificate(graph, mask) is expected


@given(graphs(max_n=24, max_edges=80), st.data())
@settings(max_examples=80, deadline=None)
def test_certify_connected_is_sound(graph, data):
    if len(components_bfs(graph, set(range(graph.n)))) != 1:
        return  # the certificate needs a spanning tree of the graph
    __, mask = _subset_mask(None, graph, data)
    _check_certificate(graph, mask)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_arc_supports_parity(graph):
    oracle = reference.edge_supports(graph)
    fptr, fsrc, fdst = _forward_arcs(graph)
    support = kernels.arc_supports(fptr, fdst)
    assert support.dtype == np.int64
    lo = np.minimum(fsrc, fdst).tolist()
    hi = np.maximum(fsrc, fdst).tolist()
    assert {
        (u, v): s for u, v, s in zip(lo, hi, support.tolist())
    } == oracle


def test_empty_graph_kernels():
    empty_ptr = np.zeros(1, dtype=np.int64)
    empty_idx = np.zeros(0, dtype=np.int32)
    assert kernels.core_numbers(empty_ptr, empty_idx).size == 0
    assert (
        kernels.components_of_mask(
            empty_ptr, empty_idx, np.zeros(0, dtype=bool)
        )
        == []
    )
    assert kernels.arc_supports(empty_ptr, empty_idx).size == 0
