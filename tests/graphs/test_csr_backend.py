"""CSR adjacency construction invariants, cache behaviour and primitives."""

import numpy as np
import pytest

from repro.graphs.builder import GraphBuilder, graph_from_edges
from repro.graphs.csr import CSRAdjacency, decrement_degrees
from repro.graphs.generators.examples import figure1_graph, tiny_kcore_graph
from repro.graphs.generators.random_graphs import (
    barabasi_albert,
    chung_lu,
    gnm_random_graph,
    gnp_random_graph,
    powerlaw_configuration_model,
)
from repro.graphs.views import induced_subgraph
from repro.influential.improved import tic_improved


def generated_graphs():
    yield figure1_graph()
    yield tiny_kcore_graph()
    yield gnp_random_graph(40, 0.15, seed=1)
    yield gnp_random_graph(25, 0.0, seed=2)  # edgeless
    yield gnm_random_graph(60, 150, seed=3)
    yield barabasi_albert(80, 3, seed=4)
    yield powerlaw_configuration_model(70, 2.5, seed=5)
    yield chung_lu(50, np.full(50, 4.0), seed=6)
    yield GraphBuilder(0).build()


@pytest.mark.parametrize("graph", generated_graphs(), ids=lambda g: repr(g))
def test_csr_construction_invariants(graph):
    csr = graph.csr
    indptr, indices = csr.indptr, csr.indices
    # Shape: one run per vertex, indptr[-1] == 2m == len(indices).
    assert len(indptr) == graph.n + 1
    assert indptr[0] == 0
    assert int(indptr[-1]) == 2 * graph.m == len(indices)
    assert np.all(np.diff(indptr) >= 0)
    if graph.n:
        assert indices.size == 0 or (
            indices.min() >= 0 and indices.max() < graph.n
        )
    arcs = set()
    for v in range(graph.n):
        run = indices[indptr[v] : indptr[v + 1]]
        # Sorted, duplicate-free neighbour runs mirroring the set adjacency.
        assert np.all(np.diff(run) > 0)
        assert set(run.tolist()) == graph.adjacency[v]
        assert v not in run  # no self-loops
        arcs.update((v, int(u)) for u in run)
    # Symmetry: every arc has its reverse.
    assert all((u, v) in arcs for v, u in arcs)


def test_csr_matches_degrees():
    graph = gnm_random_graph(50, 120, seed=11)
    assert np.array_equal(graph.csr.degrees(), graph.degrees())
    assert int(graph.csr.degrees().max(initial=0)) == graph.max_degree


def test_csr_is_cached_and_shared():
    graph = gnp_random_graph(20, 0.2, seed=8)
    assert not graph.has_csr
    first = graph.csr
    assert graph.has_csr
    assert graph.csr is first
    # Derived graphs with the same topology share the cache.
    reweighted = graph.with_weights(np.ones(graph.n))
    assert reweighted.has_csr and reweighted.csr is first
    relabeled = graph.with_labels([f"x{v}" for v in range(graph.n)])
    assert relabeled.csr is first


def test_csr_arrays_are_read_only():
    csr = gnp_random_graph(10, 0.3, seed=9).csr
    with pytest.raises(ValueError):
        csr.indptr[0] = 1
    with pytest.raises(ValueError):
        csr.indices[0] = 1


def test_builder_warm_csr():
    cold = GraphBuilder(3).add_edge(0, 1).build()
    assert not cold.has_csr
    warm = GraphBuilder(3).add_edge(0, 1).build(warm_csr=True)
    assert warm.has_csr


def test_induced_subgraph_propagates_csr():
    graph = gnm_random_graph(40, 90, seed=12)
    graph.csr  # materialise the parent cache
    sub, mapping = induced_subgraph(graph, range(5, 30))
    assert sub.has_csr
    rebuilt = CSRAdjacency.from_adjacency(sub.adjacency)
    assert np.array_equal(sub.csr.indptr, rebuilt.indptr)
    assert np.array_equal(sub.csr.indices, rebuilt.indices)
    # Without a warm parent cache the child stays lazy.
    cold = gnm_random_graph(40, 90, seed=12)
    sub2, __ = induced_subgraph(cold, range(5, 30))
    assert not sub2.has_csr


def test_gather_concatenates_runs():
    graph = graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
    csr = graph.csr
    out = csr.gather(np.asarray([0, 2]))
    assert out.tolist() == [1, 2, 0, 1, 3]
    neigh, owners, positions = csr.gather_full(np.asarray([3, 1]))
    assert neigh.tolist() == [2, 0, 2]
    assert owners.tolist() == [3, 1, 1]
    assert np.array_equal(csr.indices[positions], neigh)
    assert csr.gather(np.asarray([], dtype=np.int64)).size == 0


def test_subset_degrees_and_peel():
    graph = graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    csr = graph.csr
    mask = np.asarray([True, True, True, True, False])
    deg = csr.subset_degrees(mask)
    assert deg.tolist() == [2, 2, 3, 1, 0]
    mask, deg = csr.peel_to_kcore(mask, 2)
    assert np.flatnonzero(mask).tolist() == [0, 1, 2]
    assert deg[np.flatnonzero(mask)].tolist() == [2, 2, 2]


def test_decrement_degrees_both_strategies():
    # Small frontier -> subtract.at path; large -> bincount path.  Both
    # must handle duplicates and report each touched vertex once.
    for size in (4, 64):
        degrees = np.full(size, 5, dtype=np.int64)
        neigh = np.asarray([1, 1, 2], dtype=np.int64)
        touched = decrement_degrees(degrees, neigh)
        assert touched.tolist() == [1, 2]
        assert degrees[1] == 3 and degrees[2] == 4


def test_index_dtype_is_int32_with_overflow_guard():
    # Every realistic graph stores neighbour ids as int32 (half the memory
    # traffic of int64 gathers); the guard keeps int64 for vertex counts
    # that int32 cannot index.
    assert CSRAdjacency._index_dtype(0) == np.int32
    assert CSRAdjacency._index_dtype(50_000) == np.int32
    assert CSRAdjacency._index_dtype(np.iinfo(np.int32).max) == np.int32
    assert CSRAdjacency._index_dtype(np.iinfo(np.int32).max + 1) == np.int64
    assert CSRAdjacency._index_dtype(1 << 40) == np.int64


def test_indices_stored_as_int32():
    graph = gnm_random_graph(200, 800, seed=9)
    csr = graph.csr
    assert csr.indices.dtype == np.int32
    # indptr stays int64: its entries are cumulative edge counts that reach
    # 2m and would overflow int32 long before indices values do.
    assert csr.indptr.dtype == np.int64
    # Primitives keep working over the narrow dtype.
    degrees = csr.degrees()
    assert int(degrees.sum()) == 2 * graph.m
    neigh = csr.gather(np.arange(graph.n))
    assert neigh.dtype == np.int32
    assert neigh.size == 2 * graph.m


def _int_width_run(edges, weights, n):
    """The kernels and one TIC-IMPROVED call on a freshly built graph, in
    whatever ``indices`` dtype CSRAdjacency currently picks."""
    graph = graph_from_edges(edges, weights=weights, n=n)
    csr = graph.csr
    rng = np.random.default_rng(11)
    dense = np.sort(rng.choice(n, size=n // 2, replace=False))
    sparse = np.sort(rng.choice(n, size=n // 32, replace=False))
    assert dense.size * 16 >= n > sparse.size * 16  # both relabel branches
    mask = np.zeros(n, dtype=bool)
    mask[dense] = True
    peeled, degrees = csr.peel_to_kcore(mask.copy(), 3)
    result = tic_improved(graph, k=3, r=8, f="sum")
    return csr.indices.dtype, {
        "induced": [
            (local.indptr, local.indices)
            for local in (csr.induced_local(dense), csr.induced_local(sparse))
        ],
        "components": csr.components_of_mask(mask),
        "peel": (peeled, degrees[peeled]),
        "answer": [(sorted(c.vertices), c.value.hex()) for c in result],
    }


def test_int64_indices_give_int32_results(monkeypatch):
    # Graphs with n >= 2**31 store int64 neighbour ids; forcing that
    # layout on a small graph must not change a single kernel or solver
    # result.
    base = gnm_random_graph(160, 900, seed=4)
    edges = list(base.edges())
    weights = np.random.default_rng(5).uniform(0.1, 30.0, base.n)
    narrow_dtype, narrow = _int_width_run(edges, weights, base.n)
    monkeypatch.setattr(
        CSRAdjacency, "_index_dtype", staticmethod(lambda n: np.dtype(np.int64))
    )
    wide_dtype, wide = _int_width_run(edges, weights, base.n)
    assert narrow_dtype == np.int32 and wide_dtype == np.int64
    for (ptr, idx), (wide_ptr, wide_idx) in zip(
        narrow["induced"], wide["induced"]
    ):
        assert wide_idx.dtype == np.int64
        assert np.array_equal(ptr, wide_ptr) and np.array_equal(idx, wide_idx)
    assert len(narrow["components"]) == len(wide["components"])
    for a, b in zip(narrow["components"], wide["components"]):
        assert np.array_equal(a, b)
    for a, b in zip(narrow["peel"], wide["peel"]):
        assert np.array_equal(a, b)
    assert narrow["answer"] and narrow["answer"] == wide["answer"]


def test_induced_local_relabels_and_sorts():
    graph = graph_from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4), (5, 6)]
    )
    members = np.asarray([2, 3, 4, 6], dtype=np.int64)
    local = graph.csr.induced_local(members)
    assert local.n == 4
    # local ids 0,1,2 are global 2,3,4 forming a triangle; 6 is isolated.
    assert local.neighbors(0).tolist() == [1, 2]
    assert local.neighbors(1).tolist() == [0, 2]
    assert local.neighbors(2).tolist() == [0, 1]
    assert local.neighbors(3).tolist() == []
    # Tiny subset of a large graph exercises the searchsorted branch.
    big = gnm_random_graph(500, 2000, seed=3)
    sub = np.asarray([10, 11, 12, 13], dtype=np.int64)
    small_local = big.csr.induced_local(sub)
    adj = big.adjacency
    for i, v in enumerate(sub.tolist()):
        expected = sorted(
            int(np.searchsorted(sub, u)) for u in adj[v] if u in set(sub.tolist())
        )
        assert small_local.neighbors(i).tolist() == expected


def test_induced_local_empty():
    graph = graph_from_edges([(0, 1)])
    local = graph.csr.induced_local(np.asarray([], dtype=np.int64))
    assert local.n == 0 and local.m == 0


def test_components_of_mask_matches_set_split():
    graph = graph_from_edges(
        [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (5, 7)], n=9
    )
    mask = np.ones(9, dtype=bool)
    mask[4] = False
    pieces = graph.csr.components_of_mask(mask)
    assert [p.tolist() for p in pieces] == [[0, 1, 2], [3], [5, 6, 7], [8]]
    # mask must not be consumed
    assert mask.sum() == 8
