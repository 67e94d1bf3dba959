"""Unit tests for :mod:`repro.graphs.delta` (incremental edge updates).

The contract under test: ``GraphDelta.apply`` returns a graph whose CSR
arrays are byte-identical to a from-scratch build of the expected edge
set (base - deletes + inserts), core numbers identical to a full
re-decomposition of that build, leaves the base graph untouched, and
rejects malformed batches before mutating anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import reference
from repro.core.decomposition import core_decomposition
from repro.errors import GraphError, VertexError
from repro.graphs.builder import GraphBuilder, graph_from_edges
from repro.graphs.delta import DeltaReport, GraphDelta, normalize_edge_updates
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.utils.rng import make_rng


def weighted_gnm(n, m, seed):
    graph = gnm_random_graph(n, m, seed=seed)
    return graph.with_weights(make_rng(seed + 1).uniform(0.1, 9.0, graph.n))


def assert_matches_rebuild(report: DeltaReport, base_edges) -> set:
    """Patched CSR == a GraphBuilder build of the expected edge set
    (``base_edges`` - deletes + inserts); repaired cores == a reference
    peel of that build.  Returns the expected edge set, so multi-round
    callers can track it without reading the patched graph."""
    edges = (set(base_edges) - set(report.deleted)) | set(report.inserted)
    graph = report.graph
    rebuilt = GraphBuilder(graph.n).add_edges(edges).build()
    assert np.array_equal(graph.csr.indptr, rebuilt.csr.indptr)
    assert np.array_equal(graph.csr.indices, rebuilt.csr.indices)
    assert graph.csr.indices.dtype == rebuilt.csr.indices.dtype
    assert np.array_equal(
        report.core_numbers, reference.core_decomposition(rebuilt)
    )
    return edges


def present_edges(graph):
    return [(u, v) for u in range(graph.n) for v in graph.adjacency[u] if u < v]


def absent_edges(graph):
    return [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if v not in graph.adjacency[u]
    ]


# ----------------------------------------------------------------------
# Core repair + CSR patch correctness
# ----------------------------------------------------------------------
def test_single_insert_matches_rebuild(figure1):
    report = GraphDelta(figure1).apply(insert=[(0, 9)])
    assert_matches_rebuild(report, present_edges(figure1))
    assert report.graph.m == figure1.m + 1
    assert report.inserted == ((0, 9),)
    assert report.strategy == "incremental"


def test_single_delete_matches_rebuild(figure1):
    edge = present_edges(figure1)[0]
    report = GraphDelta(figure1).apply(delete=[edge])
    assert_matches_rebuild(report, present_edges(figure1))
    assert report.graph.m == figure1.m - 1
    assert report.deleted == (edge,)


def test_base_graph_is_untouched(figure1):
    before = [sorted(neigh) for neigh in figure1.adjacency]
    csr_before = figure1.csr.indices.copy()
    GraphDelta(figure1).apply(insert=[(0, 9)], delete=[present_edges(figure1)[0]])
    assert [sorted(neigh) for neigh in figure1.adjacency] == before
    assert np.array_equal(figure1.csr.indices, csr_before)


def test_weights_and_labels_survive():
    graph = graph_from_edges(
        [(0, 1), (1, 2)], weights=[1.0, 2.0, 3.0]
    ).with_labels(["a", "b", "c"])
    report = GraphDelta(graph).apply(insert=[(0, 2)])
    assert report.graph.weights.tolist() == [1.0, 2.0, 3.0]
    assert report.graph.labels == ["a", "b", "c"]


def test_insert_to_isolated_vertex():
    graph = graph_from_edges([(0, 1)], n=4)
    report = GraphDelta(graph).apply(insert=[(2, 3)])
    assert_matches_rebuild(report, [(0, 1)])
    assert report.core_numbers.tolist() == [1, 1, 1, 1]


def test_delete_last_edge_of_vertex():
    graph = graph_from_edges([(0, 1), (1, 2)])
    report = GraphDelta(graph).apply(delete=[(0, 1)])
    assert_matches_rebuild(report, [(0, 1), (1, 2)])
    assert report.core_numbers[0] == 0


def test_clique_edge_cycle_returns_to_start():
    clique = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    graph = graph_from_edges(clique)
    delta = GraphDelta(graph)
    down = delta.apply(delete=[(0, 1)])
    assert down.core_numbers.max() == 3
    up = delta.apply(insert=[(0, 1)])
    assert assert_matches_rebuild(up, set(clique) - {(0, 1)}) == set(clique)
    assert np.array_equal(up.core_numbers, core_decomposition(graph))
    assert up.graph.m == graph.m


def test_touched_covers_endpoints_and_core_changes():
    # Path 0-1-2-3 plus edge (0, 2) turns {0, 1, 2} into a triangle:
    # their cores rise from 1 to 2, and 3 stays at 1.
    graph = graph_from_edges([(0, 1), (1, 2), (2, 3)])
    report = GraphDelta(graph).apply(insert=[(0, 2)])
    assert set(report.touched.tolist()) >= {0, 1, 2}
    assert 3 not in report.touched.tolist()
    assert report.cores_changed == 3
    assert report.max_affected_core == 2


def test_batches_stack_like_sequential_applies():
    graph = weighted_gnm(60, 240, seed=11)
    inserts = absent_edges(graph)[:5]
    deletes = present_edges(graph)[:5]
    batched = GraphDelta(graph).apply(insert=inserts, delete=deletes)
    sequential = GraphDelta(graph)
    for edge in deletes:
        sequential.apply(delete=[edge])
    for edge in inserts:
        last = sequential.apply(insert=[edge])
    assert np.array_equal(batched.core_numbers, last.core_numbers)
    assert np.array_equal(
        batched.graph.csr.indices, last.graph.csr.indices
    )
    assert sequential.batches_applied == 10
    assert sequential.edges_applied == 10


@pytest.mark.parametrize("seed", range(6))
def test_randomized_batches_match_full_recompute(seed):
    rng = make_rng(seed)
    graph = weighted_gnm(40, int(rng.integers(20, 140)), seed=seed + 50)
    delta = GraphDelta(graph)
    expected = present_edges(graph)
    for round_index in range(3):
        gone = present_edges(delta.graph)
        free = absent_edges(delta.graph)
        rng.shuffle(gone)
        rng.shuffle(free)
        deletes = gone[: int(rng.integers(0, 4))]
        inserts = free[: int(rng.integers(0, 4))]
        if not deletes and not inserts:
            continue
        report = delta.apply(insert=inserts, delete=deletes)
        expected = assert_matches_rebuild(report, expected)


def test_large_batches_fall_back_to_recompute():
    graph = weighted_gnm(40, 80, seed=3)
    inserts = absent_edges(graph)[:10]
    report = GraphDelta(graph, batch_threshold=4).apply(insert=inserts)
    assert report.strategy == "recompute"
    assert_matches_rebuild(report, present_edges(graph))


def test_set_backend_is_the_slow_oracle():
    """The incremental repair agrees with the recompute path and with the
    reference set-adjacency core decomposition."""
    graph = weighted_gnm(40, 120, seed=9)
    inserts = absent_edges(graph)[:3]
    deletes = present_edges(graph)[:3]
    fast = GraphDelta(graph).apply(insert=inserts, delete=deletes)
    slow = GraphDelta(graph, batch_threshold=1).apply(
        insert=inserts, delete=deletes
    )
    assert fast.strategy == "incremental"
    assert slow.strategy == "recompute"
    assert np.array_equal(fast.core_numbers, slow.core_numbers)
    assert np.array_equal(
        slow.core_numbers, reference.core_decomposition(slow.graph)
    )
    assert np.array_equal(fast.graph.csr.indptr, slow.graph.csr.indptr)
    assert np.array_equal(fast.graph.csr.indices, slow.graph.csr.indices)
    assert fast.graph.csr.indices.dtype == slow.graph.csr.indices.dtype


# ----------------------------------------------------------------------
# Validation: a bad batch changes nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"insert": [(1, 1)]}, "self-loop"),
        ({"insert": [(0, 1), (1, 0)]}, "more than once"),
        ({"delete": [(0, 9), (9, 0)]}, "more than once"),
        ({"insert": [(0, 1, 2)]}, "pair"),
        ({"insert": [3]}, "pair"),
        ({"insert": "ab"}, "pair"),
        ({"insert": [("a", "b")]}, "integers"),
        ({"insert": [(0, True)]}, "integers"),
        ({}, "empty"),
        ({"insert": [(0, 2)], "delete": [(0, 2)]}, "both insert and delete"),
    ],
)
def test_malformed_batches_rejected(figure1, kwargs, message):
    delta = GraphDelta(figure1)
    with pytest.raises(GraphError, match=message):
        delta.apply(**kwargs)
    assert delta.batches_applied == 0
    assert delta.graph is figure1


def test_out_of_range_vertex_rejected(figure1):
    with pytest.raises(VertexError):
        GraphDelta(figure1).apply(insert=[(0, figure1.n)])
    with pytest.raises(VertexError):
        GraphDelta(figure1).apply(insert=[(-1, 0)])


def test_existing_edge_insert_and_missing_edge_delete_rejected(figure1):
    edge = present_edges(figure1)[0]
    missing = absent_edges(figure1)[0]
    with pytest.raises(GraphError, match="already exists"):
        GraphDelta(figure1).apply(insert=[edge])
    with pytest.raises(GraphError, match="does not exist"):
        GraphDelta(figure1).apply(delete=[missing])


def test_rejected_batch_is_atomic(figure1):
    # The second edge is bad; the first must not have been applied.
    delta = GraphDelta(figure1)
    good = absent_edges(figure1)[0]
    with pytest.raises(GraphError):
        delta.apply(insert=[good, (2, 2)])
    assert delta.graph is figure1
    assert not figure1.has_edge(*good)


def test_normalize_accepts_numpy_ints(figure1):
    pairs = normalize_edge_updates(
        [(np.int32(4), np.int64(2))], figure1.n, "insert"
    )
    assert pairs == [(2, 4)]


def test_validate_without_apply(figure1):
    inserts, deletes = GraphDelta.validate(
        figure1, insert=[absent_edges(figure1)[0]]
    )
    assert len(inserts) == 1 and deletes == []
    with pytest.raises(GraphError):
        GraphDelta.validate(figure1, insert=[], delete=[])


def test_bad_construction_arguments(figure1):
    with pytest.raises(GraphError, match="batch_threshold"):
        GraphDelta(figure1, batch_threshold=0)
    with pytest.raises(GraphError, match="core_numbers"):
        GraphDelta(figure1, core_numbers=np.zeros(3, dtype=np.int64))


# ----------------------------------------------------------------------
# Labels ride through patches (the constrained-query lifecycle)
# ----------------------------------------------------------------------
def test_labels_survive_patch(figure1):
    """Both delta strategies must carry ``graph.labels`` onto the patched
    graph — a dropped label array would silently turn every constrained
    query on a live-updated service into a SpecError."""
    labeled = figure1.with_labels([f"g:{v % 3}" for v in range(figure1.n)])
    for threshold in (64, 1):  # incremental, then recompute
        report = GraphDelta(labeled, batch_threshold=threshold).apply(
            insert=[absent_edges(labeled)[0]],
            delete=[present_edges(labeled)[0]],
        )
        assert report.graph.labels == labeled.labels


def test_labels_survive_patch_then_snapshot_roundtrip(figure1, tmp_path):
    """End to end: label the graph, patch it through a live service,
    snapshot, reload — the restored service still answers constrained
    queries, identically to a cold solve on the patched graph."""
    from repro.influential.api import top_r_communities
    from repro.serving.query import InfluentialQuery
    from repro.serving.service import QueryService
    from repro.serving.store import load_service, save_snapshot

    labeled = figure1.with_labels(
        ["g:db" if v % 2 == 0 else "g:ml" for v in range(figure1.n)]
    )
    service = QueryService(labeled)
    service.update_edges(insert=[absent_edges(labeled)[0]])
    assert service.graph.labels == labeled.labels

    save_snapshot(service, tmp_path / "snap")
    restored = load_service(tmp_path / "snap")
    assert restored.graph.labels == labeled.labels

    query = InfluentialQuery.create(
        {"k": 2, "r": 2, "f": "sum", "constraints": {"labels": {"prefix": "g:"}}}
    )
    served = restored.submit(query)
    cold = top_r_communities(
        service.graph, k=2, r=2, f="sum", labels={"prefix": "g:"}
    )
    assert served == cold and served.values() == cold.values()
