"""Snapshot round-trips: save → load preserves everything, recomputes nothing.

Three layers of guarantees:

* **fidelity** — topology, weights, labels and the cached core/truss
  decompositions survive a save/load cycle bit for bit, and a loaded
  service answers queries identically to a cold one — on the CSR engine
  and on the reference set engine;
* **no re-peel** — a loaded service never calls ``core_decomposition`` or
  ``truss_decomposition`` again (asserted with call-count probes), which
  is the whole point of persisting;
* **corruption** — every partial/torn/garbled snapshot shape raises
  :class:`~repro.errors.SnapshotError` instead of serving bad data (the
  manifest is written last, so an interrupted save has no manifest).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import SnapshotError, SolverError
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.influential.api import top_r_communities, top_r_many
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService
from repro.serving.store import (
    SNAPSHOT_VERSION,
    load_service,
    load_snapshot,
    save_snapshot,
)
from repro.serving.substrate import SharedSubstrate
from repro.utils.rng import make_rng
from tests.conftest import ENGINES, engine


@pytest.fixture
def labelled_graph():
    """A small random graph with non-trivial weights and labels."""
    graph = gnm_random_graph(60, 180, seed=11)
    graph = graph.with_weights(make_rng(12).uniform(0.5, 9.5, graph.n))
    return graph.with_labels([f"node-{i:03d}" for i in range(graph.n)])


@pytest.fixture
def saved(labelled_graph, tmp_path):
    """A service with core *and* truss caches warm, saved to disk."""
    service = QueryService(labelled_graph)
    service.truss_numbers  # noqa: B018 — warm so the snapshot carries it
    path = save_snapshot(service, tmp_path / "snap")
    return service, path


# ----------------------------------------------------------------------
# Fidelity
# ----------------------------------------------------------------------
def test_snapshot_arrays_match_source(saved):
    service, path = saved
    snapshot = load_snapshot(path)
    csr = service.graph.csr
    assert snapshot.n == service.graph.n
    assert snapshot.m == service.graph.m
    np.testing.assert_array_equal(np.asarray(snapshot.indptr), csr.indptr)
    np.testing.assert_array_equal(np.asarray(snapshot.indices), csr.indices)
    np.testing.assert_array_equal(
        np.asarray(snapshot.weights), service.graph.weights
    )
    np.testing.assert_array_equal(
        np.asarray(snapshot.core_numbers), service.core_numbers
    )
    assert snapshot.labels == service.graph.labels
    assert snapshot.truss_numbers == service.truss_numbers
    assert snapshot.manifest["kmax"] == service.kmax


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("mmap", [True, False])
def test_loaded_service_answers_identically(saved, engine_name, mmap):
    service, path = saved
    loaded = load_service(path, mmap=mmap)
    graph = loaded.graph
    assert sorted(graph.edges()) == sorted(service.graph.edges())
    np.testing.assert_array_equal(graph.weights, service.graph.weights)
    assert graph.labels == service.graph.labels
    queries = [
        InfluentialQuery(k=2, r=3, f="sum"),
        InfluentialQuery(k=3, r=2, f="sum", eps=0.1),
        InfluentialQuery(k=2, r=2, f="min"),
        InfluentialQuery(k=2, r=2, f="avg", s=8),
        InfluentialQuery(k=3, r=2, f="sum", cohesion="truss"),
        InfluentialQuery(k=10_000, r=1, f="sum"),  # far above kmax
    ]
    for query in queries:
        with engine(engine_name):
            produced = loaded.submit(query)
        expected = service.submit(query)
        assert produced == expected
        assert produced.values() == expected.values()


def test_loaded_service_matches_cold_api(saved):
    service, path = saved
    loaded = load_service(path)
    cold = top_r_communities(service.graph, k=3, r=4, f="sum")
    assert loaded.submit(InfluentialQuery(k=3, r=4, f="sum")) == cold


def test_top_r_many_accepts_snapshot(saved):
    service, path = saved
    queries = [{"k": 2, "r": 2, "f": "sum"}, {"k": 3, "r": 1, "f": "sum"}]
    via_snapshot = top_r_many(None, queries, snapshot=path)
    via_service = top_r_many(None, queries, service=QueryService(service.graph))
    assert via_snapshot == via_service
    with pytest.raises(SolverError):
        top_r_many(service.graph, queries, snapshot=path)
    with pytest.raises(SolverError):
        top_r_many(None, queries)


def test_roundtrip_without_labels_or_truss(tmp_path):
    graph = gnm_random_graph(30, 90, seed=3).with_weights(
        make_rng(4).uniform(1.0, 5.0, 30)
    )
    service = QueryService(graph)
    path = save_snapshot(service, tmp_path / "plain")
    snapshot = load_snapshot(path)
    assert snapshot.labels is None
    assert snapshot.truss_numbers is None
    loaded = load_service(path)
    query = InfluentialQuery(k=2, r=2, f="sum")
    assert loaded.submit(query) == service.submit(query)


def test_empty_graph_roundtrip(tmp_path):
    service = QueryService(GraphBuilder(0).build())
    path = save_snapshot(service, tmp_path / "empty")
    loaded = load_service(path)
    assert loaded.graph.n == 0
    assert loaded.kmax == 0
    assert len(loaded.submit(InfluentialQuery(k=2, r=1, f="sum"))) == 0


def test_include_truss_forces_computation(labelled_graph, tmp_path):
    service = QueryService(labelled_graph)  # truss cache cold
    path = save_snapshot(service, tmp_path / "forced", include_truss=True)
    assert load_snapshot(path).truss_numbers == service.truss_numbers
    omitted = save_snapshot(service, tmp_path / "omitted", include_truss=False)
    assert load_snapshot(omitted).truss_numbers is None
    with pytest.raises(SnapshotError):
        save_snapshot(service, tmp_path / "bad", include_truss="maybe")


def test_refresh_snapshot_in_place_from_its_own_mmap(saved):
    """The ROADMAP refresh flow: load a snapshot, reweight, save back to
    the same directory — the mmapped source arrays must survive the
    overwrite (regression: in-place np.save truncated the file the
    service's own memmap was reading, destroying the snapshot)."""
    service, path = saved
    loaded = load_service(path)  # mmap-backed (the default)
    new_weights = np.linspace(1.0, 2.0, loaded.graph.n)
    loaded.update_weights(new_weights)
    save_snapshot(loaded, path)  # refresh the directory it is mapped from
    refreshed = load_service(path)
    np.testing.assert_array_equal(refreshed.graph.weights, new_weights)
    assert sorted(refreshed.graph.edges()) == sorted(service.graph.edges())
    np.testing.assert_array_equal(
        refreshed.core_numbers, service.core_numbers
    )
    assert refreshed.truss_numbers == service.truss_numbers
    query = InfluentialQuery(k=2, r=2, f="sum")
    assert refreshed.submit(query) == loaded.submit(query)


def test_save_overwrites_previous_snapshot(saved, tmp_path):
    service, path = saved
    again = save_snapshot(service, path)
    assert again == path
    assert load_service(again).submit(
        InfluentialQuery(k=2, r=1, f="sum")
    ) == service.submit(InfluentialQuery(k=2, r=1, f="sum"))


def test_save_skips_replication_seq_regression(figure1, tmp_path):
    """Racing refreshers must not roll the snapshot back: a save whose
    ``replication_seq`` is not newer than the one on disk is a no-op
    (replay is deterministic, so equal seq means identical state)."""
    path = tmp_path / "snap"
    ahead = QueryService(figure1)
    ahead.update_weights([5.0] * figure1.n)
    save_snapshot(ahead, path, replication_seq=5)

    behind = QueryService(figure1)  # a laggard replica's older state
    for stale_seq in (3, 5):
        save_snapshot(behind, path, replication_seq=stale_seq)
        kept = load_snapshot(path)
        assert kept.replication_seq == 5
        np.testing.assert_array_equal(kept.weights, [5.0] * figure1.n)

    newer = QueryService(figure1)
    newer.update_weights([7.0] * figure1.n)
    save_snapshot(newer, path, replication_seq=6)
    advanced = load_snapshot(path)
    assert advanced.replication_seq == 6
    np.testing.assert_array_equal(advanced.weights, [7.0] * figure1.n)


# ----------------------------------------------------------------------
# No re-peel: the call-count probes
# ----------------------------------------------------------------------
def test_load_service_never_repeels_cores(saved, monkeypatch):
    __, path = saved
    calls = {"count": 0}
    import repro.serving.engine_pool as engine_pool

    original = engine_pool.core_decomposition

    def probe(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_pool, "core_decomposition", probe)
    loaded = load_service(path)
    loaded.submit(InfluentialQuery(k=2, r=2, f="sum"))
    loaded.submit(InfluentialQuery(k=3, r=1, f="sum", eps=0.1))
    assert calls["count"] == 0, "loaded service re-ran the core decomposition"


def test_load_service_never_repeels_truss(saved, monkeypatch):
    __, path = saved
    import repro.truss.decomposition as truss_module

    def explode(*args, **kwargs):  # pragma: no cover — must never run
        raise AssertionError("loaded service re-ran the truss decomposition")

    monkeypatch.setattr(truss_module, "truss_decomposition", explode)
    loaded = load_service(path)
    result = loaded.submit(InfluentialQuery(k=3, r=2, f="sum", cohesion="truss"))
    assert loaded.tmax >= 2
    assert result is not None


def test_cold_service_does_peel(labelled_graph, monkeypatch):
    """Control for the probes: without a snapshot the peel *does* run."""
    calls = {"count": 0}
    import repro.serving.engine_pool as engine_pool

    original = engine_pool.core_decomposition

    def probe(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_pool, "core_decomposition", probe)
    QueryService(labelled_graph)
    assert calls["count"] == 1


def test_substrate_ships_decompositions(saved, monkeypatch):
    """Fleet members inherit the caches instead of re-peeling."""
    service, __ = saved
    import repro.serving.engine_pool as engine_pool

    def no_peel(*args, **kwargs):
        raise AssertionError("attached service re-ran the core decomposition")

    substrate = SharedSubstrate.publish(service)
    try:
        attached = SharedSubstrate.attach(substrate.descriptor())
        try:
            monkeypatch.setattr(engine_pool, "core_decomposition", no_peel)
            twin = attached.build_service()
            np.testing.assert_array_equal(
                twin.core_numbers, service.core_numbers
            )
            assert twin.peek_truss_numbers() == service.truss_numbers
        finally:
            attached.close()
    finally:
        substrate.unlink()


# ----------------------------------------------------------------------
# Corrupt / partial snapshots
# ----------------------------------------------------------------------
def test_load_missing_directory(tmp_path):
    with pytest.raises(SnapshotError, match="not a directory"):
        load_snapshot(tmp_path / "never-saved")


def test_load_plain_file(tmp_path):
    file = tmp_path / "file.npy"
    file.write_bytes(b"not a directory")
    with pytest.raises(SnapshotError, match="not a directory"):
        load_snapshot(file)


def test_interrupted_save_has_no_manifest(saved):
    __, path = saved
    (path / "manifest.json").unlink()
    with pytest.raises(SnapshotError, match="manifest"):
        load_snapshot(path)


def test_garbled_manifest(saved):
    __, path = saved
    (path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(SnapshotError, match="garbled"):
        load_snapshot(path)


def test_foreign_manifest(saved):
    __, path = saved
    (path / "manifest.json").write_text(
        json.dumps({"format": "something-else", "version": 1})
    )
    with pytest.raises(SnapshotError, match="manifest"):
        load_snapshot(path)


def test_unsupported_version(saved):
    __, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["version"] = SNAPSHOT_VERSION + 1
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="version"):
        load_snapshot(path)


@pytest.mark.parametrize(
    "missing", ["indptr", "indices", "weights", "core_numbers", "truss_edges"]
)
def test_missing_array_file(saved, missing):
    __, path = saved
    (path / f"{missing}.npy").unlink()
    with pytest.raises(SnapshotError, match="missing"):
        load_snapshot(path)


def test_truncated_array_file(saved):
    __, path = saved
    file = path / "indices.npy"
    raw = file.read_bytes()
    file.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_manifest_count_mismatch(saved):
    __, path = saved
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["n"] += 1
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="length"):
        load_snapshot(path)


def test_missing_labels_file(saved):
    __, path = saved
    (path / "labels.json").unlink()
    with pytest.raises(SnapshotError, match="labels"):
        load_snapshot(path)


def test_garbled_labels_file(saved):
    __, path = saved
    (path / "labels.json").write_text("[truncated", encoding="utf-8")
    with pytest.raises(SnapshotError, match="labels"):
        load_snapshot(path)


def test_torn_truss_arrays(saved):
    __, path = saved
    values = np.load(path / "truss_values.npy")
    np.save(path / "truss_values.npy", values[:-1])
    with pytest.raises(SnapshotError, match="truss"):
        load_snapshot(path)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_snapshot_cli_save_then_load(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "cli-snap"
    assert main(["snapshot", "save", "--dataset", "email", "--out", str(out)]) == 0
    assert main(["snapshot", "load", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "no decompositions recomputed" in printed
    assert "repro-graph-snapshot" in printed


def test_snapshot_cli_dataset_weights_override(tmp_path):
    """--weights must override a stand-in dataset's baked-in weights
    (regression: it was silently ignored whenever --dataset was used)."""
    from repro.cli import main

    snapshot = load_snapshot  # imported at module top
    weights_file = tmp_path / "w.txt"
    out = tmp_path / "weighted-snap"
    # email has 1200 vertices; weight everything 2.5
    weights_file.write_text(
        "\n".join(f"{i} 2.5" for i in range(1200)) + "\n"
    )
    assert main([
        "snapshot", "save", "--dataset", "email",
        "--weights", str(weights_file), "--out", str(out),
    ]) == 0
    loaded = snapshot(out)
    assert np.asarray(loaded.weights).min() == 2.5
    assert np.asarray(loaded.weights).max() == 2.5


def test_snapshot_cli_load_rejects_corrupt(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "cli-bad"
    assert main(["snapshot", "save", "--dataset", "email", "--out", str(out)]) == 0
    (out / "weights.npy").unlink()
    assert main(["snapshot", "load", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
