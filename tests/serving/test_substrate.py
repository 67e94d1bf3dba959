"""SharedSubstrate: one copy of the graph, many attached services.

The acceptance bar is byte-identical serving: a service built over an
attached substrate (shm segments or a snapshot directory) must answer
every query exactly like the service it was published from — and the
segments must never outlive their owner's unlink.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.serving.service import QueryService
from repro.serving.store import save_snapshot
from repro.serving.substrate import (
    SEGMENT_PREFIX,
    SharedSubstrate,
    SubstrateError,
)


def _shm_segments() -> list[str]:
    try:
        return [
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        ]
    except FileNotFoundError:  # pragma: no cover — non-Linux
        return []


@pytest.fixture
def published(figure1):
    service = QueryService(figure1)
    substrate = SharedSubstrate.publish(service)
    try:
        yield service, substrate
    finally:
        substrate.unlink()


def test_publish_attach_roundtrip(published):
    service, substrate = published
    attached = SharedSubstrate.attach(substrate.descriptor())
    try:
        twin = attached.build_service()
        graph = twin.graph
        assert graph.n == service.graph.n
        assert graph.m == service.graph.m
        original = service.submit({"k": 2, "r": 2, "f": "sum"})
        mirrored = twin.submit({"k": 2, "r": 2, "f": "sum"})
        assert [sorted(c.vertices) for c in mirrored] == [
            sorted(c.vertices) for c in original
        ]
        assert mirrored.values() == original.values()
    finally:
        attached.close()


def test_attached_views_are_readonly(published):
    _service, substrate = published
    attached = SharedSubstrate.attach(substrate.descriptor())
    try:
        twin = attached.build_service()
        csr = twin.graph.csr
        with pytest.raises((ValueError, RuntimeError)):
            csr.indices[0] = 99
    finally:
        attached.close()


def test_core_numbers_carried_not_recomputed(published):
    service, substrate = published
    attached = SharedSubstrate.attach(substrate.descriptor())
    try:
        twin = attached.build_service()
        assert np.array_equal(
            twin.core_numbers, service.core_numbers
        )
    finally:
        attached.close()


def test_unlink_removes_segments(figure1):
    before = set(_shm_segments())
    substrate = SharedSubstrate.publish(QueryService(figure1))
    created = set(_shm_segments()) - before
    assert created, "publish created no /dev/shm segments"
    substrate.unlink()
    assert not (set(_shm_segments()) & created)
    # Unlink is idempotent.
    substrate.unlink()


def test_unlinked_substrate_stays_usable_in_attacher(figure1):
    # POSIX shm semantics: unlink removes the name, not live mappings —
    # an attacher that already mapped keeps serving.
    service = QueryService(figure1)
    substrate = SharedSubstrate.publish(service)
    attached = SharedSubstrate.attach(substrate.descriptor())
    substrate.unlink()
    try:
        twin = attached.build_service()
        assert twin.graph.m == service.graph.m
    finally:
        attached.close()


def test_snapshot_kind_substrate(figure1, tmp_path):
    service = QueryService(figure1)
    path = save_snapshot(service, tmp_path / "snap")
    substrate = SharedSubstrate.from_snapshot(path)
    try:
        twin = substrate.build_service()
        original = service.submit({"k": 2, "r": 2, "f": "sum"})
        mirrored = twin.submit({"k": 2, "r": 2, "f": "sum"})
        assert mirrored.values() == original.values()
        # Snapshot substrates own nothing in /dev/shm.
        assert substrate.descriptor()["kind"] == "snapshot"
    finally:
        substrate.close()


def test_index_travels_through_substrate(figure1):
    service = QueryService(figure1)
    service.enable_index(depth=4)
    substrate = SharedSubstrate.publish(service)
    try:
        attached = SharedSubstrate.attach(substrate.descriptor())
        try:
            twin = attached.build_service()
            assert twin.index is not None
            assert twin.index.depth == service.index.depth
        finally:
            attached.close()
    finally:
        substrate.unlink()


def test_attach_rejects_garbage_descriptor():
    with pytest.raises(SubstrateError):
        SharedSubstrate.attach({"kind": "shm", "arrays": {}})
    with pytest.raises(SubstrateError):
        SharedSubstrate.attach({"kind": "nope"})
