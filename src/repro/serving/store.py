"""Persistent graph snapshots: restart a service without recomputing.

A deployment pays three costs before its first answer: parsing/generating
the graph, flattening it to CSR, and running the core (and possibly
truss) decomposition.  All three are pure functions of the topology and
weights, so this module persists their outputs — the flat int CSR arrays,
the weight/label vectors, and the cached decompositions — as a directory
of raw ``.npy`` files plus a JSON manifest:

.. code-block:: text

    snapshot/
      manifest.json       format marker, counts, which arrays exist
      indptr.npy          int64, length n + 1
      indices.npy         int32 (int64 above 2^31 vertices), length 2m
      weights.npy         float64, length n
      core_numbers.npy    per-vertex core numbers (always present)
      labels.json         optional vertex labels
      truss_edges.npy     optional, (t, 2) int64 edge endpoints
      truss_values.npy    optional, per-edge truss numbers
      index_members.npy   optional (v2), concatenated community member ids
      index_offsets.npy   optional (v2), per-community delimiters
      index_values.npy    optional (v2), float64 per-community values

``load_snapshot`` memory-maps the arrays by default (``mmap_mode="r"``),
so a restarted server — or the Nth worker on one machine — touches pages
on demand instead of copying the graph; ``load_service`` goes one step
further and stands up a ready :class:`~repro.serving.service.QueryService`
whose decomposition caches are seeded from the snapshot, skipping the
re-peel entirely (the no-re-peel probe in ``tests/serving/test_snapshot``
pins this).

The manifest is written **last**, so a crashed save leaves a directory
without one — which loads refuse with a :class:`~repro.errors
.SnapshotError` instead of serving a torn graph.  Loads re-check array
lengths against the manifest and the CSR invariants against each other;
deeper trust (the arrays being a symmetric simple graph) follows from the
manifest marker, mirroring ``graph_from_csr_arrays(trusted=True)``.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

try:  # pragma: no cover — fcntl exists everywhere this repo targets
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from repro._version import __version__
from repro.errors import SnapshotError
from repro.graphs.builder import graph_from_csr_arrays
from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (service ↔ store)
    from repro.serving.service import QueryService

__all__ = ["Snapshot", "save_snapshot", "load_snapshot", "load_service"]

#: Manifest ``format`` marker — refuse anything else.
SNAPSHOT_FORMAT = "repro-graph-snapshot"
#: Bump on incompatible layout changes; loads refuse newer versions.
#: Version 2 added the optional precomputed community index arrays
#: (``index_members`` / ``index_offsets`` / ``index_values``).
SNAPSHOT_VERSION = 2
#: Versions this build can read (2 is a strict superset of 1).
SUPPORTED_VERSIONS = (1, 2)

_MANIFEST = "manifest.json"
#: flock'd while a save is in flight — serialises concurrent savers.
_SAVE_LOCK = ".save.lock"


@dataclass(frozen=True)
class Snapshot:
    """Everything a serving process needs, loaded (or mapped) from disk."""

    path: pathlib.Path
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    core_numbers: np.ndarray
    labels: list[str] | None
    truss_numbers: dict[tuple[int, int], int] | None
    manifest: dict
    #: :meth:`repro.index.InfluentialIndex.to_payload` form, when saved.
    index_payload: dict | None = None

    @property
    def n(self) -> int:
        """Number of vertices."""
        return int(self.indptr.size - 1)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    @property
    def replication_seq(self) -> int:
        """Last replication-log seq this snapshot absorbed (0 if unknown)."""
        value = self.manifest.get("replication_seq", 0)
        return int(value) if isinstance(value, int) else 0

    def graph(self) -> Graph:
        """The :class:`Graph` over the snapshot's CSR arrays."""
        graph = graph_from_csr_arrays(
            self.indptr,
            self.indices,
            self.weights,
            labels=self.labels,
            trusted=True,
        )
        return graph


def save_snapshot(
    service: "QueryService",
    path: "str | pathlib.Path",
    include_truss: "bool | str" = "auto",
    replication_seq: "int | None" = None,
) -> pathlib.Path:
    """Persist ``service``'s graph and cached decompositions to ``path``.

    ``include_truss`` controls the (optional) truss decomposition:
    ``"auto"`` saves it only if the service has already computed it,
    ``True`` forces the computation so the snapshot can serve
    ``cohesion="truss"`` traffic without a cold peel, ``False`` omits it.

    ``replication_seq`` records how far into a replication log this
    state reaches: a process starting from the snapshot tails the log
    from that seq instead of replaying history (see
    :mod:`repro.serving.replog`).  The periodic in-place refresh
    (``repro snapshot refresh``, ``repro serve --refresh-every``) is
    exactly this save with the absorbed seq stamped in.

    Returns the snapshot directory.  Overwrites any snapshot already at
    ``path``; the manifest is written last, so an interrupted save is
    detected (and refused) at load time rather than served.

    Concurrent saves into one directory are serialised by an exclusive
    ``flock`` on ``.save.lock``: each per-file rename below is atomic,
    but two interleaved savers (a fleet member's periodic refresh racing
    a sibling's, or an operator's ``repro snapshot refresh``) could
    otherwise leave arrays from one state next to a manifest from
    another.  Under that lock, a save carrying a ``replication_seq`` no
    newer than the seq already stamped on disk is skipped — replay is
    deterministic, so an equal seq means an identical state, and an
    older one would regress the snapshot a racing refresher just wrote.
    """
    if include_truss not in (True, False, "auto"):
        raise SnapshotError(
            f"include_truss must be True, False or 'auto', got {include_truss!r}"
        )
    root = pathlib.Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / _SAVE_LOCK, "ab") as lock_handle:
        if fcntl is not None:
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
        try:
            _save_snapshot_locked(service, root, include_truss, replication_seq)
        finally:
            if fcntl is not None:
                fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
    return root


def _manifest_replication_seq(root: pathlib.Path) -> "int | None":
    """``replication_seq`` of the complete snapshot at ``root``, if any."""
    try:
        manifest = json.loads((root / _MANIFEST).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict):
        return None
    value = manifest.get("replication_seq")
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def _save_snapshot_locked(
    service: "QueryService",
    root: pathlib.Path,
    include_truss: "bool | str",
    replication_seq: "int | None",
) -> None:
    if replication_seq is not None:
        existing = _manifest_replication_seq(root)
        if existing is not None and existing >= int(replication_seq):
            return
    graph = service.graph
    csr = graph.csr
    stale = root / _MANIFEST
    if stale.exists():
        stale.unlink()  # an interrupted overwrite must not look complete

    def _save_array(name: str, array: np.ndarray) -> None:
        # Temp-write + fsync + rename: the service being saved may be
        # *backed by this very directory* (load_service → update_weights →
        # save_snapshot refresh).  Truncating indptr.npy in place would
        # tear the read-only memmap we are about to read from; renaming
        # swaps the directory entry while open memmaps keep the old inode.
        # The fsync makes manifest-written-last hold across power loss,
        # not just process crashes (delayed allocation could otherwise
        # persist the manifest before the array data blocks).  The pid in
        # the temp name keeps two refreshers (a fleet member's periodic
        # refresh racing an operator's `repro snapshot refresh`, say) from
        # truncating each other's half-written temp files; last rename
        # wins either way, and both candidates are complete.
        tmp = root / f"{name}.npy.{os.getpid()}.tmp"
        with open(tmp, "wb") as handle:  # np.save(path) would append .npy
            np.save(handle, array, allow_pickle=False)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(root / f"{name}.npy")

    def _save_text(name: str, text: str) -> None:
        tmp = root / f"{name}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(root / name)

    _save_array("indptr", csr.indptr)
    _save_array("indices", csr.indices)
    _save_array("weights", graph.weights)
    _save_array("core_numbers", service.core_numbers)
    if graph.labels is not None:
        _save_text("labels.json", json.dumps(graph.labels))

    # peek_truss_numbers (rather than the raw attribute) matters for a
    # service that has absorbed edge-update deltas: it refreshes any
    # lazily pending components, so a snapshot never persists a partially
    # evicted truss cache.
    truss = service.peek_truss_numbers() if include_truss == "auto" else None
    if include_truss is True:
        truss = service.truss_numbers
    has_truss = include_truss is not False and truss is not None
    if has_truss:
        items = sorted(truss.items())
        edges = np.array(
            [edge for edge, __ in items], dtype=np.int64
        ).reshape(len(items), 2)
        values = np.array([t for __, t in items], dtype=np.int64)
        _save_array("truss_edges", edges)
        _save_array("truss_values", values)

    index = service.index
    has_index = index is not None and index.built
    index_manifest = None
    if has_index:
        payload = index.to_payload()
        _save_array("index_members", payload["members"])
        _save_array("index_offsets", payload["offsets"])
        _save_array("index_values", payload["values"])
        # The array-shaped half lives in .npy files (mmap-friendly); the
        # per-level header is small and rides in the manifest.
        index_manifest = {
            "depth": payload["depth"],
            "aggregators": payload["aggregators"],
            "entries": payload["entries"],
        }

    manifest = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "created_by": __version__,
        "n": graph.n,
        "m": graph.m,
        "kmax": service.kmax,
        "has_labels": graph.labels is not None,
        "has_truss": has_truss,
        "has_index": has_index,
        "index": index_manifest,
        "indices_dtype": str(csr.indices.dtype),
    }
    if replication_seq is not None:
        manifest["replication_seq"] = int(replication_seq)
    # Flush the directory entries (all the renames above) before the
    # manifest lands: its presence must imply the arrays are durable.
    directory = os.open(root, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    _save_text(_MANIFEST, json.dumps(manifest, indent=2) + "\n")


def _load_array(
    root: pathlib.Path, name: str, mmap: bool, expected_len: int | None
) -> np.ndarray:
    file = root / f"{name}.npy"
    if not file.exists():
        raise SnapshotError(
            f"snapshot {root} is missing {file.name} — partial or corrupt"
        )
    try:
        array = np.load(file, mmap_mode="r" if mmap else None)
    except Exception as exc:  # numpy raises ValueError/OSError on garbage
        raise SnapshotError(f"snapshot array {file} is unreadable: {exc}")
    if expected_len is not None and array.shape[0] != expected_len:
        raise SnapshotError(
            f"snapshot array {file.name} has length {array.shape[0]}, "
            f"manifest promises {expected_len}"
        )
    return array


def load_snapshot(
    path: "str | pathlib.Path", mmap: bool = True
) -> Snapshot:
    """Read (or memory-map) a snapshot directory back into arrays.

    ``mmap=True`` (the default) opens every array with ``mmap_mode="r"``:
    nothing is copied until a kernel touches it, and N processes loading
    the same snapshot share the page cache.  Raises
    :class:`~repro.errors.SnapshotError` on anything that is not a
    complete, self-consistent snapshot: a missing/garbled manifest (the
    signature of an interrupted save), missing or truncated arrays, or
    lengths that contradict the manifest.
    """
    root = pathlib.Path(path)
    if not root.is_dir():
        raise SnapshotError(f"snapshot path {root} is not a directory")
    manifest_file = root / _MANIFEST
    if not manifest_file.exists():
        raise SnapshotError(
            f"{root} has no {_MANIFEST} — not a snapshot, or a save that "
            f"did not complete"
        )
    try:
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"snapshot manifest {manifest_file} is garbled: {exc}")
    if not isinstance(manifest, dict) or manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{manifest_file} is not a {SNAPSHOT_FORMAT} manifest"
        )
    version = manifest.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise SnapshotError(
            f"snapshot version {version!r} is not supported "
            f"(this build reads versions {SUPPORTED_VERSIONS})"
        )
    try:
        n, m = int(manifest["n"]), int(manifest["m"])
    except (KeyError, TypeError, ValueError):
        raise SnapshotError(f"snapshot manifest {manifest_file} lacks n/m counts")

    indptr = _load_array(root, "indptr", mmap, n + 1)
    indices = _load_array(root, "indices", mmap, 2 * m)
    weights = _load_array(root, "weights", mmap, n)
    cores = _load_array(root, "core_numbers", mmap, n)
    if indptr.ndim != 1 or int(indptr[-1]) != indices.shape[0]:
        raise SnapshotError(
            f"snapshot {root}: indptr[-1] != len(indices) — arrays are torn"
        )

    labels: list[str] | None = None
    if manifest.get("has_labels"):
        label_file = root / "labels.json"
        if not label_file.exists():
            raise SnapshotError(f"snapshot {root} is missing labels.json")
        try:
            labels = json.loads(label_file.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SnapshotError(f"snapshot labels {label_file} are garbled: {exc}")
        if not isinstance(labels, list) or len(labels) != n:
            raise SnapshotError(
                f"snapshot {root}: labels.json does not hold {n} labels"
            )

    truss: dict[tuple[int, int], int] | None = None
    if manifest.get("has_truss"):
        edges = _load_array(root, "truss_edges", mmap, None)
        values = _load_array(root, "truss_values", mmap, None)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.shape[0] != values.shape[0]:
            raise SnapshotError(
                f"snapshot {root}: truss arrays disagree "
                f"({edges.shape} edges vs {values.shape} values)"
            )
        if edges.shape[0] != m:
            raise SnapshotError(
                f"snapshot {root}: {edges.shape[0]} truss edges for {m} edges"
            )
        truss = {
            (int(u), int(v)): int(t)
            for (u, v), t in zip(edges, values)
        }

    index_payload: dict | None = None
    if manifest.get("has_index"):
        header = manifest.get("index")
        if not isinstance(header, dict) or not isinstance(
            header.get("entries"), list
        ):
            raise SnapshotError(
                f"snapshot {root}: manifest promises an index but carries "
                f"no per-level header"
            )
        members = _load_array(root, "index_members", mmap, None)
        offsets = _load_array(root, "index_offsets", mmap, None)
        values = _load_array(root, "index_values", mmap, None)
        total = sum(
            0 if entry.get("pending") else int(entry.get("count", 0))
            for entry in header["entries"]
        )
        if (
            offsets.ndim != 1
            or offsets.shape[0] != total + 1
            or values.shape[0] != total
            or members.shape[0] != int(offsets[-1] if offsets.size else 0)
        ):
            raise SnapshotError(
                f"snapshot {root}: index arrays disagree with the manifest "
                f"({total} communities promised)"
            )
        index_payload = {
            "depth": int(header.get("depth", 0)),
            "aggregators": header.get("aggregators", []),
            "entries": header["entries"],
            "members": members,
            "offsets": offsets,
            "values": values,
        }

    return Snapshot(
        path=root,
        indptr=indptr,
        indices=indices,
        weights=weights,
        core_numbers=cores,
        labels=labels,
        truss_numbers=truss,
        manifest=manifest,
        index_payload=index_payload,
    )


def load_service(
    path: "str | pathlib.Path",
    mmap: bool = True,
    cache_size: int = 1024,
    pool_capacity: int = 1024,
) -> "QueryService":
    """A ready :class:`~repro.serving.service.QueryService` from a snapshot.

    The graph wraps the mapped CSR arrays (no flattening), and
    the service's core — and, when saved, truss — decomposition caches
    are injected from the snapshot, so the cold-start cost is file
    mapping plus an O(m) array check: no peel runs before the first
    query.
    """
    from repro.index import InfluentialIndex
    from repro.serving.service import QueryService

    snapshot = load_snapshot(path, mmap=mmap)
    index = None
    if snapshot.index_payload is not None:
        index = InfluentialIndex.from_payload(snapshot.index_payload)
    return QueryService(
        snapshot.graph(),
        cache_size=cache_size,
        pool_capacity=pool_capacity,
        core_numbers=np.asarray(snapshot.core_numbers),
        truss_numbers=snapshot.truss_numbers,
        index=index,
    )
