"""The zero-copy substrate: one copy of the graph per *machine*.

A fleet member (:mod:`repro.serving.fleet`) must not hold its own copy
of the CSR arrays, weights, labels, decompositions and index arrays.  A
:class:`SharedSubstrate` hands it a *descriptor* instead (a small
JSON-able dict) naming where the real bytes live, in one of two
places:

* ``kind="shm"`` — POSIX shared-memory segments
  (:mod:`multiprocessing.shared_memory`).  The owner copies each array
  into a named segment exactly once; attachers wrap the segment buffer
  in a read-only numpy view.  Used when the service was built in memory
  (no snapshot directory to point at).
* ``kind="snapshot"`` — an existing snapshot directory
  (:mod:`repro.serving.store`).  The descriptor is just the path;
  attachers ``load_snapshot(mmap=True)`` and share the page cache.
  Used by the serving fleet when it already starts from a snapshot —
  zero additional copies, not even the owner's.

Either way, attachers build their :class:`~repro.serving.service
.QueryService` over a graph that wraps the shared CSR arrays themselves;
its neighbour-set view (:class:`repro.graphs.lazy.LazyAdjacency`) builds
sets only for the vertices a process touches, so the private
per-process heap is bounded by that instead of O(n + 2m) up front.
``benchmarks/bench_fleet.py`` measures that per-member footprint against
a control process.

Ownership and unlinking
-----------------------
Exactly one process — the one that called :meth:`publish` — owns the
``shm`` segments and must :meth:`unlink` them (attachers only
:meth:`close`).  Segment names carry a ``repro-`` prefix plus the
owner's pid, so a leak check is ``ls /dev/shm | grep repro-`` and a
crashed owner is attributable.  An ``atexit`` backstop unlinks anything
a dying owner still holds.  On Python < 3.13 the attach side must
un-register from the ``resource_tracker`` (attaching registers
unconditionally there), else the *attacher's* exit would unlink the
owner's live segments — the classic shared-memory footgun.
"""

from __future__ import annotations

import atexit
import json
import os
import pathlib
import secrets
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SnapshotError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.serving.service import QueryService

__all__ = ["SharedSubstrate", "SubstrateError"]

#: Every segment this module creates starts with this, so stray segments
#: in /dev/shm are attributable (and grep-able by the CI leak check).
SEGMENT_PREFIX = "repro-"

#: Array fields a substrate can carry; truss/index fields are optional.
_ARRAY_FIELDS = (
    "indptr",
    "indices",
    "weights",
    "core_numbers",
    "truss_edges",
    "truss_values",
    "index_members",
    "index_offsets",
    "index_values",
)

_LIVE_OWNERS: "set[SharedSubstrate]" = set()


class SubstrateError(RuntimeError):
    """A substrate could not be published, attached, or validated."""


def _unlink_live_owners() -> None:  # pragma: no cover — atexit path
    for substrate in list(_LIVE_OWNERS):
        try:
            substrate.unlink()
        except Exception:
            pass


atexit.register(_unlink_live_owners)


_TRACKER_PATCH_LOCK = threading.Lock()


def _open_segment(
    name: str, create: bool = False, size: int = 0
) -> shared_memory.SharedMemory:
    """Open a shared-memory segment *outside* resource-tracker custody.

    Lifetime here is explicit — the publishing owner unlinks, with an
    ``atexit`` backstop — and the tracker actively fights that model on
    Python < 3.13: every open (even a read-only attach) registers with
    one shared daemon, whose per-name bookkeeping is a set, so a fork
    sibling exiting can unlink the owner's live segments and concurrent
    unregisters race into KeyError noise.  ``track=False`` (3.13+) is
    the sanctioned opt-out; older interpreters get the same effect by
    patching the register hook away around the constructor call.
    """
    try:
        return shared_memory.SharedMemory(
            name=name, create=create, size=size, track=False
        )
    except TypeError:  # Python < 3.13: no track= parameter
        pass
    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=create, size=size)
        finally:
            resource_tracker.register = original


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    """Destroy a segment opened by :func:`_open_segment`.

    ``SharedMemory.unlink`` additionally unregisters from the tracker,
    which never heard of the segment (see above) and logs a KeyError
    from its daemon if told to forget it — so on interpreters without
    ``track=False`` support the POSIX unlink is called directly.
    """
    if getattr(shm, "_track", None) is False:  # 3.13+: unlink() skips tracker
        shm.unlink()
        return
    try:
        import _posixshmem

        _posixshmem.shm_unlink(shm._name)
    except ImportError:  # pragma: no cover — non-POSIX fallback
        shm.unlink()


class SharedSubstrate:
    """One machine-wide read-only home for a service's heavy arrays."""

    def __init__(
        self,
        kind: str,
        descriptor: dict,
        arrays: dict[str, np.ndarray],
        labels: "list[str] | None",
        segments: "list[shared_memory.SharedMemory] | None" = None,
        owner: bool = False,
    ) -> None:
        self._kind = kind
        self._descriptor = descriptor
        self._arrays = arrays
        self._labels = labels
        self._segments = segments or []
        self._owner = owner
        self._closed = False
        self._unlinked = False
        if owner:
            _LIVE_OWNERS.add(self)

    # ------------------------------------------------------------------
    # Construction: publish / from_snapshot / attach
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, service: "QueryService") -> "SharedSubstrate":
        """Copy ``service``'s arrays into fresh shared-memory segments.

        The returned substrate is the **owner**: it must outlive every
        attacher and eventually :meth:`unlink`.  The copies happen here,
        once; attachers never copy.
        """
        graph = service.graph
        csr = graph.csr
        arrays: dict[str, np.ndarray] = {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "weights": graph.weights,
            "core_numbers": np.asarray(service.core_numbers),
        }
        # Never ship a partially evicted truss cache, and never force a
        # cold peel either: publishing must stay cheap.
        truss = service.peek_truss_numbers() if not service.truss_pending else None
        if truss is not None:
            items = sorted(truss.items())
            arrays["truss_edges"] = np.array(
                [edge for edge, __ in items], dtype=np.int64
            ).reshape(len(items), 2)
            arrays["truss_values"] = np.array(
                [t for __, t in items], dtype=np.int64
            )
        index = service.index
        index_header = None
        if index is not None and index.built:
            payload = index.to_payload()
            arrays["index_members"] = np.asarray(payload["members"])
            arrays["index_offsets"] = np.asarray(payload["offsets"])
            arrays["index_values"] = np.asarray(payload["values"])
            index_header = {
                "depth": payload["depth"],
                "aggregators": payload["aggregators"],
                "entries": payload["entries"],
            }

        token = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        segments: list[shared_memory.SharedMemory] = []
        views: dict[str, np.ndarray] = {}
        entries: dict[str, dict] = {}
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = _open_segment(
                    f"{token}-{name}", create=True, size=max(1, array.nbytes)
                )
                segments.append(segment)
                if array.nbytes:
                    target = np.ndarray(
                        array.shape, dtype=array.dtype, buffer=segment.buf
                    )
                    target[...] = array
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf
                )
                view.flags.writeable = False
                views[name] = view
                entries[name] = {
                    "segment": segment.name,
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                }
            labels = graph.labels
            labels_entry = None
            if labels is not None:
                encoded = json.dumps(labels).encode("utf-8")
                segment = _open_segment(
                    f"{token}-labels", create=True, size=max(1, len(encoded))
                )
                segments.append(segment)
                segment.buf[: len(encoded)] = encoded
                labels_entry = {"segment": segment.name, "size": len(encoded)}
        except Exception:
            for segment in segments:
                try:
                    segment.close()
                    _unlink_segment(segment)
                except Exception:
                    pass
            raise
        descriptor = {
            "kind": "shm",
            "arrays": entries,
            "labels": labels_entry,
            "index": index_header,
        }
        return cls(
            "shm", descriptor, views, labels, segments=segments, owner=True
        )

    @classmethod
    def from_snapshot(cls, path: "str | pathlib.Path") -> "SharedSubstrate":
        """A substrate whose bytes *are* an existing snapshot directory.

        Nothing is copied and nothing needs unlinking: the descriptor is
        the path, and every attacher memory-maps the same files.
        """
        descriptor = {"kind": "snapshot", "path": str(pathlib.Path(path))}
        return cls.attach(descriptor)

    @classmethod
    def attach(cls, descriptor: dict) -> "SharedSubstrate":
        """Open read-only views onto a published substrate.

        The reverse of :meth:`publish`/:meth:`from_snapshot`; the
        descriptor travels as plain JSON (fleet spawn configs, the CLI's
        ``--follow`` plumbing).
        """
        kind = descriptor.get("kind")
        if kind == "snapshot":
            from repro.serving.store import load_snapshot

            try:
                snapshot = load_snapshot(descriptor["path"], mmap=True)
            except (KeyError, SnapshotError) as exc:
                raise SubstrateError(f"cannot attach snapshot substrate: {exc}")
            arrays: dict[str, np.ndarray] = {
                "indptr": np.asarray(snapshot.indptr),
                "indices": np.asarray(snapshot.indices),
                "weights": np.asarray(snapshot.weights),
                "core_numbers": np.asarray(snapshot.core_numbers),
            }
            if snapshot.truss_numbers is not None:
                items = sorted(snapshot.truss_numbers.items())
                arrays["truss_edges"] = np.array(
                    [edge for edge, __ in items], dtype=np.int64
                ).reshape(len(items), 2)
                arrays["truss_values"] = np.array(
                    [t for __, t in items], dtype=np.int64
                )
            index_header = None
            if snapshot.index_payload is not None:
                payload = snapshot.index_payload
                arrays["index_members"] = np.asarray(payload["members"])
                arrays["index_offsets"] = np.asarray(payload["offsets"])
                arrays["index_values"] = np.asarray(payload["values"])
                index_header = {
                    "depth": payload["depth"],
                    "aggregators": payload["aggregators"],
                    "entries": payload["entries"],
                }
            descriptor = dict(descriptor)
            descriptor["index"] = index_header
            return cls("snapshot", descriptor, arrays, snapshot.labels)
        if kind != "shm":
            raise SubstrateError(f"unknown substrate kind {kind!r}")

        segments: list[shared_memory.SharedMemory] = []
        views: dict[str, np.ndarray] = {}
        try:
            for name, entry in descriptor["arrays"].items():
                if name not in _ARRAY_FIELDS:
                    raise SubstrateError(f"unknown substrate array {name!r}")
                segment = _open_segment(entry["segment"])
                segments.append(segment)
                view = np.ndarray(
                    tuple(entry["shape"]),
                    dtype=np.dtype(entry["dtype"]),
                    buffer=segment.buf,
                )
                view.flags.writeable = False
                views[name] = view
            labels = None
            labels_entry = descriptor.get("labels")
            if labels_entry is not None:
                segment = _open_segment(labels_entry["segment"])
                segments.append(segment)
                raw = bytes(segment.buf[: labels_entry["size"]])
                labels = json.loads(raw.decode("utf-8"))
        except SubstrateError:
            for segment in segments:
                segment.close()
            raise
        except Exception as exc:
            for segment in segments:
                segment.close()
            raise SubstrateError(f"cannot attach shm substrate: {exc}")
        for required in ("indptr", "indices", "weights", "core_numbers"):
            if required not in views:
                for segment in segments:
                    segment.close()
                raise SubstrateError(f"substrate descriptor lacks {required!r}")
        return cls("shm", dict(descriptor), views, labels, segments=segments)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"shm"`` or ``"snapshot"``."""
        return self._kind

    @property
    def owner(self) -> bool:
        """True for the publishing process (the one that must unlink)."""
        return self._owner

    def descriptor(self) -> dict:
        """The JSON-able attach token (safe to pickle/serialize)."""
        descriptor = dict(self._descriptor)
        if self._kind == "snapshot":
            # Attachers re-derive everything from the path; the index
            # header was only materialised for *this* process's use.
            descriptor.pop("index", None)
        return descriptor

    def truss_numbers(self) -> "dict[tuple[int, int], int] | None":
        """The truss cache as the service-shaped dict, if carried."""
        edges = self._arrays.get("truss_edges")
        if edges is None:
            return None
        values = self._arrays["truss_values"]
        return {
            (int(u), int(v)): int(t) for (u, v), t in zip(edges, values)
        }

    def index_payload(self) -> "dict | None":
        """The :class:`~repro.index.InfluentialIndex` payload, if carried."""
        header = self._descriptor.get("index")
        if header is None or "index_members" not in self._arrays:
            return None
        return {
            "depth": int(header.get("depth", 0)),
            "aggregators": header.get("aggregators", []),
            "entries": header["entries"],
            "members": self._arrays["index_members"],
            "offsets": self._arrays["index_offsets"],
            "values": self._arrays["index_values"],
        }

    def build_service(self, cache_size: int = 1024) -> "QueryService":
        """Stand up a :class:`QueryService` over the shared arrays.

        The graph's neighbour sets materialise per vertex on demand; the
        CSR arrays, weights, and decompositions are the shared views
        themselves — no copy.
        """
        from repro.graphs.builder import graph_from_csr_arrays
        from repro.index import InfluentialIndex
        from repro.serving.service import QueryService

        graph = graph_from_csr_arrays(
            self._arrays["indptr"],
            self._arrays["indices"],
            self._arrays["weights"],
            labels=self._labels,
            trusted=True,
        )
        payload = self.index_payload()
        return QueryService(
            graph,
            cache_size=cache_size,
            core_numbers=np.asarray(self._arrays["core_numbers"]),
            truss_numbers=self.truss_numbers(),
            index=(
                InfluentialIndex.from_payload(payload)
                if payload is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's attachments (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        self._arrays = {}
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover — double-close races
                pass

    def unlink(self) -> None:
        """Destroy the shm segments (owner only; snapshot kind is a no-op).

        Safe to call while attachers are still mapped — POSIX keeps the
        segment alive until the last map drops — so owners unlink as soon
        as every intended attacher has started.
        """
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        _LIVE_OWNERS.discard(self)
        self.close()
        for segment in self._segments:
            try:
                _unlink_segment(segment)
            except Exception:  # pragma: no cover — already gone
                pass

    def __repr__(self) -> str:
        return (
            f"SharedSubstrate(kind={self._kind!r}, owner={self._owner}, "
            f"arrays={sorted(self._arrays)})"
        )
