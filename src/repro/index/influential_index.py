"""The precomputed top-r community index behind sub-millisecond serving.

Design
------
One :class:`InfluentialIndex` covers one graph.  For every degree
constraint ``k`` in ``1..kmax`` and every indexed aggregator it stores an
**entry**: the ranked community layers ``L1 ⊇ L2 ⊇ ...`` that Algorithm 2
(TIC-IMPROVED) would emit for that ``(k, f)`` pair, captured once to a
configurable ``depth`` (the largest ``r`` the entry can answer) by
running the solver itself through the shared
:class:`~repro.serving.engine_pool.ExpansionEnginePool`.  An indexed
query then reduces to slicing the stored ranking — no cascade peel, no
lattice expansion, no value arithmetic.

Serving an entry slice is *provably* byte-identical to a cold solver run:

* at ``eps = 0`` the best-first expansion pops communities in
  non-increasing value order, so a cold run with a smaller ``r`` returns
  exactly the first ``r`` stored communities — same sets, same float bit
  patterns — **unless** the value at the ``r``-th boundary ties with the
  ``r+1``-st, where the solver's heap order (not the sorted order) picks
  the winner.  The index therefore serves ``r < depth`` only when
  ``values[r-1] > values[r]`` strictly, and falls back to the solver on a
  boundary tie;
* an entry that came back with fewer than ``depth`` communities is
  **complete**: the accumulator never filled, so no pruning ever ran and
  the entry holds the entire community family at that ``k`` — any ``r``
  can be served from it.

Maintenance mirrors the serving caches' locality reasoning:

* **edge updates** carry :class:`~repro.graphs.delta.GraphDelta`'s
  ``max_affected_core`` bound: every level strictly above it has an
  identical maximal k-core and unchanged weights, so its entries survive
  verbatim; levels at or below are marked pending and re-captured lazily
  (one warm solver call each) on next use;
* **weight updates** keep every level's topology valid but stale-value:
  all entries drop to pending, and the re-seal is value-only work — the
  engine pool's :meth:`~repro.serving.engine_pool.ExpansionEnginePool
  .reweight` re-gathers weight slices in place, so re-capturing replays
  the best-first walk over fully cached structures without re-peeling or
  relabelling anything.

The index is a pure cache with a proof obligation, and the solver path
stays the parity oracle: ``tests/index`` pins byte-identity on the golden
menagerie and under Hypothesis-driven interleavings of updates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.aggregators.registry import get_aggregator
from repro.errors import SpecError
from repro.influential.api import top_r_communities
from repro.influential.community import Community
from repro.influential.results import ResultSet

if TYPE_CHECKING:  # pragma: no cover — hints only
    from repro.graphs.graph import Graph
    from repro.serving.engine_pool import ExpansionEnginePool
    from repro.serving.query import InfluentialQuery

__all__ = ["INDEXED_METHODS", "InfluentialIndex"]

#: Query methods an index entry may answer.  All three dispatch to
#: TIC-IMPROVED at ``eps = 0`` for the indexed aggregator family:
#: ``"improved"`` forces exactness regardless of ``eps``, while
#: ``"auto"``/``"approx"`` are only eligible when the query's own
#: ``eps == 0.0`` (any other value changes — or rejects — the answer).
INDEXED_METHODS = ("auto", "improved", "approx")

#: Default capture depth: the largest ``r`` served from the index when an
#: entry is truncated (complete entries answer any ``r``).
DEFAULT_DEPTH = 32

_ABSENT = object()


class _IndexEntry:
    """One ``(k, aggregator)`` level: the ranked community layers."""

    __slots__ = ("communities", "values", "complete")

    def __init__(
        self, communities: tuple[Community, ...], complete: bool
    ) -> None:
        self.communities = communities
        self.values = tuple(float(c.value) for c in communities)
        self.complete = complete


class InfluentialIndex:
    """Precomputed per-k community layers for one graph.

    ``aggregators`` names the indexed family (canonicalised through the
    registry); only aggregators the exact best-first search covers —
    decreasing under removal and not node-dominated, i.e. the sum /
    sum-surplus family — may be indexed, because entries are captured
    with (and byte-compared against) TIC-IMPROVED.  ``depth`` caps the
    ``r`` a truncated entry can answer.

    The index never owns the graph: the service passes its graph and
    engine pool into :meth:`build` / :meth:`serve`, so the pool's cached
    structures are shared between index captures and fallback
    solves.  Like the pool, it is intentionally lock-free — the owning
    service (or the HTTP solver thread) serialises access.
    """

    __slots__ = (
        "depth",
        "_aggregators",
        "_entries",
        "_built",
        "hits",
        "fallbacks",
        "builds",
        "levels_retained",
        "levels_invalidated",
        "weight_refreshes",
    )

    def __init__(
        self,
        depth: int = DEFAULT_DEPTH,
        aggregators: Sequence[str] = ("sum",),
    ) -> None:
        if depth < 1:
            raise SpecError(f"index depth must be >= 1, got {depth}")
        names: list[str] = []
        for spec in aggregators:
            aggregator = get_aggregator(spec)
            if aggregator.is_node_dominated or not aggregator.decreases_under_removal:
                raise SpecError(
                    f"aggregator {aggregator.name!r} is not indexable: the "
                    f"index stores TIC-IMPROVED layers, which cover the "
                    f"decreasing-under-removal (sum-family) aggregators only"
                )
            if aggregator.name not in names:
                names.append(aggregator.name)
        if not names:
            raise SpecError("an index needs at least one aggregator")
        self.depth = depth
        self._aggregators = tuple(names)
        # (k, canonical aggregator name) -> entry, or None while a level
        # awaits lazy (re)capture after an update invalidated it.
        self._entries: dict[tuple[int, str], _IndexEntry | None] = {}
        self._built = False
        self.hits = 0
        self.fallbacks = 0
        self.builds = 0
        self.levels_retained = 0
        self.levels_invalidated = 0
        self.weight_refreshes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def aggregators(self) -> tuple[str, ...]:
        """Canonical names of the indexed aggregator family."""
        return self._aggregators

    @property
    def built(self) -> bool:
        """True once :meth:`build` (or a payload load) populated levels."""
        return self._built

    def __len__(self) -> int:
        return len(self._entries)

    def pending_levels(self) -> int:
        """Levels awaiting lazy re-capture after an update."""
        return sum(1 for entry in self._entries.values() if entry is None)

    def level_state(self, k: int, aggregator: str) -> str:
        """One of ``absent`` / ``pending`` / ``partial(N)`` / ``complete(N)``.

        ``complete`` means the entry holds the *entire* community family at
        that k (fewer than ``depth`` exist), so any r is serveable from it;
        ``partial`` holds the top ``depth`` only.  Diagnostic rendering for
        the CLI — the serving path goes through :meth:`serve`.
        """
        entry = self._entries.get((k, aggregator), _ABSENT)
        if entry is _ABSENT:
            return "absent"
        if entry is None:
            return "pending"
        kind = "complete" if entry.complete else "partial"
        return f"{kind}({len(entry.communities)})"

    def stats(self) -> dict[str, object]:
        """Counters and coverage, JSON-ready (feeds ``GET /v1/stats``)."""
        ready = len(self._entries) - self.pending_levels()
        return {
            "built": self._built,
            "depth": self.depth,
            "aggregators": list(self._aggregators),
            "levels": len(self._entries),
            "levels_ready": ready,
            "levels_pending": self.pending_levels(),
            "hits": self.hits,
            "fallbacks": self.fallbacks,
            "builds": self.builds,
            "levels_retained": self.levels_retained,
            "levels_invalidated": self.levels_invalidated,
            "weight_refreshes": self.weight_refreshes,
        }

    def __repr__(self) -> str:
        return (
            f"InfluentialIndex(depth={self.depth}, "
            f"aggregators={list(self._aggregators)}, "
            f"levels={len(self._entries)}, pending={self.pending_levels()})"
        )

    # ------------------------------------------------------------------
    # Build / capture
    # ------------------------------------------------------------------
    def build(
        self,
        graph: "Graph",
        pool: "ExpansionEnginePool",
    ) -> "InfluentialIndex":
        """Capture every ``(k, aggregator)`` level for ``k`` in 1..kmax.

        Levels are captured k-ascending with aggregators inner, so the
        pool's per-k seed state (an LRU) is reused across the aggregator
        sweep at each k instead of being rebuilt per level.
        """
        self._entries = {}
        for k in range(1, pool.kmax + 1):
            for name in self._aggregators:
                self._capture((k, name), graph, pool)
        self._built = True
        return self

    def _capture(
        self,
        key: tuple[int, str],
        graph: "Graph",
        pool: "ExpansionEnginePool",
    ) -> _IndexEntry:
        """(Re)run the capturing solver for one level and seal its entry.

        ``method="improved"`` pins ``eps = 0`` regardless of caller
        settings, so the stored ranking is the exact one every indexed
        method must reproduce.  A result shorter than ``depth`` means the
        accumulator never filled — no pruning ran, the entry holds the
        complete community family at this k.
        """
        k, name = key
        result = top_r_communities(
            graph,
            k=k,
            r=self.depth,
            f=name,
            method="improved",
            engine_pool=pool,
        )
        entry = _IndexEntry(tuple(result), complete=len(result) < self.depth)
        self._entries[key] = entry
        self.builds += 1
        return entry

    def rebuild_pending(
        self,
        graph: "Graph",
        pool: "ExpansionEnginePool",
    ) -> int:
        """Eagerly re-capture every pending level; returns how many ran.

        Serving does this lazily per level; the CLI and benchmarks call
        it to re-seal the whole index in one pass (e.g. before saving a
        snapshot that should come up fully warm).
        """
        rebuilt = 0
        for key, entry in list(self._entries.items()):
            if entry is None:
                self._capture(key, graph, pool)
                rebuilt += 1
        return rebuilt

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def plan(self, query: "InfluentialQuery") -> tuple[int, str] | None:
        """The entry key answering ``query``, or None if unindexable.

        Eligibility mirrors the dispatch table of
        :func:`~repro.influential.api.top_r_communities`: the core
        (not truss) cohesion, size-unconstrained, overlapping problem,
        under a method that resolves to TIC-IMPROVED at ``eps = 0`` for
        an indexed aggregator.  ``greedy``/``seed_order``/``rng_seed``
        never reach that dispatch path, so their values don't matter.
        """
        if query.cohesion != "core" or query.s is not None:
            return None
        if query.constraints is not None:
            # The stored rankings are unconstrained; a label-constrained
            # answer is a different lattice, served by the solver path.
            return None
        if query.non_overlapping or query.k < 1 or query.r < 1:
            return None
        if query.method not in INDEXED_METHODS:
            return None
        if query.method != "improved" and float(query.eps) != 0.0:
            return None
        try:
            name = query.aggregator.name
        except Exception:
            # Unknown aggregator spec: let the solver path raise the
            # canonical error instead of guessing here.
            return None
        if name not in self._aggregators:
            return None
        return (query.k, name)

    def serve(
        self,
        query: "InfluentialQuery",
        graph: "Graph",
        pool: "ExpansionEnginePool",
    ) -> ResultSet | None:
        """Answer ``query`` from the index, or None to use the solver.

        A pending level (invalidated by an update) is re-captured here —
        one warm solver call — before answering; a level the index never
        covered (e.g. ``k`` above the build-time kmax, where the pool's
        fast path already answers for free) falls back.  A boundary value
        tie at rank ``r`` also falls back: the stored sorted order cannot
        know which tied community the solver's heap order would keep.
        """
        if not self._built:
            return None
        key = self.plan(query)
        if key is None:
            return None
        entry = self._entries.get(key, _ABSENT)
        if entry is _ABSENT:
            return None
        if entry is None:
            entry = self._capture(key, graph, pool)
        result = self._slice(entry, query.r)
        if result is None:
            self.fallbacks += 1
        else:
            self.hits += 1
        return result

    @staticmethod
    def _slice(entry: _IndexEntry, r: int) -> ResultSet | None:
        count = len(entry.communities)
        if r >= count:
            # The whole stored ranking.  Sound when the entry is complete
            # (the full family — larger r cannot add members) or when r
            # equals the capture depth exactly (the identical solver
            # call); a truncated entry cannot answer r beyond its depth.
            if entry.complete or r == count:
                return ResultSet(entry.communities)
            return None
        if entry.values[r - 1] > entry.values[r]:
            return ResultSet(entry.communities[:r])
        return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply_update(
        self, max_affected_core: int, kmax: int
    ) -> tuple[int, int]:
        """Absorb an edge-update delta; returns ``(retained, invalidated)``.

        Exactly the result cache's locality argument: a level with
        ``k > max_affected_core`` has an identical maximal k-core and
        unchanged weights, so its stored ranking answers post-update
        queries verbatim.  Levels at or below the bound go pending, and
        levels newly reachable because ``kmax`` grew are registered as
        pending too (a level left stranded above a *shrunken* kmax is
        necessarily at ``k <= max_affected_core``, so it is already
        pending and will re-capture to an empty — complete — family).
        """
        if not self._built:
            return (0, 0)
        retained = invalidated = 0
        for key, entry in list(self._entries.items()):
            if key[0] <= max_affected_core:
                if entry is not None:
                    self._entries[key] = None
                    invalidated += 1
            elif entry is not None:
                retained += 1
        for k in range(1, kmax + 1):
            for name in self._aggregators:
                self._entries.setdefault((k, name), None)
        self.levels_retained += retained
        self.levels_invalidated += invalidated
        return (retained, invalidated)

    def invalidate_values(self) -> int:
        """Absorb a weight update; returns how many levels went pending.

        Topology survives everywhere, so this is a value-only refresh:
        each level keeps its key and is re-sealed lazily by one warm
        replay over the engine pool's reweighted-in-place structures —
        no peel, no relabelling, no CSR work.  (The stored rankings
        themselves cannot be patched in place: the solver computes
        sum-family values incrementally along its discovery chains, so
        only a replay reproduces the exact float bit patterns serving
        promises.)
        """
        if not self._built:
            return 0
        refreshed = 0
        for key, entry in self._entries.items():
            if entry is not None:
                self._entries[key] = None
                refreshed += 1
        self.weight_refreshes += refreshed
        return refreshed

    def reset(self, kmax: int) -> None:
        """Point the index at a different graph: all levels pending."""
        if not self._built:
            return
        self._entries = {
            (k, name): None
            for k in range(1, kmax + 1)
            for name in self._aggregators
        }

    # ------------------------------------------------------------------
    # Persistence (snapshot arrays + shared substrates)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, object]:
        """Flat-array form: JSON-able header + three numpy arrays.

        Community member ids are concatenated into one int array
        (``members``), delimited by ``offsets`` (length: total
        communities + 1), with per-community values in ``values`` —
        the same mmap-friendly layout the snapshot store writes, and
        the arrays a shared substrate carries to fleet members.
        """
        keys = sorted(self._entries)
        header = []
        chunks: list[np.ndarray] = []
        lengths: list[int] = []
        values: list[float] = []
        for key in keys:
            entry = self._entries[key]
            count = 0 if entry is None else len(entry.communities)
            header.append(
                {
                    "k": key[0],
                    "f": key[1],
                    "count": count,
                    "complete": bool(entry is not None and entry.complete),
                    "pending": entry is None,
                }
            )
            if entry is None:
                continue
            for community in entry.communities:
                chunks.append(
                    np.fromiter(community.members(), dtype=np.int64)
                )
                lengths.append(chunks[-1].size)
                values.append(float(community.value))
        members = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        if members.size == 0 or members.max() <= np.iinfo(np.int32).max:
            members = members.astype(np.int32)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        if lengths:
            np.cumsum(np.asarray(lengths, dtype=np.int64), out=offsets[1:])
        return {
            "depth": self.depth,
            "aggregators": list(self._aggregators),
            "entries": header,
            "members": members,
            "offsets": offsets,
            "values": np.asarray(values, dtype=np.float64),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "InfluentialIndex":
        """Rebuild an index from :meth:`to_payload` output.

        Values are restored from the float64 array bit-for-bit, so a
        snapshot round trip preserves the byte-identity guarantee.
        """
        index = cls(
            depth=int(payload["depth"]),
            aggregators=list(payload["aggregators"]),  # type: ignore[arg-type]
        )
        members = np.asarray(payload["members"])
        offsets = np.asarray(payload["offsets"])
        values = np.asarray(payload["values"])
        cursor = 0
        for spec in payload["entries"]:  # type: ignore[union-attr]
            key = (int(spec["k"]), str(spec["f"]))
            if spec.get("pending"):
                index._entries[key] = None
                continue
            communities = []
            for __ in range(int(spec["count"])):
                lo, hi = int(offsets[cursor]), int(offsets[cursor + 1])
                communities.append(
                    Community(
                        frozenset(int(v) for v in members[lo:hi]),
                        float(values[cursor]),
                        key[1],
                        key[0],
                    )
                )
                cursor += 1
            index._entries[key] = _IndexEntry(
                tuple(communities), complete=bool(spec["complete"])
            )
        index._built = True
        return index
