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

Serving an entry slice is byte-identical to a cold solver run:

* at ``eps = 0`` the best-first expansion pops communities in
  non-increasing value order, so a cold run with a smaller ``r``
  returns the first ``r`` stored communities, with the same float bit
  patterns, **unless** the values at the ``r``-th boundary lie within
  the rounding margin below.  The index serves ``r < depth`` only when
  ``values[r-1] - values[r] > margin`` and otherwise falls back to the
  solver;
* an entry that came back with fewer than ``depth`` communities is
  **complete**: the accumulator never filled, so no pruning ever ran and
  the entry holds the entire community family at that ``k`` — any ``r``
  can be served from it.

The rounding margin.  A community's value is not a function of its
vertex set alone: the solver computes it along the chain of removals
that first generated it, ``v_0 = w(C) + alpha|C|`` for the seed component
``C`` and ``v_i = (v_{i-1} - loss_i) - alpha m_i`` after removing ``m_i``
vertices, so runs with different ``r`` (which prune differently) can
reach one set along different chains and give it values an ulp or two
apart.  The bound on that difference:

1. Every quantity a chain computes — a partial sum of ``C``'s weights,
   a loss, ``alpha m_i``, a value — is at most ``W = w(C) + alpha|C|``
   in magnitude (weights are non-negative), and a chain rounds at most
   ``N = 4|C| + 2`` times: ``|C| + 1`` operations for ``v_0`` and, per
   step, ``m_i - 1`` additions for the loss plus a subtraction, a
   product and a subtraction, with ``sum m_i <= |C|`` and at most
   ``|C|`` steps.  Each rounding adds at most ``u = 2^-53`` times its
   result, and a subtraction carries its operands' errors through
   unscaled, so a computed value lies within ``E = gamma_N W`` of the
   exact ``f(H)``, where ``gamma_N = N u / (1 - N u)``.  Two computed
   values of one set therefore differ by at most ``2E``.
2. Rounding is monotone, so a computed value never rises along a
   chain, and each run is exact with respect to its own values.  Exact
   values never rise along a chain either (Corollary 2).
3. Let the depth run rank ``X_1..X_D`` with values ``v_1 >= ... >= v_D``
   and ``v_r - v_{r+1} > 2E``.  Follow any chain from a seed to a set
   ``Y`` outside ``X_1..X_r``; the first set on it outside ``X_1..X_r``
   is a child of an expanded ``X_i``, so the depth run generated it,
   and at a computed value of at most ``v_{r+1}``: a higher one would be
   popped before ``X_{r+1}``, and a pruned child lies below the D-th
   candidate value.  Its exact value, and so ``f(Y)``, is at most
   ``v_{r+1} + E``, and any run computes ``Y`` at most at
   ``v_{r+1} + 2E < v_r``.
4. The r-run starts from the same seeds and pops the same maxima.  It
   drops only children below its r-th candidate value, which is at most
   its r-th answer, and by (3) such a child can come back, along another
   chain, only below ``v_r``.  So its first ``r`` pops are the depth
   run's, made from the same parents along the same chains: the same
   sets with the same bits.

The index takes ``|C| <= |maximal k-core|`` and ``W <= w(k-core) +
alpha |k-core|``, and doubles the ``2E`` bound to absorb the rounding of
the bound's own arithmetic.  On the integer weights of most tests the
margin is far below any gap; on float weights it refuses the ulp-level
near-ties that a strict ``values[r-1] > values[r]`` test let through.

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

Offer logs (Problem 3)
----------------------
Size-constrained queries (an explicit ``s``) dispatch to Algorithm 4,
local search, which no stored ranking can answer by slicing: on float
weights a greedy ``avg`` run for small ``r`` can offer a community that
a larger-``r`` run never sees.  Instead, the first such query for a key
``(k, s, f, greedy, seed order, rng seed when shuffled, non_overlapping)``
builds an :class:`~repro.influential.local_search.OfferLog` — one
threshold-free pass of Algorithm 4 — and every query with that key,
for any ``r``, replays it (:meth:`~repro.influential.local_search
.OfferLog.answer`), reproducing the solver bit for bit.  Logs are
runtime state, like the result cache: at most :data:`LOG_CAPACITY` are
held, least recently used first out; they are neither snapshotted nor
shared with fleet members.  Edge updates drop the logs at ``k <=
max_affected_core``, weight updates and :meth:`reset` drop them all, and
a result-cache invalidation (``POST /v1/invalidate``) leaves them, as it
leaves the levels.

The index is a pure cache with a proof obligation, and the solver path
stays the parity oracle: ``tests/index`` pins byte-identity on the golden
menagerie and under Hypothesis-driven interleavings of updates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.aggregators.registry import get_aggregator
from repro.errors import SpecError
from repro.influential.api import top_r_communities
from repro.influential.community import Community
from repro.influential.expansion import sum_alpha_of
from repro.influential.local_search import SEED_ORDERS, OfferLog, capture_offers
from repro.influential.results import ResultSet

if TYPE_CHECKING:  # pragma: no cover — hints only
    from repro.graphs.graph import Graph
    from repro.serving.engine_pool import ExpansionEnginePool
    from repro.serving.query import InfluentialQuery

__all__ = ["INDEXED_METHODS", "LOGGED_METHODS", "InfluentialIndex"]

#: Query methods an index entry may answer.  All three dispatch to
#: TIC-IMPROVED at ``eps = 0`` for the indexed aggregator family:
#: ``"improved"`` forces exactness regardless of ``eps``, while
#: ``"auto"``/``"approx"`` are only eligible when the query's own
#: ``eps == 0.0`` (any other value changes — or rejects — the answer).
INDEXED_METHODS = ("auto", "improved", "approx")

#: Default capture depth: the largest ``r`` served from the index when an
#: entry is truncated (complete entries answer any ``r``).
DEFAULT_DEPTH = 32

#: Query methods an offer log may answer: both reach local search when
#: the query carries a size bound ``s``.
LOGGED_METHODS = ("auto", "local")

#: Offer logs held at once, least recently used evicted first.
LOG_CAPACITY = 64

_ABSENT = object()


class _IndexEntry:
    """One ``(k, aggregator)`` level: the ranked community layers, and
    the rounding margin of its boundary rule once a serve computed it."""

    __slots__ = ("communities", "values", "complete", "margin")

    def __init__(
        self, communities: tuple[Community, ...], complete: bool
    ) -> None:
        self.communities = communities
        self.values = tuple(float(c.value) for c in communities)
        self.complete = complete
        self.margin: float | None = None


def rounding_margin(
    weights: np.ndarray, core_numbers: np.ndarray, k: int, alpha: float
) -> float:
    """How far apart two computed values of one level-``k`` community
    can lie, doubled (see the module docstring): ``4 gamma_N W`` with
    ``N = 4|K| + 2`` and ``W = w(K) + alpha |K|`` over the maximal
    k-core ``K``."""
    inside = core_numbers >= k
    size = int(np.count_nonzero(inside))
    magnitude = float(weights[inside].sum()) + alpha * size
    rounding = (4 * size + 2) * 2.0**-53
    return 4.0 * rounding / (1.0 - rounding) * magnitude


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
        "_logs",
        "log_replays",
        "log_builds",
        "logs_dropped",
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
        # Offer-log key -> log, least recently used first.
        self._logs: OrderedDict[tuple, OfferLog] = OrderedDict()
        self.log_replays = 0
        self.log_builds = 0
        self.logs_dropped = 0

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
            "offer_logs": len(self._logs),
            "offer_log_replays": self.log_replays,
            "offer_log_builds": self.log_builds,
            "offer_logs_dropped": self.logs_dropped,
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
        fast path already answers for free) falls back.  A boundary
        within the rounding margin at rank ``r`` also falls back: the
        stored order cannot know which near-tied community, at which
        value bits, the solver's run for ``r`` would keep.  A
        size-constrained local-search query is replayed from its offer
        log, built here on the key's first query.
        """
        if not self._built:
            return None
        key = self.plan(query)
        if key is None:
            return self._replay(query, graph, pool)
        entry = self._entries.get(key, _ABSENT)
        if entry is _ABSENT:
            return None
        if entry is None:
            entry = self._capture(key, graph, pool)
        if entry.margin is None:
            entry.margin = rounding_margin(
                graph.weights,
                pool.core_numbers,
                key[0],
                sum_alpha_of(get_aggregator(key[1])) or 0.0,
            )
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
        if entry.values[r - 1] - entry.values[r] > entry.margin:
            return ResultSet(entry.communities[:r])
        return None

    def log_key(
        self, query: "InfluentialQuery", graph: "Graph", kmax: int
    ) -> tuple | None:
        """The offer-log key answering ``query``, or None if no log may.

        Eligible: core cohesion, no label constraint, an explicit ``s``,
        and a method that dispatches to local search.  A query the cold
        path would reject (bad k, r or s, an unknown aggregator or seed
        order) or short-circuit to an empty answer (``k >= |V|``, ``k``
        above kmax) gets None, so the solver path answers it exactly as
        it would without the index.
        """
        if query.cohesion != "core" or query.constraints is not None:
            return None
        k, s = query.k, query.s
        if s is None or query.method not in LOGGED_METHODS:
            return None
        if query.r < 1 or not 1 <= k <= kmax or not k < s <= graph.n:
            return None
        if query.seed_order is not None and query.seed_order not in SEED_ORDERS:
            return None
        try:
            name = query.aggregator.name
        except Exception:
            return None  # the solver path raises the canonical error
        seed_order = query.seed_order
        if seed_order is None:
            seed_order = "weight" if query.non_overlapping else "id"
        rng_seed = query.rng_seed if seed_order == "shuffled" else None
        return (
            k, s, name, query.greedy, seed_order, rng_seed,
            query.non_overlapping,
        )

    def _replay(
        self,
        query: "InfluentialQuery",
        graph: "Graph",
        pool: "ExpansionEnginePool",
    ) -> ResultSet | None:
        """Answer a local-search query from its offer log, or None."""
        key = self.log_key(query, graph, pool.kmax)
        if key is None:
            return None
        log = self._logs.get(key)
        if log is None:
            k, s, __, greedy, seed_order, rng_seed, non_overlapping = key
            log = capture_offers(
                graph, k, s, query.aggregator,
                greedy=greedy, non_overlapping=non_overlapping,
                seed_order=seed_order, rng_seed=rng_seed,
            )
            self._logs[key] = log
            self.log_builds += 1
            while len(self._logs) > LOG_CAPACITY:
                self._logs.popitem(last=False)
                self.logs_dropped += 1
        else:
            self._logs.move_to_end(key)
        self.log_replays += 1
        return log.answer(query.r)

    def _drop_logs(self, below: int | None = None) -> None:
        """Drop the offer logs with ``k <= below``, or all of them."""
        doomed = [
            key for key in self._logs if below is None or key[0] <= below
        ]
        for key in doomed:
            del self._logs[key]
        self.logs_dropped += len(doomed)

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
        self._drop_logs(max_affected_core)
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
        self._drop_logs()
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
        self._drop_logs()

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
