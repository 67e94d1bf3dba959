"""Asyncio HTTP front end over one process-wide :class:`QueryService`.

``repro serve`` turns the in-process serving layer into a deployable
online service using nothing beyond the standard library: an
``asyncio.start_server`` loop speaking enough HTTP/1.1 (keep-alive,
``Content-Length`` bodies, JSON in and out) for any client from ``curl``
to a load balancer.  A ``repro batch`` workload entry is a valid query
envelope once its solver tuning knobs move under ``options``.

Endpoints (v1)
--------------
=======  ==========================  ============================================
method   path                        body → response
=======  ==========================  ============================================
GET      ``/``                       service banner: version, graph shape,
                                     endpoints
GET      ``/v1/healthz``             liveness: ``{"status": "ok", ...}``
GET      ``/v1/stats``               serving counters + cache/pool/HTTP stats
POST     ``/v1/query``               one query envelope → one result payload
POST     ``/v1/batch``               ``{"queries": [...]}`` → ordered payloads
POST     ``/v1/update-weights``      ``{"weights": [...]}`` → invalidation
                                     summary
POST     ``/v1/update-edges``        ``{"insert": [[u, v], ...],
                                     "delete": [...]}`` → delta summary
POST     ``/v1/invalidate``          ``{"k": 4}`` (or ``{}``) → entries dropped
POST     ``/v1/analytics/leaders``   ``{"query": {...}, "deputies": 1}`` →
                                     per-community leader/deputy roster
POST     ``/v1/analytics/reach``     ``{"query": {...}, "hops": 2}`` →
                                     per-community k-hop reach percentages
POST     ``/v1/analytics/summary``   ``{"query": {...}}`` → size/overlap summary
=======  ==========================  ============================================

The **v1 query envelope** nests solver tuning under ``options`` and label
constraints under ``constraints``::

    {"k": 4, "r": 3, "f": "sum", "s": null, "cohesion": "core",
     "non_overlapping": false,
     "constraints": {"labels": {"any": ["db", "ml"]}},
     "options": {"method": "auto", "eps": 0.1, "greedy": true,
                 "seed_order": null, "rng_seed": null}}

Every successful response carries ``api_version: "v1"`` and (for
query-shaped responses) echoes the **normalized** query — the canonical
form actually answered, aggregator spelling and constraint shape
collapsed.  Errors on *every* endpoint share one machine-readable
envelope::

    {"error": {"code": "spec_error", "detail": "unknown aggregator 'bogus'"}}

The ``/v1`` family is the only one served: the pre-v1 flat aliases are
removed and answer 404 (docs/API.md maps each to its successor).

Edge updates go through :class:`~repro.graphs.delta.GraphDelta`: the CSR
is patched and core numbers are repaired incrementally, and invalidation
is *scoped* — engine-pool state and cached results survive for every
degree constraint whose k-core the batch provably left untouched.  Like
weight updates, an edge update bumps the epoch: solves admitted before
the update still answer their waiters but are never written back to the
(partially invalidated) cache.

Concurrency model
-----------------
The event loop never runs a solver.  Each request is validated into an
:class:`~repro.serving.query.InfluentialQuery` on the loop; its canonical
:meth:`~repro.serving.query.InfluentialQuery.cache_key` is probed against
the service's result cache (a hit answers inline; from an entry's second
read on, ``/v1/query`` writes the response bytes stored in the entry
instead of re-encoding them), and misses are
dispatched to a dedicated single solver thread.  One thread, because
:class:`~repro.serving.service.QueryService`'s engine pool is
deliberately lock-free; the loop thread touches only the result cache,
which the solver thread never does (solves go through the cache-free
``_solve``).  Process-level scaling is the fleet's job
(:mod:`repro.serving.fleet`): N processes, each one such app, over one
shared-memory substrate.

**Single-flight dedup:** concurrent requests whose queries share a cache
key coalesce onto one in-flight computation — the first arrival creates
an :class:`asyncio.Future` under the key, later arrivals await the same
future, and exactly one solver call runs (``tests/serving/test_http.py``
pins ``solver_calls == 1`` under a concurrent burst).

Weight updates bump an *epoch*: in-flight solves started under an older
epoch still answer their waiters (they were admitted before the update
completed) but are not written back to the cache, so no stale value
outlives the invalidation.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable, Mapping

import numpy as np

from repro._version import __version__
from repro.errors import ReproError, SpecError
from repro.influential.results import ResultSet
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService
from repro.utils.memory import rss_bytes

__all__ = [
    "API_VERSION",
    "ServingApp",
    "query_envelope",
    "result_payload_v1",
    "run_server_in_thread",
    "serve",
]

#: Largest accepted request body (a 1M-vertex weight vector is ~20 MB).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most headers accepted per request (memory guard, like the body cap).
MAX_HEADER_LINES = 100

#: Bodies past this parse on a worker thread instead of the event loop —
#: a multi-megabyte weight vector must not stall /v1/healthz while decoding.
OFFLOAD_PARSE_BYTES = 1 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Default machine-readable error code per status; ``_HTTPError`` and the
#: raw pre-dispatch refusals fall back to these when no finer code fits.
#: The full code table (including the ``ReproError``-derived codes) lives
#: in docs/API.md.
_STATUS_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    413: "payload_too_large",
    431: "header_fields_too_large",
    500: "internal",
    501: "not_implemented",
    503: "queue_full",
}

#: API version tag stamped into every v1 response body.
API_VERSION = "v1"

#: An endpoint handler: parsed JSON body → JSON-ready dict, or a body
#: already encoded.
_Handler = Callable[[object], Awaitable["dict | bytes"]]


def _encode(payload: dict) -> bytes:
    """The wire bytes of a JSON response body."""
    return json.dumps(payload).encode("utf-8")


def _error_body(code: str, detail: str) -> dict:
    """The uniform error envelope every endpoint serves."""
    return {"error": {"code": code, "detail": detail}}


def _repro_error_code(exc: ReproError) -> str:
    """``SpecError`` → ``spec_error`` etc. — snake_case of the class name."""
    name = type(exc).__name__
    out = [name[0].lower()]
    for char in name[1:]:
        if char.isupper():
            out.append("_")
        out.append(char.lower())
    return "".join(out)


def query_envelope(query: InfluentialQuery) -> dict:
    """The normalized v1 wire form of a query, echoed in v1 responses.

    This is the canonical shape actually answered: the aggregator is its
    registry name (``sum-surplus(alpha=2)`` and ``sum-surplus(2)`` echo
    identically), constraints are the canonical predicate wire form, and
    solver tuning sits under ``options`` exactly as a v1 request nests it
    — so the echo round-trips as a valid ``POST /v1/query`` body.
    """
    constraints = None
    if query.constraints is not None:
        constraints = {"labels": query.constraints.to_json()}
    return {
        "k": query.k,
        "r": query.r,
        "f": query.aggregator.name,
        "s": query.s,
        "cohesion": query.cohesion,
        "non_overlapping": query.non_overlapping,
        "constraints": constraints,
        "options": {
            "method": query.method,
            "eps": float(query.eps),
            "greedy": query.greedy,
            "seed_order": query.seed_order,
            "rng_seed": query.rng_seed,
        },
    }


def result_payload_v1(query: InfluentialQuery, result: ResultSet) -> dict:
    """The JSON body ``POST /v1/query`` serves: versioned, echoing the
    normalized query.

    The test suite compares these payloads against ones built from cold
    :func:`~repro.influential.api.top_r_communities` runs to enforce
    byte-identical serving.
    """
    return {
        "api_version": API_VERSION,
        "query": query_envelope(query),
        "count": len(result),
        "values": result.values(),
        "communities": [c.members() for c in result],
    }


class _HTTPError(Exception):
    """Internal: carry an HTTP status + JSON error body to the writer."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: "dict[str, str] | None" = None,
        code: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        self.code = code or _STATUS_CODES.get(status, "error")


class ServingApp:
    """The HTTP application: routing, single-flight, executor dispatch.

    Wraps one :class:`~repro.serving.service.QueryService`; see the module
    docstring for the endpoint table and concurrency model.  Use
    :func:`serve` for a blocking server, :func:`run_server_in_thread` to
    host one inside tests/benchmarks, or :meth:`start` from an already
    running event loop.
    """

    def __init__(
        self,
        service: QueryService,
        max_body_bytes: int = MAX_BODY_BYTES,
        max_queue_depth: int = 0,
    ) -> None:
        if max_queue_depth < 0:
            raise SpecError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        self.service = service
        # The default caps /v1/update-weights around ~3M vertices of JSON;
        # operators serving larger graphs raise it here (or via the CLI's
        # --max-body-mb).
        self.max_body_bytes = max_body_bytes
        # Load shedding: with a bound, a fresh cache miss that would make
        # the (bound+1)-th concurrent solve is refused with 503 +
        # Retry-After instead of queueing behind every solve before it —
        # exactly the convoy that made single-process p99 14x p50.  0
        # keeps the historical unbounded behaviour.
        self.max_queue_depth = max_queue_depth
        self._inflight: dict[tuple, asyncio.Task] = {}
        self._epoch = 0
        # Cleared while an update is in progress: new solves wait for it,
        # so nothing computes against half-updated state.
        self._ready = asyncio.Event()
        self._ready.set()
        self._update_lock = asyncio.Lock()
        self._solver_thread: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        # Set by the fleet layer (repro/serving/fleet.py) when this app is
        # one member of a fleet: mutations then go through the replication
        # log, and healthz/stats report catch-up lag + member identity.
        self.replicator = None
        self.member_index: "int | None" = None
        # Graceful-drain state: while draining, responses close their
        # connections, new connections are refused (the listening socket
        # is already closed), and drain() waits for active requests.
        self._draining = False
        self._active_requests = 0
        self._connections: "set[asyncio.Task]" = set()
        # EWMA of recent solve latency; sizes the Retry-After hint.
        self._solve_avg_seconds = 0.05
        self.requests = 0
        self.coalesced = 0
        self.http_errors = 0
        self.shed = 0
        # /v1/query cache hits answered from their entry's stored body.
        self.body_hits = 0
        self._routes: dict[tuple[str, str], _Handler] = {
            ("GET", "/"): self._get_index,
            ("GET", "/v1/healthz"): self._get_healthz,
            ("GET", "/v1/stats"): self._get_stats,
            ("POST", "/v1/query"): self._post_query_v1,
            ("POST", "/v1/batch"): self._post_batch_v1,
            ("POST", "/v1/update-weights"): self._post_update_weights,
            ("POST", "/v1/update-edges"): self._post_update_edges,
            ("POST", "/v1/invalidate"): self._post_invalidate,
            ("POST", "/v1/analytics/leaders"): self._post_analytics_leaders,
            ("POST", "/v1/analytics/reach"): self._post_analytics_reach,
            ("POST", "/v1/analytics/summary"): self._post_analytics_summary,
        }

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def _ensure_executors(self) -> None:
        if self._solver_thread is None:
            self._solver_thread = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-solver"
            )

    def shutdown_executors(self) -> None:
        """Stop the solver thread (idempotent)."""
        if self._solver_thread is not None:
            self._solver_thread.shutdown(wait=True)
            self._solver_thread = None

    async def _run_off_loop(self, fn, *args):
        """Run ``fn`` on the solver thread, serialized with every solve."""
        self._ensure_executors()
        return await asyncio.get_running_loop().run_in_executor(
            self._solver_thread, fn, *args
        )

    # ------------------------------------------------------------------
    # Single-flight answering
    # ------------------------------------------------------------------
    async def answer(self, query: InfluentialQuery) -> ResultSet:
        """Answer one validated query through cache + single-flight.

        The computation runs as its **own task**, shared by every request
        that coalesces onto the key and shielded from their cancellation:
        a batch member failing (or a client going away) never cancels a
        solve that other requests are waiting on.
        """
        cached = self.service.peek(query)
        if cached is not None:
            self.service.queries_served += 1
            return cached
        key = query.cache_key()
        task = self._inflight.get(key)
        if task is not None:
            self.coalesced += 1
        else:
            if 0 < self.max_queue_depth <= len(self._inflight):
                # Shed instead of queueing: with every solve serialized
                # behind one solver thread, admitting the (bound+1)-th
                # distinct miss guarantees it waits for the whole convoy
                # ahead — the exact tail the 503 pushes back on.  The
                # Retry-After hint sizes the convoy by recent solve
                # latency.  Coalesced waiters and cache hits above are
                # never shed; they add no solver work.
                self.shed += 1
                retry_after = max(
                    1,
                    math.ceil(
                        self._solve_avg_seconds * (len(self._inflight) + 1)
                    ),
                )
                raise _HTTPError(
                    503,
                    f"solve queue is full ({len(self._inflight)} in flight, "
                    f"bound {self.max_queue_depth}); retry later",
                    headers={"Retry-After": str(retry_after)},
                )
            task = asyncio.get_running_loop().create_task(
                self._compute_and_store(query)
            )
            self._inflight[key] = task
            task.add_done_callback(
                lambda done, key=key: self._retire(key, done)
            )
        result = await asyncio.shield(task)
        # Counted per answered waiter, *after* the shared solve settles:
        # a rejected query (the solver raise reaches every waiter) must
        # not inflate queries_served.  Loop-thread only, like peek above.
        self.service.queries_served += 1
        return result

    def _retire(self, key: tuple, task: asyncio.Task) -> None:
        if self._inflight.get(key) is task:
            del self._inflight[key]
        if not task.cancelled():
            task.exception()  # consume: waiters may all have gone away

    async def _compute_and_store(self, query: InfluentialQuery) -> ResultSet:
        # Wait out any in-progress weight update, then snapshot the epoch:
        # a result computed against these weights is only cached while no
        # newer update has invalidated them.  No await sits between the
        # gate, the epoch read and the executor dispatch, so the solve is
        # queued on the solver thread ahead of any later update's mutation.
        await self._ready.wait()
        epoch = self._epoch
        started = time.perf_counter()
        # The solver thread runs the cache-free half of submit(): the
        # result cache stays loop-owned, the engine pool solver-owned.
        result = await self._run_off_loop(self.service._solve, query)
        elapsed = time.perf_counter() - started
        # EWMA with a healthy share of the newest observation: the queue
        # bound's Retry-After must track regime changes (a burst of slow
        # truss solves, say) within a handful of requests.
        self._solve_avg_seconds += 0.2 * (elapsed - self._solve_avg_seconds)
        if self._epoch == epoch:
            self.service.store(query, result)
        return result

    # ------------------------------------------------------------------
    # Endpoint handlers (body → JSON-ready dict or encoded bytes, or
    # _HTTPError)
    # ------------------------------------------------------------------
    async def _get_index(self, body: object) -> dict:
        graph = self.service.graph
        return {
            "service": "repro-topr-influential",
            "version": __version__,
            "api_version": API_VERSION,
            "graph": {"n": graph.n, "m": graph.m},
            "kmax": self.service.kmax,
            "endpoints": sorted(f"{m} {p}" for m, p in self._routes),
        }

    def _replication_status(self) -> "dict | None":
        if self.replicator is None:
            return None
        return self.replicator.status()

    async def _get_healthz(self, body: object) -> dict:
        graph = self.service.graph
        replication = self._replication_status()
        payload = {
            "status": "draining" if self._draining else "ok",
            "graph": {"n": graph.n, "m": graph.m},
            "kmax": self.service.kmax,
            "epoch": self._epoch,
            "rss_bytes": rss_bytes(),
            # Entries behind the replication-log head (null when this
            # process serves without a log): the fleet bench and the
            # kill-a-replica test watch this reach 0 during catch-up.
            "replication_lag": (
                replication["lag"] if replication is not None else None
            ),
        }
        if self.member_index is not None:
            payload["member"] = self.member_index
        if replication is not None:
            payload["replication"] = replication
        return payload

    async def _get_stats(self, body: object) -> dict:
        # service.stats() walks the engine pool, which the solver thread
        # may be mutating — read it from that thread so the two serialize.
        stats = await self._run_off_loop(self.service.stats)
        stats["result_cache"]["body_hits"] = self.body_hits
        replication = self._replication_status()
        stats["http"] = {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "errors": self.http_errors,
            "shed": self.shed,
            "epoch": self._epoch,
            "inflight": len(self._inflight),
            "max_queue_depth": self.max_queue_depth,
            "draining": self._draining,
        }
        stats["epoch"] = self._epoch
        stats["rss_bytes"] = rss_bytes()
        stats["replication_lag"] = (
            replication["lag"] if replication is not None else None
        )
        if self.member_index is not None:
            stats["member"] = self.member_index
        if replication is not None:
            stats["replication"] = replication
        return stats

    # -- v1 envelope ----------------------------------------------------
    #: Top-level fields a v1 query envelope may carry; solver tuning must
    #: sit under ``options``.
    _V1_QUERY_FIELDS = frozenset(
        {"k", "r", "f", "s", "cohesion", "non_overlapping", "constraints",
         "options"}
    )
    #: Tuning knobs accepted under ``options``.
    _V1_OPTION_FIELDS = frozenset(
        {"method", "eps", "greedy", "seed_order", "rng_seed"}
    )

    def _parse_v1_query(self, entry: object) -> InfluentialQuery:
        """Validate one v1 query envelope into an ``InfluentialQuery``.

        A tuning knob spelled at the top level is the expected mistake,
        so its rejection names the fix ("nest it under 'options'")
        instead of a bare unknown-field error.
        """
        if not isinstance(entry, Mapping):
            raise _HTTPError(
                400,
                f"v1 query must be a JSON object, got {type(entry).__name__}",
            )
        unknown = set(map(str, entry)) - self._V1_QUERY_FIELDS
        if unknown:
            misplaced = sorted(unknown & self._V1_OPTION_FIELDS)
            if misplaced:
                raise _HTTPError(
                    400,
                    f"solver option(s) {misplaced} must be nested under "
                    f"'options' in a v1 query",
                )
            raise _HTTPError(
                400,
                f"unknown v1 query field(s) {sorted(unknown)}; expected "
                f"among {sorted(self._V1_QUERY_FIELDS)}",
            )
        options = entry.get("options")
        if options is None:
            options = {}
        if not isinstance(options, Mapping):
            raise _HTTPError(
                400,
                f"'options' must be a JSON object of solver tuning knobs, "
                f"got {type(options).__name__}",
            )
        unknown_options = set(map(str, options)) - self._V1_OPTION_FIELDS
        if unknown_options:
            raise _HTTPError(
                400,
                f"unknown option field(s) {sorted(unknown_options)}; "
                f"expected among {sorted(self._V1_OPTION_FIELDS)}",
            )
        merged = {
            name: value for name, value in entry.items() if name != "options"
        }
        merged.update(options)
        return InfluentialQuery.create(merged)

    async def _post_query_v1(self, body: object) -> bytes:
        query = self._parse_v1_query(body)
        # An entry present now makes this read a hit: answer() peeks before
        # its first await.  From the entry's first hit on, its body slot
        # holds the encoded response — query_envelope reads only cache-key
        # fields, so the bytes are a function of (key, result).  A miss
        # encodes without storing: most are invalidated unread.
        entry = self.service.cached_entry(query)
        result = await self.answer(query)
        if entry is None or entry.result is not result:
            return _encode(result_payload_v1(query, result))
        if entry.body is None:
            entry.body = _encode(result_payload_v1(query, result))
        else:
            self.body_hits += 1
        return entry.body  # type: ignore[return-value]

    async def _post_batch_v1(self, body: object) -> dict:
        if isinstance(body, Mapping) and "queries" in body:
            body = body["queries"]
        if not isinstance(body, list):
            raise _HTTPError(
                400,
                'v1 batch body must be {"queries": [...]} '
                "(or a bare JSON array of v1 query envelopes)",
            )
        queries = [self._parse_v1_query(entry) for entry in body]
        start = time.perf_counter()
        # return_exceptions: one bad member (e.g. a k the solver rejects)
        # must not cancel its siblings — they may be coalesced with other
        # connections' in-flight requests.  The batch still fails as a
        # whole, after every member has settled.
        results = await asyncio.gather(
            *(self.answer(q) for q in queries), return_exceptions=True
        )
        for outcome in results:
            if isinstance(outcome, BaseException):
                raise outcome
        return {
            "api_version": API_VERSION,
            "count": len(results),
            "elapsed_seconds": round(time.perf_counter() - start, 6),
            "results": [
                result_payload_v1(query, result)
                for query, result in zip(queries, results)
            ],
        }

    # -- analytics ------------------------------------------------------
    def _parse_analytics_body(
        self, body: object, extras: frozenset
    ) -> tuple[InfluentialQuery, Mapping]:
        """Split an analytics body into (validated query, extra knobs)."""
        if not isinstance(body, Mapping) or "query" not in body:
            raise _HTTPError(
                400,
                'analytics body must be {"query": {...v1 query...}, ...}',
            )
        unknown = set(map(str, body)) - ({"query"} | set(extras))
        if unknown:
            raise _HTTPError(
                400,
                f"unknown analytics field(s) {sorted(unknown)}; expected "
                f"among {sorted({'query'} | set(extras))}",
            )
        return self._parse_v1_query(body["query"]), body

    @staticmethod
    def _analytics_int(body: Mapping, name: str, default: int, low: int) -> int:
        value = body.get(name, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise _HTTPError(
                400, f'"{name}" must be an integer >= {low}, got {value!r}'
            )
        return value

    async def _post_analytics_leaders(self, body: object) -> dict:
        from repro.analytics import community_leaders

        query, extras = self._parse_analytics_body(body, frozenset({"deputies"}))
        deputies = self._analytics_int(extras, "deputies", 1, 0)
        result = await self.answer(query)
        # The roster walk is pure read-only post-processing, but on a big
        # graph it is still O(total community size) — keep it off the loop.
        leaders = await self._run_off_loop(
            community_leaders, self.service.graph, result, deputies
        )
        return {
            "api_version": API_VERSION,
            "query": query_envelope(query),
            "count": len(result),
            "leaders": leaders,
        }

    async def _post_analytics_reach(self, body: object) -> dict:
        from repro.analytics import khop_reach

        query, extras = self._parse_analytics_body(body, frozenset({"hops"}))
        hops = self._analytics_int(extras, "hops", 2, 1)
        result = await self.answer(query)
        reach = await self._run_off_loop(
            khop_reach, self.service.graph, result, hops
        )
        return {
            "api_version": API_VERSION,
            "query": query_envelope(query),
            "count": len(result),
            "hops": hops,
            "reach": reach,
        }

    async def _post_analytics_summary(self, body: object) -> dict:
        from repro.analytics import community_summary

        query, __ = self._parse_analytics_body(body, frozenset())
        result = await self.answer(query)
        summary = await self._run_off_loop(
            community_summary, self.service.graph, result
        )
        return {
            "api_version": API_VERSION,
            "query": query_envelope(query),
            "count": len(result),
            "summary": summary,
        }

    async def _post_update_weights(self, body: object) -> dict:
        if not isinstance(body, Mapping) or "weights" not in body:
            raise _HTTPError(400, 'body must be {"weights": [...]}')
        weights = body["weights"]
        n = self.service.graph.n
        if not isinstance(weights, list) or len(weights) != n:
            raise _HTTPError(
                400, f"weights must be a JSON array of {n} numbers"
            )
        def _validated() -> np.ndarray:
            # Full validation *before* any teardown: a bad body must 400
            # without costing the in-flight solves or the epoch.
            # with_weights builds a validated throwaway twin (finite,
            # non-negative, right shape) and mutates nothing.
            array = np.asarray(weights, dtype=np.float64)
            self.service.graph.with_weights(array)
            return array

        try:
            # Off-loop: coercing a multi-million-element list is loop-
            # stalling work of its own (reads only, safe off-thread).
            candidate = await asyncio.get_running_loop().run_in_executor(
                None, _validated
            )
        except (TypeError, ValueError) as exc:
            raise _HTTPError(
                400, f"weights must be an array of numbers: {exc}"
            )
        if self.replicator is not None:
            # Fleet mode: the mutation becomes a replication-log record
            # first, then applies here by replaying that record — the
            # same path every sibling and follower takes, so all replicas
            # absorb the identical sequence.
            return await self.replicator.publish(
                "update-weights", {"weights": weights}
            )
        async with self._update_lock:
            await self._apply_weights_locked(candidate)
        return {
            "status": "reweighted",
            "n": n,
            "epoch": self._epoch,
            "invalidations": self.service.invalidations,
        }

    async def _apply_weights_locked(self, candidate: np.ndarray) -> None:
        """The mutation half of a weight update; caller holds _update_lock.

        Gates new solves for the duration and admits no cache writes from
        the old weighting: solves already in flight drain against the old
        weights and answer their waiters, but their pre-bump epoch keeps
        them out of the invalidated cache.
        """
        self._ready.clear()
        try:
            self._epoch += 1
            self._inflight.clear()
            await self._run_off_loop(
                self.service._reweight_shared_state, candidate
            )
            self.service._drop_results()
        finally:
            self._ready.set()

    async def _post_update_edges(self, body: object) -> dict:
        if not isinstance(body, Mapping) or not (
            "insert" in body or "delete" in body
        ):
            raise _HTTPError(
                400,
                'body must be {"insert": [[u, v], ...], "delete": [[u, v], ...]}'
                " with at least one of the two lists",
            )
        unknown = set(body) - {"insert", "delete"}
        if unknown:
            raise _HTTPError(
                400, f"unknown edge-update field(s) {sorted(unknown)}"
            )
        for field in ("insert", "delete"):
            if field in body and not isinstance(body[field], list):
                raise _HTTPError(
                    400,
                    f'"{field}" must be a JSON array of [u, v] pairs, '
                    f"got {type(body[field]).__name__}",
                )
        from repro.graphs.delta import GraphDelta

        if self.replicator is not None:
            # Fleet mode: validate-then-apply happens inside publish(),
            # against the graph as of the log head (the replicator syncs
            # pending foreign records first, so the seq order *is* the
            # apply order on every replica).
            return await self.replicator.publish(
                "update-edges",
                {
                    "insert": list(body.get("insert", [])),
                    "delete": list(body.get("delete", [])),
                },
            )
        async with self._update_lock:
            # Full validation against the *current* graph before any
            # teardown (the lock serializes updates, so the graph cannot
            # shift underneath): a malformed batch must 400 without
            # costing the epoch or a single cache entry.
            try:
                inserts, deletes = GraphDelta.validate(
                    self.service.graph,
                    body.get("insert", ()),
                    body.get("delete", ()),
                )
            except ReproError as exc:
                raise _HTTPError(400, str(exc))
            report = await self._apply_edges_locked(inserts, deletes)
        return {
            "status": "updated",
            "epoch": self._epoch,
            "kmax": self.service.kmax,
            **report.summary(),
        }

    async def _apply_edges_locked(self, inserts, deletes):
        """The mutation half of an edge update; caller holds _update_lock.

        Same discipline as a weight update: bump the epoch so in-flight
        solves (admitted against the old topology) answer their waiters
        but never repopulate the cache.
        """
        self._ready.clear()
        try:
            self._epoch += 1
            self._inflight.clear()
            report = await self._run_off_loop(
                self.service._apply_edges_shared_state, inserts, deletes
            )
            self.service._drop_results_for_update(report)
        finally:
            self._ready.set()
        return report

    async def _post_invalidate(self, body: object) -> dict:
        body = body if isinstance(body, Mapping) else {}
        k = body.get("k")
        if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
            raise _HTTPError(400, f'"k" must be an integer, got {k!r}')
        if k is None:
            # Full drop: also forget in-flight solves — nothing computed
            # before this point may land in the cache afterwards.
            self._epoch += 1
            self._inflight.clear()
        # Per-k drops touch only settled entries: an in-flight solve at
        # this k was admitted before the invalidation and its weights are
        # unchanged, so letting it finish (and cache) stays correct —
        # and unrelated ks keep their single-flight entries.
        dropped = self.service.invalidate(k)
        return {"status": "invalidated", "k": k, "dropped": dropped}

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Registered so drain() can find (and cancel) handlers idling
        # between keep-alive requests; active requests are counted
        # separately and always allowed to finish.
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
            # readline() reports an over-limit request/header line as a
            # plain ValueError; treat it like any other unspeakable
            # request — drop the connection.
            ValueError,
        ):
            pass  # client went away (or sent garbage) mid-request
        except asyncio.CancelledError:
            # Loop teardown cancels handlers idling between keep-alive
            # requests; ending this task *cancelled* makes 3.11's streams
            # done-callback re-raise and log it, so absorb and just close.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            # CancelledError too: teardown may re-deliver the cancellation
            # at the wait_closed() await inside this finally.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line.strip():
            return False
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._respond(
                writer,
                400,
                _error_body("malformed_request", "malformed request line"),
                False,
            )
            return False
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADER_LINES:
                await self._respond(
                    writer,
                    431,
                    _error_body(
                        "header_fields_too_large", "too many header fields"
                    ),
                    False,
                )
                return False
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"

        self.requests += 1
        path = target.split("?", 1)[0]
        if "transfer-encoding" in headers:
            # Chunked (or any transfer-coded) bodies are not implemented;
            # answering as if the body were empty would desync keep-alive
            # framing, so refuse and close.
            await self._respond(
                writer,
                501,
                _error_body(
                    "not_implemented",
                    "transfer-encoding is not supported; "
                    "send a Content-Length body",
                ),
                False,
            )
            return False
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0 or length > self.max_body_bytes:
            oversized = length > self.max_body_bytes
            await self._respond(
                writer,
                413 if oversized else 400,
                _error_body(
                    "payload_too_large" if oversized else "bad_request",
                    "unacceptable content-length "
                    f"{headers.get('content-length')!r}",
                ),
                False,
            )
            return False
        raw = await reader.readexactly(length) if length else b""

        if self._draining:
            # The response for an already-read request still goes out, but
            # the connection closes after it — drain() must converge.
            keep_alive = False
        self._active_requests += 1
        try:
            status, payload, extra = await self._dispatch(
                method.upper(), path, raw
            )
            if status != 200:
                self.http_errors += 1
            if self._draining:
                keep_alive = False
            await self._respond(writer, status, payload, keep_alive, extra)
        finally:
            self._active_requests -= 1
        return keep_alive

    async def _dispatch(
        self, method: str, path: str, raw: bytes
    ) -> "tuple[int, dict | bytes, dict]":
        handler = self._routes.get((method, path))
        if handler is None:
            if any(p == path for _m, p in self._routes):
                return (
                    405,
                    _error_body(
                        "method_not_allowed", f"{method} not allowed on {path}"
                    ),
                    {},
                )
            return 404, {
                **_error_body("not_found", f"no route {path}"),
                "endpoints": sorted(f"{m} {p}" for m, p in self._routes),
            }, {}
        body: object = None
        if raw:
            try:
                if len(raw) > OFFLOAD_PARSE_BYTES:
                    # Decoding tens of MB of JSON takes ~seconds; keep the
                    # loop answering health checks while it happens.
                    body = await asyncio.get_running_loop().run_in_executor(
                        None, json.loads, raw
                    )
                else:
                    body = json.loads(raw)
            except json.JSONDecodeError as exc:
                return (
                    400,
                    _error_body(
                        "invalid_json", f"body is not valid JSON: {exc}"
                    ),
                    {},
                )
        try:
            payload = await handler(body)
            if isinstance(payload, dict) and "api_version" not in payload:
                # Handlers that are not query-shaped (healthz, stats,
                # mutations) leave the version stamp to this one place.
                payload = {"api_version": API_VERSION, **payload}
            return 200, payload, {}
        except _HTTPError as exc:
            return exc.status, _error_body(exc.code, str(exc)), exc.headers
        except ReproError as exc:
            # Spec/solver rejections: the client's request is at fault and
            # carries the same message a cold library call would raise,
            # with the exception class as the machine-readable code.
            return 400, _error_body(_repro_error_code(exc), str(exc)), {}
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            return (
                500,
                _error_body("internal", f"{type(exc).__name__}: {exc}"),
                {},
            )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict | bytes",
        keep_alive: bool,
        extra_headers: "Mapping[str, str] | None" = None,
    ) -> None:
        """Write one response; ``payload`` is a JSON-ready dict, or a body
        already encoded (a ``/v1/query`` answer)."""
        body = payload if isinstance(payload, bytes) else _encode(payload)
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        reuse_port: bool = False,
        sock: "object | None" = None,
    ) -> asyncio.AbstractServer:
        """Bind and start serving; returns the asyncio server object.

        ``reuse_port`` sets SO_REUSEPORT so several fleet members can bind
        the same address and let the kernel spread connections; ``sock``
        serves on an already-bound socket instead (proxy-mode members
        inherit theirs from the fleet parent).
        """
        self._ensure_executors()
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port, reuse_port=reuse_port
            )
        return self._server

    async def drain(self, timeout: float = 10.0) -> None:
        """Stop accepting, finish in-flight requests, close keep-alives.

        After this returns no handler task is running: active requests got
        their responses (with ``Connection: close``) up to ``timeout``
        seconds, then idle keep-alive connections — parked in
        ``readline()`` waiting for a request that will never come — are
        cancelled outright.  ``Server.wait_closed()`` is deliberately not
        used: on 3.12+ it waits for *all* handlers, which deadlocks on an
        idle keep-alive.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + max(0.0, timeout)
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        leftovers = [t for t in self._connections if not t.done()]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        on_ready: "Callable[[asyncio.AbstractServer], None] | None" = None,
        *,
        reuse_port: bool = False,
        sock: "object | None" = None,
        handle_signals: bool = False,
        drain_timeout: float = 10.0,
    ) -> None:
        """Start and serve until cancelled (or signalled, when asked).

        ``on_ready`` fires once the socket is bound (the CLI prints its
        "listening on ..." banner there — never before a successful bind).
        With ``handle_signals``, SIGTERM/SIGINT trigger a graceful
        :meth:`drain` instead of tearing the loop down mid-response.
        """
        server = await self.start(
            host, port, reuse_port=reuse_port, sock=sock
        )
        if on_ready is not None:
            on_ready(server)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list[int] = []
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop.set)
                    installed.append(signum)
                except (NotImplementedError, ValueError, RuntimeError):
                    pass  # non-main thread or unsupported platform
        try:
            async with server:
                if installed:
                    serve_task = asyncio.ensure_future(
                        server.serve_forever()
                    )
                    stop_task = asyncio.ensure_future(stop.wait())
                    await asyncio.wait(
                        {serve_task, stop_task},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    stop_task.cancel()
                    serve_task.cancel()
                    await asyncio.gather(
                        serve_task, stop_task, return_exceptions=True
                    )
                    await self.drain(drain_timeout)
                else:
                    await server.serve_forever()
        finally:
            for signum in installed:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(signum)
            self.shutdown_executors()


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_body_bytes: int = MAX_BODY_BYTES,
    on_ready: "Callable[[asyncio.AbstractServer], None] | None" = None,
) -> None:
    """Blocking entry point: serve ``service`` over HTTP until interrupted.

    This is what ``repro serve`` calls after standing up the service (from
    a dataset, an edge list, or — the fast path — a snapshot directory via
    :func:`repro.serving.store.load_service`).  A failed bind raises
    ``OSError`` before ``on_ready`` runs.
    """
    app = ServingApp(service, max_body_bytes=max_body_bytes)
    try:
        asyncio.run(app.run(host=host, port=port, on_ready=on_ready))
    except KeyboardInterrupt:
        pass
    finally:
        app.shutdown_executors()


@contextlib.contextmanager
def run_server_in_thread(
    service_or_app: "QueryService | ServingApp",
    host: str = "127.0.0.1",
    port: int = 0,
):
    """Host a server on a background thread; yields its base URL.

    ``port=0`` binds an ephemeral port (the yielded URL carries the real
    one).  Used by the HTTP tests, ``benchmarks/bench_http_serving.py``
    and ``examples/serve_and_query.py`` to exercise true HTTP traffic
    without a subprocess.
    """
    app = (
        service_or_app
        if isinstance(service_or_app, ServingApp)
        else ServingApp(service_or_app)
    )
    started = threading.Event()
    state: dict[str, object] = {}

    def _runner() -> None:
        async def _main() -> None:
            server = await app.start(host, port)
            state["port"] = server.sockets[0].getsockname()[1]
            state["loop"] = asyncio.get_running_loop()
            stop = asyncio.Event()
            state["stop"] = stop
            started.set()
            await stop.wait()
            server.close()
            await server.wait_closed()

        try:
            asyncio.run(_main())
        except Exception as exc:  # pragma: no cover — surfaced via timeout
            state["error"] = exc
            started.set()

    thread = threading.Thread(
        target=_runner, name="repro-http", daemon=True
    )
    thread.start()
    if not started.wait(timeout=60):
        raise RuntimeError("HTTP server thread failed to start in time")
    if "error" in state:
        raise RuntimeError(f"HTTP server failed to start: {state['error']}")
    try:
        yield f"http://{host}:{state['port']}"
    finally:
        loop: asyncio.AbstractEventLoop = state["loop"]  # type: ignore[assignment]
        stop: asyncio.Event = state["stop"]  # type: ignore[assignment]
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(stop.set)
        thread.join(timeout=60)
        app.shutdown_executors()
