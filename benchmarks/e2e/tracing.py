"""Spans around the public calls into each layer, recorded from outside.

:func:`install` replaces each function named in :data:`POINTS` with a
wrapper that records one span per call: ``(id, parent, name, start_ns,
end_ns, thread, key, items)``.  Within one thread or asyncio task the
parent comes from a ``ContextVar``.  Threads of a ``ThreadPoolExecutor``
-- the expansion pool, the solver thread -- do not inherit it, so their
outermost spans have parent 0.  The solver thread starts with no
parent, so ``QueryService._solve`` spans carry the query's cache-key hash
in ``key``; the analysis links each one to the ``ServingApp.answer`` span
with the same key that was waiting on it.  ``CSRExpansionContext.expand``
is a generator consumed lazily by the search, so it is recorded as a
zero-length event whose ``items`` is the number of children it yielded.

Nothing here is imported by the program: ``traced_serve.py`` and
``solve_child.py`` call :func:`install` before they run it.  Clocks are
``perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux), so spans from a
server process and windows from the bench process share one time axis.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

#: (module, attribute path, span name).  A function a module imported by
#: name is patched in that module's namespace.
POINTS = (
    ("repro.serving.http", "ServingApp.answer", "http.answer"),
    ("repro.serving.http", "result_payload_v1", "http.serialize"),
    ("repro.serving.service", "QueryService._solve", "service.solve"),
    (
        "repro.serving.service",
        "QueryService._apply_edges_shared_state",
        "service.apply_edges",
    ),
    ("repro.serving.service", "top_r_communities", "service.top_r"),
    ("repro.index.influential_index", "InfluentialIndex.serve", "index.serve"),
    ("repro.index.influential_index", "top_r_communities", "index.top_r"),
    (
        "repro.serving.engine_pool",
        "ExpansionEnginePool.structure_for",
        "engine_pool.structure_for",
    ),
    (
        "repro.serving.engine_pool",
        "ExpansionEnginePool.apply_update",
        "engine_pool.apply_update",
    ),
    ("repro.graphs.delta", "GraphDelta.apply", "delta.apply"),
    ("repro.influential.api", "top_r_communities", "solve.top_r"),
    ("repro.influential.api", "tic_improved", "influential.tic_improved"),
    ("repro.influential.api", "local_search", "influential.local_search"),
    ("repro.influential.api", "top_r_min", "influential.minmax"),
    ("repro.influential.api", "top_r_max", "influential.minmax"),
    ("repro.influential.api", "min_communities", "influential.minmax"),
    ("repro.influential.api", "max_communities", "influential.minmax"),
    ("repro.kernels", "peel_to_kcore", "kernels.peel_to_kcore"),
    ("repro.kernels", "components_of_mask", "kernels.components_of_mask"),
    ("repro.kernels", "core_numbers", "kernels.core_numbers"),
    ("repro.kernels", "arc_supports", "kernels.arc_supports"),
)

KERNELS = ("peel_to_kcore", "components_of_mask", "core_numbers", "arc_supports")

#: Spans whose first argument after ``self`` is a query: they carry its key.
KEYED = ("http.answer", "service.solve")


def _items(result) -> int:
    """The result's length; -1 marks "no answer" (an index miss is None)."""
    try:
        return len(result)
    except TypeError:
        return -1


class Tracer:
    """Spans kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "e2e_span", default=0
        )

    def _record(self, span_id, parent, name, start, key, items) -> None:
        thread = threading.current_thread().name
        end = time.perf_counter_ns()
        self.spans.append((span_id, parent, name, start, end, thread, key, items))

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call (coroutines awaited inside)."""

        def key_of(args) -> int:
            return hash(args[1].cache_key()) if name in KEYED else 0

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id, parent = next(self._ids), self._parent.get()
                token = self._parent.set(span_id)
                start, result = time.perf_counter_ns(), None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    self._parent.reset(token)
                    self._record(
                        span_id, parent, name, start, key_of(args), _items(result)
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = next(self._ids), self._parent.get()
            token = self._parent.set(span_id)
            start, result = time.perf_counter_ns(), None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._parent.reset(token)
                self._record(span_id, parent, name, start, key_of(args), _items(result))

        return wrapper

    def wrap_expand(self, fn):
        """``expand`` recorded as a zero-length event carrying its child count.

        The generator runs interleaved with its consumer, so a duration
        would charge the consumer's time to it.
        """

        @functools.wraps(fn)
        def expand(*args, **kwargs):
            span_id, parent = next(self._ids), self._parent.get()
            start, children = time.perf_counter_ns(), 0
            try:
                for child in fn(*args, **kwargs):
                    children += 1
                    yield child
            finally:
                thread = threading.current_thread().name
                name = "influential.expand"
                self.spans.append(
                    (span_id, parent, name, start, start, thread, 0, children)
                )

        return expand

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every point in :data:`POINTS` (and ``expand``) with ``tracer``."""
    for module_name, path, name in POINTS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    from repro.influential.expansion_csr import CSRExpansionContext

    CSRExpansionContext.expand = tracer.wrap_expand(CSRExpansionContext.expand)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def window(spans: list, start_ns: int, end_ns: int) -> list:
    """Spans that started inside ``[start_ns, end_ns)``."""
    return [span for span in spans if start_ns <= span[3] < end_ns]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def mean(values) -> float:
    """Arithmetic mean; 0 for no values."""
    return statistics.fmean(values) if values else 0.0


def self_time_by_layer(spans: list, thread: str | None = None) -> dict[str, float]:
    """Seconds of self time per span name: each span's duration minus the
    time its same-thread children cover.  With ``thread``, only that
    thread's spans count.

    Work handed to a pool thread overlaps the span that waits for it, so
    it is never subtracted from that span.  ``ThreadPoolExecutor`` does
    not carry the ``ContextVar`` into its workers, so such spans have
    parent 0 even though their time lies inside a top-level span: sum
    one thread's self times to compare them with wall time.
    """
    if thread is not None:
        spans = [span for span in spans if span[5] == thread]
    thread_of = {span[0]: span[5] for span in spans}
    covered: dict[int, int] = defaultdict(int)
    for __, parent, __, start, end, child_thread, *___ in spans:
        if parent and thread_of.get(parent) == child_thread:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, __, name, start, end, *___ in spans:
        totals[name] += (end - start - covered[span_id]) / 1e9
    return dict(totals)


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer numbers from one window of spans (README lists each)."""
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def durations_ms(name: str) -> list[float]:
        return [(s[4] - s[3]) / 1e6 for s in by_name[name]]

    def pct(name: str, q: float) -> float:
        return percentile(durations_ms(name), q)

    def mean_ms(name: str) -> float:
        return mean(durations_ms(name))

    def busy_s(name: str) -> float:
        return sum(durations_ms(name)) / 1e3

    # A miss's answer span waits on the solve span with its cache key that
    # started inside it; the difference is queueing plus loop hand-off.
    solves = defaultdict(list)
    for span in by_name["service.solve"]:
        solves[span[6]].append(span)
    waits = []
    for answer in by_name["http.answer"]:
        for solve in solves.get(answer[6], ()):
            if answer[3] <= solve[3] <= answer[4]:
                waited = (answer[4] - answer[3]) - (solve[4] - solve[3])
                waits.append(waited / 1e6)
                break
    index = by_name["index.serve"]
    solver_thread_s = busy_s("service.solve") + busy_s("service.apply_edges")
    out = {
        "http.answer_ms_p50": pct("http.answer", 50),
        "http.answer_ms_p99": pct("http.answer", 99),
        "http.serialize_ms_mean": mean_ms("http.serialize"),
        "http.solve_wait_ms_p99": percentile(waits, 99),
        "service.solve_ms_p50": pct("service.top_r", 50),
        "service.solve_ms_p99": pct("service.top_r", 99),
        "service.solver_busy_frac": solver_thread_s / wall_s if wall_s else 0.0,
        "index.serve_calls": float(len(index)),
        "index.hit_ratio": (
            sum(1 for s in index if s[7] >= 0) / len(index) if index else 0.0
        ),
        "index.serve_ms_p99": pct("index.serve", 99),
        "engine_pool.structure_for_calls": float(
            len(by_name["engine_pool.structure_for"])
        ),
        "engine_pool.structure_for_busy_s": busy_s("engine_pool.structure_for"),
        "engine_pool.apply_update_ms_mean": mean_ms("engine_pool.apply_update"),
        "delta.apply_ms_p50": pct("delta.apply", 50),
        "influential.tic_improved_busy_s": busy_s("influential.tic_improved"),
        "influential.local_search_busy_s": busy_s("influential.local_search"),
        "influential.minmax_busy_s": busy_s("influential.minmax"),
    }
    for kernel in KERNELS:
        out[f"kernels.{kernel}_calls"] = float(len(by_name[f"kernels.{kernel}"]))
        out[f"kernels.{kernel}_busy_s"] = busy_s(f"kernels.{kernel}")
    return out
