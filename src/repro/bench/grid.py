"""The declarative experiment grid: Section VI's evaluation as data.

The paper evaluates over a parameter grid (dataset × k × r × aggregator ×
ε); this repo's performance claims add a *serving tier* axis and a
label-constraint axis.  Every tier is timed against the cold solver call
(see :class:`CellExecutor` for the eight tiers); the yardstick tiers
(:data:`YARDSTICK_TIERS`) time a fixed other way of answering, so a
slowdown of the cold path itself shows too.
A :class:`GridSpec` names one such grid declaratively; :func:`run_grid`
executes every cell best-of-N and appends the outcome to a
:class:`~repro.bench.history.HistoryDB`, keyed by
``(commit, config_hash, cell)`` with a done / error / skipped status per
cell — errors are recorded, never raised, so one broken cell cannot hide
the rest of the sweep.

Each done cell also records a digest of the *answer* it measured: cells
that differ only in the serving tier must agree, and the comparator
(:func:`repro.bench.compare.compare_grid_runs`) fails the run when they
do not.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import pathlib
import tempfile
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping

from repro.bench.clock import Clock
from repro.bench.history import CellRecord, HistoryDB
from repro.bench.runner import time_call

__all__ = [
    "GRIDS",
    "GridCell",
    "GridSpec",
    "grid_spec",
    "run_grid",
]


#: Every serving tier the executor runs; see :class:`CellExecutor`.
TIERS = (
    "cold",
    "service",
    "index",
    "reference",
    "materialize",
    "http",
    "snapshot",
    "update",
)
#: Tiers that time a fixed other way of answering the cell's query rather
#: than a faster one.  The comparator judges them as cold's speedup over
#: the tier, with no noise band, so a slower cold path fails the gate.
YARDSTICK_TIERS = ("reference", "materialize")


@dataclass(frozen=True)
class GridSpec:
    """One declarative grid.  Frozen: its JSON is the config hash."""

    name: str
    graphs: tuple[tuple[int, int], ...]  # (n, m) G(n, m) random graphs
    ks: tuple[int, ...]
    rs: tuple[int, ...]
    aggregators: tuple[str, ...]
    tiers: tuple[str, ...]  # one of TIERS
    #: Label-constraint axis: ``"none"`` or compact predicate specs like
    #: ``"eq:deg:high"`` / ``"any:deg:mid,deg:high"`` / ``"prefix:deg:"``
    #: evaluated against the executor's degree-tercile labels.
    constrained: tuple[str, ...] = ("none",)
    eps: float = 0.1
    seed: int = 7
    #: Best-of-N: :func:`run_grid` makes this many passes over the grid,
    #: each timing every cell once.
    repeats: int = 3
    index_depth: int = 32

    def config_hash(self) -> str:
        """Fingerprint of the grid definition (not of any measurement)."""
        canonical = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def cells(self) -> list["GridCell"]:
        """Every cell, in deterministic enumeration order."""
        out = []
        for (n, m), k, r, f, tier, constrained in (
            itertools.product(
                self.graphs,
                self.ks,
                self.rs,
                self.aggregators,
                self.tiers,
                self.constrained,
            )
        ):
            out.append(
                GridCell(
                    n=n, m=m, k=k, r=r, aggregator=f, tier=tier,
                    eps=self.eps, constrained=constrained,
                )
            )
        return out


@dataclass(frozen=True)
class GridCell:
    """One grid point; ``cell_id`` is its stable history key."""

    n: int
    m: int
    k: int
    r: int
    aggregator: str
    tier: str
    eps: float
    constrained: str = "none"

    @property
    def cell_id(self) -> str:
        # The constraint segment appears only when set, so unconstrained
        # cell ids (the history keys of every pre-axis run) stay stable.
        constraint = (
            "" if self.constrained == "none" else f"/c={self.constrained}"
        )
        return (
            f"g{self.n}x{self.m}/k{self.k}/r{self.r}/f={self.aggregator}"
            f"{constraint}/{self.tier}"
        )

    @property
    def axes(self) -> dict[str, object]:
        return {
            "graph": f"g{self.n}x{self.m}",
            "k": self.k,
            "r": self.r,
            "f": self.aggregator,
            "tier": self.tier,
            "eps": self.eps,
            "constrained": self.constrained,
        }

    def skip_reason(self) -> "str | None":
        """Why this cell is inapplicable (``None`` = runnable).

        The precomputed index serves the sum aggregator, unconstrained; the
        reference set engine differs from production only for ``sum``; and
        filter-then-query needs a predicate.  Other combinations are
        recorded as ``skipped`` so the grid's shape stays visible in
        history.
        """
        if self.tier == "index" and self.aggregator != "sum":
            return "index tier serves the sum aggregator only"
        if self.tier == "index" and self.constrained != "none":
            return "the precomputed index serves unconstrained queries only"
        if self.tier == "reference" and self.aggregator != "sum":
            return "set_engine() leaves the min/max community forest unchanged"
        if self.tier == "materialize" and self.constrained == "none":
            return "filter-then-query needs a label constraint"
        return None


# ----------------------------------------------------------------------
# Named grids
# ----------------------------------------------------------------------
#: ``smoke`` exercises the machinery in seconds (CLI tests, local sanity);
#: ``ci`` is the gating PR-sized grid (small graph; the cross-tier digest
#: check rides on it) and the only one that runs every tier; ``full`` is
#: the nightly sweep.  Editing a grid changes its config hash, and history
#: recorded under the old hash stops comparing.
#: The aggregator axis pairs ``sum`` (the headline expansion solvers +
#: index) with ``min`` (the minmax solver family); ``avg`` is excluded
#: from timed grids on purpose — unconstrained, its local-search solver
#: BFSes the whole k-core from every seed, so one cold ``ci`` cell
#: (g1000x8000, k=4 or 8, r=5) takes 8-11 s where ``sum`` takes
#: milliseconds (single runs on one core).  It belongs in the
#: paper-figure harness (``repro bench --exp fig7``), not a gating sweep.
GRIDS: dict[str, GridSpec] = {
    "smoke": GridSpec(
        name="smoke",
        graphs=((200, 800),),
        ks=(3,),
        rs=(3,),
        aggregators=("sum",),
        tiers=("cold", "service"),
        repeats=2,
    ),
    "ci": GridSpec(
        name="ci",
        graphs=((1_000, 8_000),),
        ks=(4, 8),
        rs=(5,),
        aggregators=("sum", "min"),
        tiers=TIERS,
        # The constrained leg gates the label-pushdown path per PR: same
        # digest across tiers, timed like everything else; its
        # materialize cells time pushdown against filter-then-query.
        constrained=("none", "eq:deg:high"),
        # Nine passes: on a shared 2-vCPU box, five left the served
        # tiers' per-pass ratio spread too wide to gate them near the
        # 0.7 tolerance without a same-code compare failing now and then.
        repeats=9,
    ),
    "full": GridSpec(
        name="full",
        graphs=((8_000, 64_000), (50_000, 400_000)),
        ks=(4, 8, 16),
        rs=(5, 20),
        aggregators=("sum", "min"),
        tiers=("cold", "service", "index"),
    ),
}


def grid_spec(name: str, repeats: "int | None" = None) -> GridSpec:
    """Look up a named grid, optionally overriding the repeat count."""
    if name not in GRIDS:
        known = ", ".join(sorted(GRIDS))
        raise ValueError(f"unknown grid {name!r}; expected one of: {known}")
    spec = GRIDS[name]
    if repeats is not None:
        spec = replace(spec, repeats=repeats)
    return spec


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellOutcome:
    """What one executed cell measured."""

    run_seconds: tuple[float, ...]
    result_digest: "str | None" = None


class CellExecutor:
    """Default cell runner: real graphs, real solvers, real services.

    Graphs and services are cached across cells — one
    :class:`~repro.serving.service.QueryService` per graph and role,
    built outside any timed region, exactly like a warm deployment.
    The comparator judges each tier by its speedup over cold, and each
    yardstick by cold's speedup over it:

    * ``cold`` — :func:`~repro.influential.api.top_r_communities`;
    * ``reference`` — the same call under
      :func:`repro.reference.set_engine`, a yardstick (``sum`` only: the
      min/max forest is one code path on either engine);
    * ``materialize`` — filter-then-query: solve unconstrained on the
      induced subgraph of the matching vertices and map the ids back, a
      yardstick for label pushdown (constrained cells only);
    * ``service`` / ``index`` — ``QueryService.submit`` on a pool-warm
      service, without / with the precomputed index;
    * ``http`` — ``POST /v1/query`` to that service hosted by
      :func:`~repro.serving.http.run_server_in_thread`, digested from the
      JSON payload;
    * ``snapshot`` — :func:`~repro.serving.store.load_service` on a
      snapshot saved before the timing, then the query: a restart;
    * ``update`` — one fixed non-edge inserted and deleted again through
      ``QueryService.update_edges``, then the query, so its digest also
      checks that the delta round-trips.

    Each call times one repeat: :func:`run_grid` calls the executor once
    per cell per pass.  Every served tier but ``snapshot`` warms its
    service, then empties the result cache before
    the timed call, so no repeat is a dict hit.
    """

    def __init__(self, spec: GridSpec, clock: "Clock | None" = None) -> None:
        self._spec = spec
        self._clock = clock
        self._graphs: dict[tuple[int, int], object] = {}
        self._services: dict[tuple[str, int, int], object] = {}

    def _graph(self, n: int, m: int):
        key = (n, m)
        if key not in self._graphs:
            from repro.graphs.generators.random_graphs import gnm_random_graph
            from repro.utils.rng import make_rng

            graph = gnm_random_graph(n, m, seed=self._spec.seed)
            rng = make_rng(self._spec.seed + 1)
            graph = graph.with_weights(rng.uniform(0.0, 100.0, graph.n))
            if any(value != "none" for value in self._spec.constrained):
                from repro.graphs.io import degree_quantile_labels

                graph = graph.with_labels(degree_quantile_labels(graph))
            graph.csr  # noqa: B018 — flatten once, outside every timing
            self._graphs[key] = graph
        return self._graphs[key]

    def _service(self, role: str, n: int, m: int):
        """The cached service for ``role``: ``plain``, ``indexed`` or
        ``updated`` (the update tier's writes stay off the others)."""
        key = (role, n, m)
        if key not in self._services:
            from repro.serving.service import QueryService

            service = QueryService(self._graph(n, m))
            if role == "indexed":
                service.enable_index(depth=self._spec.index_depth)
            self._services[key] = service
        return self._services[key]

    def __call__(self, cell: GridCell) -> CellOutcome:
        if cell.tier == "cold":
            return self._run_cold(cell)
        if cell.tier == "reference":
            from repro.reference import set_engine

            with set_engine():
                return self._run_cold(cell)
        if cell.tier in ("service", "index"):
            role = "indexed" if cell.tier == "index" else "plain"
            service = self._service(role, cell.n, cell.m)
            query = _query(cell)
            return self._run_served(service, lambda: service.submit(query))
        if cell.tier == "materialize":
            return self._run_materialize(cell)
        if cell.tier == "http":
            return self._run_http(cell)
        if cell.tier == "snapshot":
            return self._run_snapshot(cell)
        if cell.tier == "update":
            return self._run_update(cell)
        raise ValueError(f"unknown serving tier {cell.tier!r}")

    def _time(self, answer, digest=None) -> CellOutcome:
        """One timed call of ``answer``."""
        seconds, result = time_call(answer, clock=self._clock)
        return CellOutcome((seconds,), (digest or _digest)(result))

    def _run_cold(self, cell: GridCell) -> CellOutcome:
        from repro.influential.api import top_r_communities

        graph = self._graph(cell.n, cell.m)
        labels = _constraint_spec(cell.constrained)
        return self._time(
            lambda: top_r_communities(
                graph, cell.k, cell.r, f=cell.aggregator,
                eps=cell.eps, labels=labels,
            )
        )

    def _run_materialize(self, cell: GridCell) -> CellOutcome:
        from repro.graphs.views import induced_subgraph
        from repro.influential.api import top_r_communities
        from repro.influential.constraints import LabelPredicate, matching_mask

        graph = self._graph(cell.n, cell.m)
        predicate = LabelPredicate.from_json(_constraint_spec(cell.constrained))
        matching = matching_mask(graph, predicate).nonzero()[0].tolist()

        def answer() -> tuple[list, list]:
            sub, __ = induced_subgraph(graph, matching)
            result = top_r_communities(
                sub, cell.k, cell.r, f=cell.aggregator, eps=cell.eps
            )
            return result.values(), [
                [matching[v] for v in members]
                for members in result.vertex_sets()
            ]

        return self._time(answer, lambda pair: _pairs_digest(*pair))

    def _run_served(self, service, answer, digest=None) -> CellOutcome:
        """Pool-warm serving: warm, then time with the cache emptied so the
        measurement is the serving path, not a dict hit.
        """
        answer()  # warm the engine pool / index outside the timed call
        service.invalidate()
        return self._time(answer, digest)

    def _run_http(self, cell: GridCell) -> CellOutcome:
        from repro.serving.http import query_envelope, run_server_in_thread

        service = self._service("plain", cell.n, cell.m)
        query = _query(cell)
        body = json.dumps(query_envelope(query))
        with run_server_in_thread(service) as base_url:
            connection = http.client.HTTPConnection(
                base_url.removeprefix("http://"), timeout=600
            )

            def answer() -> dict:
                connection.request("POST", "/v1/query", body=body)
                response = connection.getresponse()
                payload = json.loads(response.read())
                if response.status != 200:
                    raise RuntimeError(f"HTTP {response.status}: {payload}")
                return payload

            try:
                return self._run_served(service, answer, _payload_digest)
            finally:
                connection.close()

    def _run_snapshot(self, cell: GridCell) -> CellOutcome:
        from repro.serving.store import load_service, save_snapshot

        query = _query(cell)
        with tempfile.TemporaryDirectory(prefix="repro-grid-") as scratch:
            target = save_snapshot(
                self._service("plain", cell.n, cell.m),
                pathlib.Path(scratch) / "snapshot",
            )
            return self._time(lambda: load_service(target).submit(query))

    def _run_update(self, cell: GridCell) -> CellOutcome:
        service = self._service("updated", cell.n, cell.m)
        edge = _first_non_edge(self._graph(cell.n, cell.m))
        query = _query(cell)

        def answer():
            service.update_edges(insert=[edge])
            service.update_edges(delete=[edge])
            return service.submit(query)

        return self._run_served(service, answer)


def _query(cell: GridCell):
    """The served form of a cell's query."""
    from repro.serving.query import InfluentialQuery

    predicate = _constraint_spec(cell.constrained)
    return InfluentialQuery(
        k=cell.k, r=cell.r, f=cell.aggregator, eps=cell.eps,
        constraints=None if predicate is None else {"labels": predicate},
    )


def _first_non_edge(graph) -> tuple[int, int]:
    """The lexicographically first vertex pair that is not an edge."""
    csr = graph.csr
    for u in range(graph.n):
        taken = set(csr.indices[csr.indptr[u] : csr.indptr[u + 1]].tolist())
        for v in range(u + 1, graph.n):
            if v not in taken:
                return (u, v)
    raise ValueError("a complete graph has no non-edge to insert")


def _constraint_spec(value: str) -> "dict | None":
    """Parse one ``constrained`` axis value into a labels-predicate spec.

    ``"none"`` means unconstrained; otherwise the value is
    ``kind:argument`` where kind is a predicate kind — the argument may
    itself contain colons (labels like ``deg:high``), and ``any`` takes a
    comma-separated label list.
    """
    if value == "none":
        return None
    kind, __, argument = value.partition(":")
    if kind == "eq":
        return {"eq": argument}
    if kind == "prefix":
        return {"prefix": argument}
    if kind == "any":
        return {"any": argument.split(",")}
    raise ValueError(
        f"unknown constrained axis value {value!r}; expected 'none' or "
        f"'eq:LABEL' / 'prefix:PREFIX' / 'any:LABEL,LABEL,...'"
    )


def _digest(result) -> "str | None":
    """A canonical fingerprint of one answer (value + member sets)."""
    if result is None:
        return None
    return _pairs_digest(result.values(), result.vertex_sets())


def _payload_digest(payload: dict) -> str:
    """:func:`_digest` of the answer a ``/v1/query`` payload carries."""
    return _pairs_digest(payload["values"], payload["communities"])


def _pairs_digest(values, vertex_sets) -> str:
    payload = [
        [round(float(value), 9), sorted(members)]
        for value, members in zip(values, vertex_sets)
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def run_grid(
    spec: GridSpec,
    db: "HistoryDB | str",
    commit: str,
    started_at: str,
    runner: "Callable[[GridCell], CellOutcome] | None" = None,
    clock: "Clock | None" = None,
    meta: "Mapping[str, object] | None" = None,
    log: "Callable[[str], None] | None" = None,
) -> int:
    """Execute every cell of ``spec`` and append one run to ``db``.

    ``runner(cell)`` is called once per runnable cell in each of
    ``spec.repeats`` passes, and a cell's timings from all passes make
    its best-of-N.  It is injectable (tests pin the timing bookkeeping
    with a fake); the default :class:`CellExecutor` measures real solves
    with ``clock`` threaded into every
    :func:`~repro.bench.runner.time_call`.  A cell whose answer digest
    differs between passes is recorded as an error.  Returns the
    recorded run id.
    """
    owns = not isinstance(db, HistoryDB)
    history = db if isinstance(db, HistoryDB) else HistoryDB(db)
    execute = runner if runner is not None else CellExecutor(spec, clock)
    runnable = [cell for cell in spec.cells() if cell.skip_reason() is None]
    seconds: dict[str, list[float]] = {cell.cell_id: [] for cell in runnable}
    digests: dict[str, set] = {cell.cell_id: set() for cell in runnable}
    errors: dict[str, str] = {}
    # Round robin: each pass times every cell once, so the repeats of a
    # cell — and of the cold cell its ratio divides by — spread over the
    # whole run instead of sharing one moment of a drifting machine.
    for pass_index in range(spec.repeats):
        for cell in runnable:
            if cell.cell_id in errors:
                continue
            if log is not None and pass_index == 0:
                log(f"grid[{spec.name}] {cell.cell_id} ...")
            try:
                outcome = execute(cell)
            except Exception as exc:  # recorded, never raised: see module doc
                errors[cell.cell_id] = f"{type(exc).__name__}: {exc}"
                continue
            seconds[cell.cell_id].extend(outcome.run_seconds)
            digests[cell.cell_id].add(outcome.result_digest)
            if len(digests[cell.cell_id]) > 1:
                errors[cell.cell_id] = "answer changed between repeats"
    records = []
    for cell in spec.cells():
        reason = cell.skip_reason() or errors.get(cell.cell_id)
        if reason is not None:
            records.append(
                CellRecord(
                    cell_id=cell.cell_id,
                    axes=cell.axes,
                    status="error" if cell.cell_id in errors else "skipped",
                    error=reason,
                )
            )
            continue
        (digest,) = digests[cell.cell_id]
        records.append(
            CellRecord(
                cell_id=cell.cell_id,
                axes=cell.axes,
                status="done",
                best_seconds=min(seconds[cell.cell_id]),
                run_seconds=tuple(seconds[cell.cell_id]),
                result_digest=digest,
            )
        )
    try:
        return history.record_run(
            grid_name=spec.name,
            config_hash=spec.config_hash(),
            commit_sha=commit,
            started_at=started_at,
            cells=records,
            meta=meta,
        )
    finally:
        if owns:
            history.close()
