"""The declarative experiment grid: Section VI's evaluation as data.

The paper evaluates over a parameter grid (dataset × k × r × aggregator ×
ε); this repo's performance claims add a *serving tier* axis (cold solver
call, pooled :class:`~repro.serving.service.QueryService`, precomputed
index) and a label-constraint axis.  A
:class:`GridSpec` names one such grid declaratively; :func:`run_grid`
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
import itertools
import json
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


@dataclass(frozen=True)
class GridSpec:
    """One declarative grid.  Frozen: its JSON is the config hash."""

    name: str
    graphs: tuple[tuple[int, int], ...]  # (n, m) G(n, m) random graphs
    ks: tuple[int, ...]
    rs: tuple[int, ...]
    aggregators: tuple[str, ...]
    tiers: tuple[str, ...]  # "cold" | "service" | "index"
    #: Label-constraint axis: ``"none"`` or compact predicate specs like
    #: ``"eq:deg:high"`` / ``"any:deg:mid,deg:high"`` / ``"prefix:deg:"``
    #: evaluated against the executor's degree-tercile labels.
    constrained: tuple[str, ...] = ("none",)
    eps: float = 0.1
    seed: int = 7
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

        The precomputed index serves the sum aggregator, unconstrained —
        other combinations are recorded as ``skipped`` so the grid's shape
        stays visible in history.
        """
        if self.tier == "index" and self.aggregator != "sum":
            return "index tier serves the sum aggregator only"
        if self.tier == "index" and self.constrained != "none":
            return "the precomputed index serves unconstrained queries only"
        return None


# ----------------------------------------------------------------------
# Named grids
# ----------------------------------------------------------------------
#: ``smoke`` exercises the machinery in seconds (CLI tests, local sanity);
#: ``ci`` is the gating PR-sized grid (small graph; the cross-tier digest
#: check rides on it); ``full`` is the nightly sweep.
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
        tiers=("cold", "service", "index"),
        # The constrained leg gates the label-pushdown path per PR: same
        # digest across tiers, timed like everything else.
        constrained=("none", "eq:deg:high"),
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
    :class:`~repro.serving.service.QueryService` per graph,
    built outside any timed region, exactly like a warm deployment.
    """

    def __init__(self, spec: GridSpec, clock: "Clock | None" = None) -> None:
        self._spec = spec
        self._clock = clock
        self._graphs: dict[tuple[int, int], object] = {}
        self._services: dict[tuple[int, int], object] = {}
        self._indexed: dict[tuple[int, int], object] = {}

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

    def _service(self, n: int, m: int):
        key = (n, m)
        if key not in self._services:
            from repro.serving.service import QueryService

            self._services[key] = QueryService(self._graph(n, m))
        return self._services[key]

    def _indexed_service(self, n: int, m: int):
        key = (n, m)
        if key not in self._indexed:
            from repro.serving.service import QueryService

            service = QueryService(self._graph(n, m))
            service.enable_index(depth=self._spec.index_depth)
            self._indexed[key] = service
        return self._indexed[key]

    def __call__(self, cell: GridCell) -> CellOutcome:
        if cell.tier == "cold":
            return self._run_cold(cell)
        if cell.tier in ("service", "index"):
            return self._run_served(cell)
        raise ValueError(f"unknown serving tier {cell.tier!r}")

    def _run_cold(self, cell: GridCell) -> CellOutcome:
        from repro.influential.api import top_r_communities

        graph = self._graph(cell.n, cell.m)
        labels = _constraint_spec(cell.constrained)
        times, result = [], None
        for __ in range(self._spec.repeats):
            seconds, result = time_call(
                lambda: top_r_communities(
                    graph, cell.k, cell.r, f=cell.aggregator,
                    eps=cell.eps, labels=labels,
                ),
                clock=self._clock,
            )
            times.append(seconds)
        return CellOutcome(tuple(times), _digest(result))

    def _run_served(self, cell: GridCell) -> CellOutcome:
        from repro.serving.query import InfluentialQuery

        if cell.tier == "index":
            service = self._indexed_service(cell.n, cell.m)
        else:
            service = self._service(cell.n, cell.m)
        predicate = _constraint_spec(cell.constrained)
        constraints = None if predicate is None else {"labels": predicate}
        query = InfluentialQuery(
            k=cell.k, r=cell.r, f=cell.aggregator, eps=cell.eps,
            constraints=constraints,
        )

        def solve():
            return service.submit(query)

        solve()  # warm the engine pool / index outside every timed repeat
        times, result = [], None
        for __ in range(self._spec.repeats):
            # Invalidate the result cache each repeat so the measurement is
            # the pool-warm serving path, not a dict hit.
            service.invalidate()
            seconds, result = time_call(solve, clock=self._clock)
            times.append(seconds)
        return CellOutcome(tuple(times), _digest(result))


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
    payload = [
        [round(float(value), 9), sorted(members)]
        for value, members in zip(result.values(), result.vertex_sets())
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

    ``runner`` is injectable (tests pin the timing bookkeeping with a
    fake); the default :class:`CellExecutor` measures real solves with
    ``clock`` threaded into every :func:`~repro.bench.runner.time_call`.
    Returns the recorded run id.
    """
    owns = not isinstance(db, HistoryDB)
    history = db if isinstance(db, HistoryDB) else HistoryDB(db)
    execute = runner if runner is not None else CellExecutor(spec, clock)
    records = []
    for cell in spec.cells():
        reason = cell.skip_reason()
        if reason is not None:
            records.append(
                CellRecord(
                    cell_id=cell.cell_id, axes=cell.axes, status="skipped",
                    error=reason,
                )
            )
            continue
        if log is not None:
            log(f"grid[{spec.name}] {cell.cell_id} ...")
        try:
            outcome = execute(cell)
        except Exception as exc:  # recorded, never raised: see module doc
            records.append(
                CellRecord(
                    cell_id=cell.cell_id, axes=cell.axes, status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        records.append(
            CellRecord(
                cell_id=cell.cell_id,
                axes=cell.axes,
                status="done",
                best_seconds=min(outcome.run_seconds),
                run_seconds=outcome.run_seconds,
                result_digest=outcome.result_digest,
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
