"""The gating regression comparator.

Everything CI gates on funnels through this module:

* :func:`compare_value` — one metric against one baseline value, with a
  tolerance and a *noise band* derived from best-of-N spread.  Higher- and
  lower-is-better metrics share one rule; a fresh value at least as good
  as its baseline can never be flagged (improvement asymmetry).
* :func:`compare_ratio_metrics` — the per-bench ``--baseline`` diff the
  ``benchmarks/bench_*.py`` emitters run (ratios only, band zero), now
  returning a hard PASS/FAIL :class:`ComparisonReport` instead of the old
  warn-only exit 0.
* :func:`compare_grid_runs` — two experiment-grid history databases
  (:mod:`repro.bench.history`): cell statuses, cross-tier answer
  digests, and tier-speedup ratios under the noise band.

Intentional regressions are acknowledged in a *waiver file*
(``benchmarks/waivers.json``): a matching waiver flips a ``regressed``
metric to ``waived`` — still rendered, but not failing the build.  Every
waiver carries a human reason; there is no silent opt-out.
"""

from __future__ import annotations

import fnmatch
import json
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.bench.history import CellRecord, HistoryDB, RunRecord

__all__ = [
    "ComparisonReport",
    "MetricVerdict",
    "Waiver",
    "compare_grid_runs",
    "compare_ratio_metrics",
    "compare_value",
    "load_waivers",
]

#: Default regression tolerance: a ratio below 70% of baseline regresses.
DEFAULT_TOLERANCE = 0.7
#: Noise bands wider than this are capped — a benchmark so noisy that the
#: band would excuse any slowdown must be fixed, not auto-waived.
MAX_NOISE_BAND = 0.5

_OK = "ok"
_REGRESSED = "regressed"
_WAIVED = "waived"
_SKIPPED = "skipped"


@dataclass(frozen=True)
class Waiver:
    """One acknowledged regression: glob patterns plus a mandatory reason."""

    bench: str
    metric: str
    reason: str

    def matches(self, bench: str, metric: str) -> bool:
        return fnmatch.fnmatchcase(bench, self.bench) and fnmatch.fnmatchcase(
            metric, self.metric
        )


def load_waivers(path: "str | pathlib.Path | None") -> tuple[Waiver, ...]:
    """Parse a waiver file; a missing path is an empty waiver set.

    Format: ``{"waivers": [{"bench": ..., "metric": ..., "reason": ...}]}``
    with fnmatch globs in ``bench``/``metric``.  Entries without a
    non-empty reason are rejected — the file documents *why* a regression
    was accepted, not just that it was.
    """
    if path is None:
        return ()
    path = pathlib.Path(path)
    if not path.exists():
        return ()
    payload = json.loads(path.read_text())
    waivers = []
    for entry in payload.get("waivers", []):
        reason = str(entry.get("reason", "")).strip()
        if not reason:
            raise ValueError(f"waiver {entry!r} has no reason")
        waivers.append(
            Waiver(
                bench=str(entry["bench"]),
                metric=str(entry["metric"]),
                reason=reason,
            )
        )
    return tuple(waivers)


@dataclass(frozen=True)
class MetricVerdict:
    """One compared metric and its outcome."""

    metric: str
    status: str  # ok | regressed | waived | skipped
    fresh: "float | None" = None
    baseline: "float | None" = None
    threshold: "float | None" = None
    detail: str = ""


@dataclass
class ComparisonReport:
    """The comparator's full output for one bench (or grid) run."""

    bench: str
    metrics: list[MetricVerdict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    context: dict[str, str] = field(default_factory=dict)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def regressions(self) -> list[MetricVerdict]:
        return [m for m in self.metrics if m.status == _REGRESSED]

    @property
    def waived(self) -> list[MetricVerdict]:
        return [m for m in self.metrics if m.status == _WAIVED]

    @property
    def verdict(self) -> str:
        return "FAIL" if self.regressions else "PASS"

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0


def compare_value(
    metric: str,
    fresh: float,
    baseline: float,
    tolerance: float = DEFAULT_TOLERANCE,
    band: float = 0.0,
    higher_is_better: bool = True,
    detail: str = "",
) -> MetricVerdict:
    """Judge one metric against its baseline.

    ``tolerance`` is the accepted fraction of the baseline (0.7 = up to a
    30% drop passes); ``band`` is the relative best-of-N noise estimate,
    which *widens* the allowance — never narrows it.  The rule, for
    higher-is-better metrics::

        regressed  iff  fresh < baseline * tolerance / (1 + band)

    and mirrored (``fresh > baseline / tolerance * (1 + band)``) when
    lower is better.  Two properties hold by construction and are pinned
    by the Hypothesis suite: a fresh value at least as good as its
    baseline never regresses (``tolerance <= 1``, ``band >= 0``), and the
    verdict is monotone in the fresh value.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ValueError(f"tolerance must be in (0, 1], got {tolerance}")
    if band < 0.0:
        raise ValueError(f"noise band must be >= 0, got {band}")
    band = min(float(band), MAX_NOISE_BAND)
    fresh_value, base_value = float(fresh), float(baseline)
    if higher_is_better:
        threshold = base_value * tolerance / (1.0 + band)
        regressed = fresh_value < threshold
    else:
        threshold = base_value / tolerance * (1.0 + band)
        regressed = fresh_value > threshold
    return MetricVerdict(
        metric=metric,
        status=_REGRESSED if regressed else _OK,
        fresh=fresh_value,
        baseline=base_value,
        threshold=threshold,
        detail=detail,
    )


def apply_waivers(
    report: ComparisonReport, waivers: Sequence[Waiver]
) -> ComparisonReport:
    """Flip regressed metrics matching a waiver to ``waived`` (in place)."""
    for i, metric in enumerate(report.metrics):
        if metric.status != _REGRESSED:
            continue
        for waiver in waivers:
            if waiver.matches(report.bench, metric.metric):
                report.metrics[i] = MetricVerdict(
                    metric=metric.metric,
                    status=_WAIVED,
                    fresh=metric.fresh,
                    baseline=metric.baseline,
                    threshold=metric.threshold,
                    detail=f"waived: {waiver.reason}",
                )
                break
    return report


def compare_ratio_metrics(
    bench: str,
    metrics: Iterable[Sequence[object]],
    tolerance: float = DEFAULT_TOLERANCE,
    notes: Iterable[str] = (),
    failures: Iterable[str] = (),
    waivers: Sequence[Waiver] = (),
) -> ComparisonReport:
    """The per-bench speedup diff: ``(label, fresh, baseline)`` triples.

    Ratios carry no per-run spread information, so the band is zero and
    ``tolerance`` alone absorbs runner noise (the historical 0.7).
    ``failures`` are non-numeric hard failures — a fresh run whose fast
    path *disagrees* with its oracle, for example — reported as regressed
    metrics so they gate (and can be waived) exactly like a slowdown.
    """
    report = ComparisonReport(bench=bench, tolerance=tolerance)
    for label, fresh, baseline in metrics:
        report.metrics.append(
            compare_value(str(label), float(fresh), float(baseline), tolerance)
        )
    for failure in failures:
        report.metrics.append(
            MetricVerdict(metric=str(failure), status=_REGRESSED)
        )
    report.notes.extend(str(note) for note in notes)
    return apply_waivers(report, waivers)


# ----------------------------------------------------------------------
# Grid-history comparison
# ----------------------------------------------------------------------
def _pair_band(
    fresh_ref: CellRecord,
    fresh_cell: CellRecord,
    base_ref: CellRecord,
    base_cell: CellRecord,
) -> float:
    """Noise band for a speedup ratio: the worse run's summed spreads."""
    fresh_noise = fresh_ref.noise + fresh_cell.noise
    base_noise = base_ref.noise + base_cell.noise
    return min(MAX_NOISE_BAND, max(fresh_noise, base_noise))


def _cold_key(cell: CellRecord) -> "tuple | None":
    """The reference (tier="cold") coordinates for a cell."""
    axes = dict(cell.axes)
    if axes.get("tier") == "cold":
        return None
    axes["tier"] = "cold"
    return tuple(sorted((k, str(v)) for k, v in axes.items()))


def _axes_key(cell: CellRecord) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in dict(cell.axes).items()))


def _answer_group(cell: CellRecord) -> tuple:
    """Cells that must return identical answers: axes minus the tier."""
    axes = dict(cell.axes)
    axes.pop("tier", None)
    return tuple(sorted((k, str(v)) for k, v in axes.items()))


def _digest_mismatches(cells: Mapping[str, CellRecord]) -> list[str]:
    groups: dict[tuple, dict[str, str]] = {}
    for cell in cells.values():
        if cell.status != "done" or cell.result_digest is None:
            continue
        groups.setdefault(_answer_group(cell), {})[cell.cell_id] = (
            cell.result_digest
        )
    mismatches = []
    for members in groups.values():
        if len(set(members.values())) > 1:
            mismatches.append(
                "answers diverge across engines: "
                + ", ".join(
                    f"{cell_id}={digest[:10]}"
                    for cell_id, digest in sorted(members.items())
                )
            )
    return sorted(mismatches)


def compare_grid_runs(
    fresh: "HistoryDB | str | pathlib.Path",
    baseline: "HistoryDB | str | pathlib.Path | None" = None,
    grid_name: "str | None" = None,
    commit: "str | None" = None,
    tolerance: float = DEFAULT_TOLERANCE,
    absolute: bool = False,
    waivers: Sequence[Waiver] = (),
) -> ComparisonReport:
    """Judge the newest grid run in ``fresh`` against stored history.

    The baseline run is the newest run with the *same grid name and
    config hash* in ``baseline`` (a separate history DB — the committed
    CI baseline, typically), or, when ``baseline`` is None, the newest
    older-commit run in ``fresh`` itself.  No comparable baseline is a
    bootstrap PASS with an explanatory note, never a failure.

    Three checks gate:

    * every fresh cell that *errored* (and is not skipped by design);
    * answer digests diverging across tiers inside the fresh
      run (the grid's correctness parity);
    * each tier cell's speedup-over-cold falling below
      ``baseline * tolerance / (1 + band)``, where ``band`` is the
      best-of-N spread of the cells involved.  With ``absolute=True``
      (same-machine nightly history) raw per-cell seconds are compared
      under the mirrored lower-is-better rule as well.
    """
    fresh_db = fresh if isinstance(fresh, HistoryDB) else HistoryDB(fresh)
    fresh_run = fresh_db.latest_run(grid_name=grid_name)
    if fresh_run is None:
        raise ValueError(f"no runs recorded in {fresh_db.path}")
    report = ComparisonReport(
        bench=f"grid:{fresh_run.grid_name}", tolerance=tolerance
    )
    report.context["fresh commit"] = fresh_run.commit_sha
    report.context["config"] = fresh_run.config_hash[:12]
    fresh_cells = fresh_db.run_cells(fresh_run.run_id)

    # 1. The fresh run must execute clean: an errored cell gates whether
    #    or not history has an opinion about it.
    for cell in fresh_cells.values():
        if cell.status == "error":
            report.metrics.append(
                MetricVerdict(
                    metric=f"{cell.cell_id} status",
                    status=_REGRESSED,
                    detail=f"cell errored: {cell.error}",
                )
            )

    # 2. Cross-engine answer parity inside the fresh run.
    for mismatch in _digest_mismatches(fresh_cells):
        report.metrics.append(
            MetricVerdict(metric=mismatch, status=_REGRESSED)
        )

    # 3. Timing against the baseline run, if one is comparable.
    base_run, base_cells = _baseline_run(
        fresh_db, fresh_run, baseline, commit
    )
    if base_run is None:
        report.notes.append(
            "no comparable baseline run for this grid/config — recording "
            "bootstrap history, timing checks skipped"
        )
    else:
        report.context["baseline commit"] = base_run.commit_sha
        report.context["baseline recorded"] = base_run.started_at
        _timing_metrics(
            report, fresh_cells, base_cells, tolerance, absolute
        )
    if not isinstance(fresh, HistoryDB):
        fresh_db.close()
    return apply_waivers(report, waivers)


def _baseline_run(
    fresh_db: HistoryDB,
    fresh_run: RunRecord,
    baseline: "HistoryDB | str | pathlib.Path | None",
    commit: "str | None",
) -> tuple["RunRecord | None", dict[str, CellRecord]]:
    owns = False
    if baseline is None:
        base_db = fresh_db
        base_run = base_db.latest_run(
            grid_name=fresh_run.grid_name,
            config_hash=fresh_run.config_hash,
            exclude_commit=commit or fresh_run.commit_sha,
        )
    else:
        if isinstance(baseline, HistoryDB):
            base_db = baseline
        else:
            base_db = HistoryDB(baseline)
            owns = True
        base_run = base_db.latest_run(
            grid_name=fresh_run.grid_name, config_hash=fresh_run.config_hash
        )
    cells = {} if base_run is None else base_db.run_cells(base_run.run_id)
    if owns:
        base_db.close()
    return base_run, cells


def _timing_metrics(
    report: ComparisonReport,
    fresh_cells: Mapping[str, CellRecord],
    base_cells: Mapping[str, CellRecord],
    tolerance: float,
    absolute: bool,
) -> None:
    fresh_by_axes = {_axes_key(c): c for c in fresh_cells.values()}
    base_by_axes = {_axes_key(c): c for c in base_cells.values()}
    for cell_id in sorted(base_cells):
        base_cell = base_cells[cell_id]
        if base_cell.status != "done":
            continue
        fresh_cell = fresh_cells.get(cell_id)
        if fresh_cell is None:
            report.notes.append(
                f"{cell_id}: in baseline but absent from fresh run"
            )
            continue
        if fresh_cell.status != "done":
            # Errors were already reported; a newly *skipped* cell is a
            # grid-definition change worth a note, not a timing verdict.
            if fresh_cell.status == "skipped":
                report.notes.append(
                    f"{cell_id}: done in baseline, now skipped"
                )
            continue
        _ratio_metric(
            report, fresh_cell, base_cell, fresh_by_axes, base_by_axes,
            tolerance,
        )
        if absolute:
            band = min(
                MAX_NOISE_BAND, max(fresh_cell.noise, base_cell.noise)
            )
            report.metrics.append(
                compare_value(
                    f"{cell_id} seconds",
                    float(fresh_cell.best_seconds or 0.0),
                    float(base_cell.best_seconds or 0.0),
                    tolerance=tolerance,
                    band=band,
                    higher_is_better=False,
                )
            )
    for cell_id in sorted(set(fresh_cells) - set(base_cells)):
        if fresh_cells[cell_id].status == "done":
            report.notes.append(f"{cell_id}: new cell, no history yet")


def _ratio_metric(
    report: ComparisonReport,
    fresh_cell: CellRecord,
    base_cell: CellRecord,
    fresh_by_axes: Mapping[tuple, CellRecord],
    base_by_axes: Mapping[tuple, CellRecord],
    tolerance: float,
) -> None:
    cold_key = _cold_key(fresh_cell)
    if cold_key is None:
        return
    fresh_ref = fresh_by_axes.get(cold_key)
    base_ref = base_by_axes.get(cold_key)
    usable = (
        fresh_ref is not None
        and base_ref is not None
        and fresh_ref.status == "done"
        and base_ref.status == "done"
        and (fresh_ref.best_seconds or 0.0) > 0.0
        and (base_ref.best_seconds or 0.0) > 0.0
        and (fresh_cell.best_seconds or 0.0) > 0.0
        and (base_cell.best_seconds or 0.0) > 0.0
    )
    if not usable:
        return
    fresh_ratio = fresh_ref.best_seconds / fresh_cell.best_seconds
    base_ratio = base_ref.best_seconds / base_cell.best_seconds
    band = _pair_band(fresh_ref, fresh_cell, base_ref, base_cell)
    report.metrics.append(
        compare_value(
            f"{fresh_cell.cell_id} speedup vs cold",
            fresh_ratio,
            base_ratio,
            tolerance=tolerance,
            band=band,
        )
    )
