"""Unit tests for the declarative experiment grid and its runner."""

import collections
import dataclasses
import pathlib
import shutil

import pytest

from repro.bench.clock import ManualClock
from repro.bench.compare import compare_grid_runs
from repro.bench.grid import (
    GRIDS,
    TIERS,
    CellOutcome,
    GridSpec,
    grid_spec,
    run_grid,
)
from repro.bench.history import HistoryDB

TINY = GridSpec(
    name="tiny",
    graphs=((60, 180),),
    ks=(2,),
    rs=(2,),
    aggregators=("sum", "min"),
    tiers=("cold", "service", "index"),
    repeats=2,
)


# ----------------------------------------------------------------------
# Spec: hashing, enumeration, skip rules
# ----------------------------------------------------------------------
def test_config_hash_is_deterministic_and_shape_sensitive():
    assert TINY.config_hash() == TINY.config_hash()
    widened = dataclasses.replace(TINY, ks=(2, 3))
    renamed = dataclasses.replace(TINY, name="tiny2")
    assert widened.config_hash() != TINY.config_hash()
    assert renamed.config_hash() != TINY.config_hash()


def test_cells_enumerate_deterministically():
    ids = [cell.cell_id for cell in TINY.cells()]
    assert ids == [cell.cell_id for cell in TINY.cells()]
    assert len(ids) == len(set(ids)) == 2 * 3
    assert "g60x180/k2/r2/f=sum/cold" in ids


def test_skip_reasons():
    by_id = {cell.cell_id: cell for cell in TINY.cells()}
    assert by_id["g60x180/k2/r2/f=sum/cold"].skip_reason() is None
    assert by_id["g60x180/k2/r2/f=sum/index"].skip_reason() is None
    # The precomputed index serves sum only.
    assert by_id["g60x180/k2/r2/f=min/index"].skip_reason()
    reference = dataclasses.replace(
        by_id["g60x180/k2/r2/f=sum/cold"], tier="reference"
    )
    assert reference.skip_reason() is None
    # set_engine() runs the same min/max forest as production.
    assert dataclasses.replace(reference, aggregator="min").skip_reason()
    materialize = dataclasses.replace(reference, tier="materialize")
    # Filter-then-query has nothing to filter without a predicate.
    assert materialize.skip_reason()
    assert dataclasses.replace(
        materialize, constrained="eq:deg:high"
    ).skip_reason() is None


def test_named_grids_resolve():
    assert grid_spec("smoke").name == "smoke"
    assert grid_spec("ci", repeats=1).repeats == 1
    assert grid_spec("ci").repeats == GRIDS["ci"].repeats  # original intact
    with pytest.raises(ValueError, match="unknown grid"):
        grid_spec("nope")


def test_committed_ci_baseline_matches_the_ci_grid(tmp_path):
    # CI compares each PR's ci run against this file by config hash; a
    # grid edit without a baseline migration would turn the timing gate
    # into a silent "no comparable baseline" pass.
    committed = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "grid_ci_baseline.sqlite"
    )
    copy = tmp_path / "baseline.sqlite"
    shutil.copy(committed, copy)
    spec = GRIDS["ci"]
    with HistoryDB(copy) as db:
        run = db.latest_run(grid_name="ci", config_hash=spec.config_hash())
        assert run is not None, "no ci run with the current ci config hash"
        cells = db.run_cells(run.run_id)
    assert list(cells) == [cell.cell_id for cell in spec.cells()]
    assert [c.axes for c in cells.values()] == [c.axes for c in spec.cells()]


def test_nightly_grids_keep_their_config_hashes():
    # The nightly full-grid history compares by config hash, and only the
    # ci grid runs every tier: editing smoke or full restarts history.
    assert GRIDS["smoke"].config_hash() == (
        "8b70e4224c9f91432978c48eda1f99324820df478978a4800423e8c4d9e4a487"
    )
    assert GRIDS["full"].config_hash() == (
        "0da06b85e0b81c8bfbb640b02cbbd8ae2df08ab44f48e62a6c73981d2f181f89"
    )
    assert GRIDS["ci"].tiers == TIERS


def test_timed_grids_exclude_avg():
    # avg's local-search solver runs minutes per cell; it must never be
    # on a gating grid (see the GRIDS comment).
    for spec in GRIDS.values():
        assert "avg" not in spec.aggregators


# ----------------------------------------------------------------------
# run_grid with an injected fake runner: pure bookkeeping
# ----------------------------------------------------------------------
def test_run_grid_records_best_of_n_and_skips(tmp_path):
    calls = {}

    def fake_runner(cell):
        calls[cell.cell_id] = calls.get(cell.cell_id, 0) + 1
        seconds = (0.3, 0.1)[calls[cell.cell_id] - 1]
        return CellOutcome((seconds,), result_digest=f"d-{cell.k}")

    with HistoryDB(tmp_path / "h.sqlite") as db:
        run_id = run_grid(
            TINY, db, commit="abc", started_at="t0", runner=fake_runner
        )
        cells = db.run_cells(run_id)
    assert set(cells) == {c.cell_id for c in TINY.cells()}
    done = [c for c in cells.values() if c.status == "done"]
    skipped = [c for c in cells.values() if c.status == "skipped"]
    assert {c.skip_reason() is None for c in TINY.cells()} == {True, False}
    assert len(done) == sum(
        1 for c in TINY.cells() if c.skip_reason() is None
    )
    assert all(c.best_seconds == 0.1 for c in done)
    assert all(c.run_seconds == (0.3, 0.1) for c in done)
    assert all(c.error for c in skipped)


def test_run_grid_times_cells_round_robin(tmp_path):
    # Each pass visits every cell once, so a cell's repeats (and its cold
    # twin's) spread over the whole run rather than one moment of it.
    order = []

    def fake_runner(cell):
        order.append(cell.cell_id)
        return CellOutcome((0.1,), result_digest="d")

    run_grid(
        TINY, str(tmp_path / "h.sqlite"), commit="abc", started_at="t0",
        runner=fake_runner,
    )
    runnable = [c.cell_id for c in TINY.cells() if c.skip_reason() is None]
    assert order == runnable * TINY.repeats


def test_an_answer_that_changes_between_passes_is_an_error(tmp_path):
    calls = []

    def flaky_runner(cell):
        calls.append(cell.cell_id)
        return CellOutcome((0.1,), result_digest=f"d-{len(calls)}")

    with HistoryDB(tmp_path / "h.sqlite") as db:
        run_id = run_grid(
            TINY, db, commit="abc", started_at="t0", runner=flaky_runner
        )
        cells = db.run_cells(run_id)
    runnable = [c for c in TINY.cells() if c.skip_reason() is None]
    for cell in runnable:
        assert cells[cell.cell_id].status == "error"
        assert "changed between repeats" in cells[cell.cell_id].error


def test_run_grid_records_errors_without_raising(tmp_path):
    def exploding_runner(cell):
        if cell.aggregator == "min":
            raise RuntimeError("solver fell over")
        return CellOutcome((0.1,), result_digest="ok")

    with HistoryDB(tmp_path / "h.sqlite") as db:
        run_id = run_grid(
            TINY, db, commit="abc", started_at="t0", runner=exploding_runner
        )
        cells = db.run_cells(run_id)
    errored = [c for c in cells.values() if c.status == "error"]
    assert errored
    assert all("RuntimeError: solver fell over" in c.error for c in errored)
    assert any(c.status == "done" for c in cells.values())


def test_run_grid_logs_runnable_cells_only(tmp_path):
    lines = []
    run_grid(
        TINY,
        str(tmp_path / "h.sqlite"),
        commit="abc",
        started_at="t0",
        runner=lambda cell: CellOutcome((0.1,)),
        log=lines.append,
    )
    runnable = sum(1 for c in TINY.cells() if c.skip_reason() is None)
    assert len(lines) == runnable
    assert all(line.startswith("grid[tiny]") for line in lines)


# ----------------------------------------------------------------------
# The real executor, under a manual clock: no wall-time dependence
# ----------------------------------------------------------------------
def test_executor_smoke_with_manual_clock(tmp_path):
    spec = dataclasses.replace(
        TINY,
        graphs=((40, 80),),
        aggregators=("sum",),
        tiers=("cold", "service"),
        repeats=3,
    )
    clock = ManualClock([0.5, 0.25, 0.125])
    with HistoryDB(tmp_path / "h.sqlite") as db:
        run_id = run_grid(
            spec, db, commit="abc", started_at="t0", clock=clock
        )
        cells = db.run_cells(run_id)
    done = [c for c in cells.values() if c.status == "done"]
    assert len(done) == 2
    # Round robin: the two cells take the scripted durations in turn.
    assert [c.run_seconds for c in done] == [
        (0.5, 0.125, 0.25),
        (0.25, 0.5, 0.125),
    ]
    assert all(cell.best_seconds == 0.125 for cell in done)
    # Engine parity: cold and served answers digest identically.
    digests = {c.result_digest for c in done}
    assert len(digests) == 1 and None not in digests


def test_every_tier_runs_and_agrees_with_cold(tmp_path):
    spec = GridSpec(
        name="tiers",
        graphs=((200, 800),),
        ks=(3,),
        rs=(3,),
        aggregators=("sum",),
        tiers=TIERS,
        constrained=("none", "eq:deg:high"),
        repeats=2,
    )
    path = tmp_path / "h.sqlite"
    with HistoryDB(path) as db:
        run_id = run_grid(spec, db, commit="abc", started_at="t0")
        cells = db.run_cells(run_id)
    runnable = [c for c in spec.cells() if c.skip_reason() is None]
    assert {c.tier for c in runnable} == set(TIERS)
    for cell in runnable:
        record = cells[cell.cell_id]
        assert record.status == "done", (cell.cell_id, record.error)
        assert record.result_digest is not None
    report = compare_grid_runs(path)
    assert not [m for m in report.metrics if "diverge" in m.metric]
    assert report.verdict == "PASS"


def _doctored_history(path, tiers, cold_factor, base_load=(1.0, 1.0)):
    """Two fake runs of one grid; the second slows only the cold cells.

    ``base_load[i]`` scales every cell of the baseline's i-th pass, like
    a machine that is busier in some passes than in others.
    """
    spec = dataclasses.replace(
        TINY, aggregators=("sum",), tiers=tiers, repeats=len(base_load)
    )
    seconds = {"cold": 1.0, "service": 0.2, "reference": 3.0}

    def runner(factor, load):
        passes = collections.Counter()

        def run(cell):
            scale = load[passes[cell.cell_id]]
            passes[cell.cell_id] += 1
            if cell.tier == "cold":
                scale *= factor
            return CellOutcome((seconds[cell.tier] * scale,), "same-answer")

        return run

    quiet = (1.0,) * len(base_load)
    with HistoryDB(path) as db:
        run_grid(
            spec, db, commit="base", started_at="t0",
            runner=runner(1.0, base_load),
        )
        run_grid(
            spec, db, commit="slow-cold", started_at="t1",
            runner=runner(cold_factor, quiet),
        )
    return compare_grid_runs(path)


def test_reference_tier_sees_a_cold_path_slowdown(tmp_path):
    gated = _doctored_history(
        tmp_path / "with.sqlite", ("cold", "service", "reference"), 2.0
    )
    assert gated.verdict == "FAIL"
    (regression,) = gated.regressions
    assert regression.metric == (
        "g60x180/k2/r2/f=sum/reference: cold speedup vs reference"
    )
    assert regression.fresh == pytest.approx(1.5)
    assert regression.baseline == pytest.approx(3.0)

    # The same slowdown reads as a faster service tier without it.
    blind = _doctored_history(
        tmp_path / "without.sqlite", ("cold", "service"), 2.0
    )
    assert blind.verdict == "PASS"


def test_a_noisy_baseline_does_not_hide_a_cold_path_slowdown(tmp_path):
    # Each baseline cell's best-of-N spread is 0.3, so two cells' spreads
    # sum past the 0.5 band cap.  Banding on that put every threshold at
    # 0.7/1.5 of baseline, where a 2x cold slowdown (0.5) passed.  The
    # load is shared by each pass, so the per-pass ratios do not move:
    # a yardstick has no band, and the service tier's band stays 0.
    report = _doctored_history(
        tmp_path / "noisy.sqlite",
        ("cold", "service", "reference"),
        2.0,
        base_load=(1.0, 1.6, 1.3),
    )
    assert report.verdict == "FAIL"
    verdicts = {m.metric.split("/")[-1]: m for m in report.metrics}
    reference = verdicts["reference: cold speedup vs reference"]
    assert reference.status == "regressed"
    assert reference.fresh == pytest.approx(0.5 * reference.baseline)
    assert reference.threshold == pytest.approx(0.7 * reference.baseline)
    service = verdicts["service speedup vs cold"]
    assert service.threshold == pytest.approx(0.7 * service.baseline)


def _constrained_history(path, fresh_scale):
    """Two fake runs of a constrained grid with cold, service and
    materialize tiers; the second scales the seconds of the
    ``(tier, constrained)`` cells named in ``fresh_scale``.  Returns the
    report and the constrained row's verdicts by tier."""
    spec = dataclasses.replace(
        TINY,
        aggregators=("sum",),
        tiers=("cold", "service", "materialize"),
        constrained=("none", "eq:deg:high"),
        repeats=3,
    )
    seconds = {
        ("cold", "none"): 4.0,
        ("service", "none"): 2.0,
        ("cold", "eq:deg:high"): 1.0,
        ("service", "eq:deg:high"): 0.5,
        ("materialize", "eq:deg:high"): 3.0,
    }

    def runner(scale):
        def run(cell):
            key = (cell.tier, cell.constrained)
            return CellOutcome(
                (seconds[key] * scale.get(key, 1.0),), "same-answer"
            )

        return run

    with HistoryDB(path) as db:
        run_grid(spec, db, commit="base", started_at="t0", runner=runner({}))
        run_grid(
            spec, db, commit="fresh", started_at="t1",
            runner=runner(fresh_scale),
        )
    report = compare_grid_runs(path)
    row = {
        m.metric.split("/")[-1].split(" ")[0].rstrip(":"): m
        for m in report.metrics
        if "c=eq:deg:high" in m.metric
    }
    return report, row


def test_a_faster_yardstick_is_not_a_cold_path_regression(tmp_path):
    # Filter-then-query got 2.5x faster; neither cold cell moved.
    report, row = _constrained_history(
        tmp_path / "yardstick.sqlite", {("materialize", "eq:deg:high"): 0.4}
    )
    verdict = row["materialize"]
    assert verdict.fresh == pytest.approx(0.4 * verdict.baseline)
    assert verdict.fresh < verdict.threshold
    assert verdict.status == "ok"
    assert verdict.detail.startswith("the other cell moved")
    assert report.verdict == "PASS"


def test_a_faster_constrained_cold_path_is_not_a_tier_regression(tmp_path):
    # Constrained cold got 3x faster, so the service tier's speedup over
    # it fell to a third; the service cell itself did not move.
    report, row = _constrained_history(
        tmp_path / "cold.sqlite", {("cold", "eq:deg:high"): 1 / 3}
    )
    verdict = row["service"]
    assert verdict.fresh < verdict.threshold
    assert verdict.status == "ok"
    assert "the service tier took 0.125x the unconstrained cold cell" in (
        verdict.detail
    )
    assert report.verdict == "PASS"


def test_a_pushdown_slowdown_fails_through_the_yardstick(tmp_path):
    # Constrained cold slowed 2x against the unconstrained cold cell.
    report, row = _constrained_history(
        tmp_path / "pushdown.sqlite", {("cold", "eq:deg:high"): 2.0}
    )
    verdict = row["materialize"]
    assert verdict.status == "regressed"
    assert "0.5x the unconstrained cold cell (baseline 0.25x" in verdict.detail
    assert report.verdict == "FAIL"
    # With the yardstick sped up as well, the cold cell still fails;
    # so does a constrained service tier that slowed on its own.
    __, row = _constrained_history(
        tmp_path / "both.sqlite",
        {
            ("cold", "eq:deg:high"): 2.0,
            ("materialize", "eq:deg:high"): 0.5,
            ("service", "eq:deg:high"): 6.0,
        },
    )
    assert row["materialize"].status == "regressed"
    assert row["service"].status == "regressed"
