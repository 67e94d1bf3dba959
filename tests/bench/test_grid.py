"""Unit tests for the declarative experiment grid and its runner."""

import pathlib
import shutil

import pytest

from repro.bench.clock import ManualClock
from repro.bench.grid import (
    GRIDS,
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
    import dataclasses

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


def test_timed_grids_exclude_avg():
    # avg's local-search solver runs minutes per cell; it must never be
    # on a gating grid (see the GRIDS comment).
    for spec in GRIDS.values():
        assert "avg" not in spec.aggregators


# ----------------------------------------------------------------------
# run_grid with an injected fake runner: pure bookkeeping
# ----------------------------------------------------------------------
def test_run_grid_records_best_of_n_and_skips(tmp_path):
    def fake_runner(cell):
        return CellOutcome((0.3, 0.1, 0.2), result_digest=f"d-{cell.k}")

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
    assert all(c.run_seconds == (0.3, 0.1, 0.2) for c in done)
    assert all(c.error for c in skipped)


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
    import dataclasses

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
    for cell in done:
        assert cell.run_seconds == (0.5, 0.25, 0.125)
        assert cell.best_seconds == 0.125
    # Engine parity: cold and served answers digest identically.
    digests = {c.result_digest for c in done}
    assert len(digests) == 1 and None not in digests
