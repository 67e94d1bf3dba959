"""Unit tests for the sqlite grid-run history store."""

import pytest

from repro.bench.history import CellRecord, HistoryDB


def _cell(cell_id="g10x20/k2/r1/f=sum/cold", **overrides):
    base = dict(
        cell_id=cell_id,
        axes={"graph": "g10x20", "k": 2, "tier": "cold"},
        status="done",
        best_seconds=0.5,
        run_seconds=(0.6, 0.5, 0.7),
        result_digest="abc123",
    )
    base.update(overrides)
    return CellRecord(**base)


@pytest.fixture
def db(tmp_path):
    with HistoryDB(tmp_path / "history.sqlite") as history:
        yield history


def test_record_and_read_back_roundtrip(db):
    run_id = db.record_run(
        grid_name="ci",
        config_hash="deadbeef",
        commit_sha="c0ffee",
        started_at="2026-01-01T00:00:00+00:00",
        cells=[_cell()],
        meta={"host": "runner-1"},
    )
    runs = db.runs()
    assert [r.run_id for r in runs] == [run_id]
    assert runs[0].grid_name == "ci"
    assert runs[0].commit_sha == "c0ffee"
    assert runs[0].meta == {"host": "runner-1"}
    cells = db.run_cells(run_id)
    cell = cells["g10x20/k2/r1/f=sum/cold"]
    assert cell.status == "done"
    assert cell.best_seconds == 0.5
    assert cell.run_seconds == (0.6, 0.5, 0.7)
    assert cell.result_digest == "abc123"
    assert cell.axes == {"graph": "g10x20", "k": 2, "tier": "cold"}


def test_history_is_append_only_across_runs(db):
    first = db.record_run("ci", "h", "commit-a", "t0", [_cell()])
    second = db.record_run(
        "ci", "h", "commit-b", "t1", [_cell(best_seconds=0.9)]
    )
    assert second > first
    # The old run's numbers are untouched by the new recording.
    assert db.run_cells(first)[_cell().cell_id].best_seconds == 0.5
    assert db.run_cells(second)[_cell().cell_id].best_seconds == 0.9


def test_latest_run_filters(db):
    db.record_run("ci", "hash1", "commit-a", "t0", [])
    db.record_run("ci", "hash1", "commit-b", "t1", [])
    db.record_run("full", "hash2", "commit-b", "t2", [])
    assert db.latest_run().grid_name == "full"
    assert db.latest_run(grid_name="ci").commit_sha == "commit-b"
    assert db.latest_run(config_hash="hash1").commit_sha == "commit-b"
    baseline = db.latest_run(grid_name="ci", exclude_commit="commit-b")
    assert baseline.commit_sha == "commit-a"
    assert db.latest_run(grid_name="nope") is None


def test_run_cells_preserve_recording_order(db):
    cells = [_cell(cell_id=f"cell-{i}") for i in (3, 1, 2)]
    run_id = db.record_run("ci", "h", "c", "t", cells)
    assert list(db.run_cells(run_id)) == ["cell-3", "cell-1", "cell-2"]


def test_cell_history_walks_runs_oldest_first(db):
    db.record_run("ci", "h", "commit-a", "t0", [_cell(best_seconds=1.0)])
    db.record_run("ci", "h", "commit-b", "t1", [_cell(best_seconds=2.0)])
    db.record_run("other", "h2", "commit-c", "t2", [_cell(best_seconds=9.0)])
    trail = db.cell_history(_cell().cell_id, grid_name="ci")
    assert [(run.commit_sha, cell.best_seconds) for run, cell in trail] == [
        ("commit-a", 1.0),
        ("commit-b", 2.0),
    ]


def test_error_and_skipped_cells_roundtrip(db):
    run_id = db.record_run(
        "ci", "h", "c", "t",
        [
            _cell(
                cell_id="boom", status="error", best_seconds=None,
                run_seconds=(), result_digest=None,
                error="ValueError: nope",
            ),
            _cell(
                cell_id="nope", status="skipped", best_seconds=None,
                run_seconds=(), result_digest=None, error="inapplicable",
            ),
        ],
    )
    cells = db.run_cells(run_id)
    assert cells["boom"].status == "error"
    assert cells["boom"].error == "ValueError: nope"
    assert cells["boom"].best_seconds is None
    assert cells["nope"].status == "skipped"


def test_noise_is_relative_median_spread():
    assert _cell(run_seconds=(1.0, 1.2, 1.1)).noise == pytest.approx(0.1)
    assert _cell(run_seconds=(1.0,)).noise == 0.0
    assert _cell(run_seconds=()).noise == 0.0
    assert _cell(run_seconds=(0.0, 1.0)).noise == 0.0  # zero best: no band
