"""Regenerate the committed renderer fixtures.

From the repo root::

    PYTHONPATH=src python tests/bench/fixtures/make_fixture_db.py

writes ``grid_history.sqlite`` (a doctored two-run history exercising
every cell status) plus the two golden Markdown files the byte-stability
tests in ``test_report_golden.py`` pin.  Everything here is fixed data —
no clocks, no randomness — so regeneration is idempotent.
"""

from __future__ import annotations

import pathlib

from repro.bench.compare import Waiver, compare_grid_runs
from repro.bench.history import CellRecord, HistoryDB
from repro.bench.report import render_comparison, render_history

FIXTURES = pathlib.Path(__file__).resolve().parent
DB_PATH = FIXTURES / "grid_history.sqlite"
REPORT_GOLDEN = FIXTURES / "grid_report.golden.md"
COMPARE_GOLDEN = FIXTURES / "grid_compare.golden.md"

GRID_NAME = "golden"
CONFIG_HASH = "goldencfg000000000000000000000000"
BASELINE_COMMIT = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
FRESH_COMMIT = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"

#: The golden compare waives the sum-family service slowdown (so the
#: rendered table shows all of ok / regressed / waived) but leaves the
#: min-family one gating.
WAIVERS = (
    Waiver(
        bench=f"grid:{GRID_NAME}",
        metric="*f=sum*service speedup vs cold",
        reason="fixture: acknowledged slowdown",
    ),
)

SUM_DIGEST = "1111111111111111111111111111111111111111111111111111111111111111"
MIN_DIGEST = "2222222222222222222222222222222222222222222222222222222222222222"


def _cell(f, tier, runs=None, digest=None, status="done", error=None, k=3):
    axes = {
        "graph": "g500x2000", "k": k, "r": 3, "f": f,
        "tier": tier, "eps": 0.1,
    }
    cell_id = f"g500x2000/k{k}/r3/f={f}/{tier}"
    done = status == "done"
    return CellRecord(
        cell_id=cell_id,
        axes=axes,
        status=status,
        best_seconds=min(runs) if done else None,
        run_seconds=tuple(runs) if done else (),
        result_digest=digest if done else None,
        error=error,
    )


BASELINE_CELLS = [
    _cell("sum", "cold", (1.0, 1.05, 1.1), SUM_DIGEST),
    _cell("sum", "service", (0.2, 0.21, 0.22), SUM_DIGEST),
    _cell("sum", "index", (0.1, 0.1, 0.1), SUM_DIGEST),
    _cell("min", "cold", (2.0, 2.1, 2.0), MIN_DIGEST),
    _cell("min", "service", (0.5, 0.5, 0.55), MIN_DIGEST),
    _cell(
        "min", "index", status="skipped",
        error="index tier serves the sum aggregator only",
    ),
]

FRESH_CELLS = [
    _cell("sum", "cold", (1.0, 1.02, 1.04), SUM_DIGEST),
    _cell("sum", "service", (0.5, 0.5, 0.5), SUM_DIGEST),  # waived slowdown
    _cell("sum", "index", (0.12, 0.12, 0.13), SUM_DIGEST),
    _cell("min", "cold", (2.0, 2.05, 2.1), MIN_DIGEST),
    _cell("min", "service", (2.0, 2.0, 2.1), MIN_DIGEST),  # gating slowdown
    _cell(
        "min", "index", status="skipped",
        error="index tier serves the sum aggregator only",
    ),
    _cell(
        "min", "cold", status="error",
        error="RuntimeError: fixture blow-up", k=9,
    ),
]


def build_db(path: pathlib.Path) -> None:
    path.unlink(missing_ok=True)
    with HistoryDB(path) as db:
        db.record_run(
            GRID_NAME, CONFIG_HASH, BASELINE_COMMIT,
            "2026-08-01T00:00:00+00:00", BASELINE_CELLS,
        )
        db.record_run(
            GRID_NAME, CONFIG_HASH, FRESH_COMMIT,
            "2026-08-08T00:00:00+00:00", FRESH_CELLS,
        )


def render_report(db: HistoryDB) -> str:
    return render_history(db, grid_name=GRID_NAME)


def render_compare(db: HistoryDB) -> str:
    return render_comparison(
        compare_grid_runs(db, grid_name=GRID_NAME, waivers=WAIVERS)
    )


def main() -> None:
    build_db(DB_PATH)
    with HistoryDB(DB_PATH) as db:
        REPORT_GOLDEN.write_text(render_report(db))
        COMPARE_GOLDEN.write_text(render_compare(db))
    print(f"wrote {DB_PATH}, {REPORT_GOLDEN}, {COMPARE_GOLDEN}")


if __name__ == "__main__":
    main()
