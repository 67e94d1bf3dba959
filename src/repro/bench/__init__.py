"""Benchmark harness reproducing the paper's Section VI evaluation.

* :mod:`repro.bench.datasets` — cached construction of the Table III
  stand-in datasets;
* :mod:`repro.bench.runner` — timed parameter sweeps;
* :mod:`repro.bench.experiments` — one definition per paper table/figure
  (Exp-I .. Exp-VII), producing text/Markdown reports;
* :mod:`repro.bench.case_study` — the Fig 14 Aminer case study;
* :mod:`repro.bench.grid` / :mod:`repro.bench.history` /
  :mod:`repro.bench.compare` / :mod:`repro.bench.report` — the regression
  harness: a declarative experiment grid executed into sqlite history,
  judged by a gating noise-band comparator (``repro bench grid ...``).

The same experiment definitions back both the standalone harness
(``python -m repro bench``) and the Section VI claim checks in
``benchmarks/bench_section6.py``.
"""

from repro.bench.clock import ManualClock
from repro.bench.compare import (
    ComparisonReport,
    compare_grid_runs,
    compare_value,
    load_waivers,
)
from repro.bench.datasets import get_dataset, dataset_statistics_table
from repro.bench.experiments import EXPERIMENTS, run_experiments
from repro.bench.grid import GRIDS, GridSpec, grid_spec, run_grid
from repro.bench.history import CellRecord, HistoryDB
from repro.bench.runner import SweepResult, time_call

__all__ = [
    "EXPERIMENTS",
    "GRIDS",
    "CellRecord",
    "ComparisonReport",
    "GridSpec",
    "HistoryDB",
    "ManualClock",
    "SweepResult",
    "compare_grid_runs",
    "compare_value",
    "dataset_statistics_table",
    "get_dataset",
    "grid_spec",
    "load_waivers",
    "run_experiments",
    "run_grid",
    "time_call",
]
