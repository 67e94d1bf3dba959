"""A bench run fails when a fast path disagrees with its oracle.

Each ``benchmarks/bench_*.py`` emitter records correctness flags next to
its timings.  ``correctness_failures`` turns a false flag into a message
and ``main()`` exits 1 on any, whatever other options the run was given.
These tests replay the committed full-size reports through ``main()``
with the measurement stubbed out: as committed they pass, and flipping any
one flag must fail the run.
"""

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCHMARKS = REPO / "benchmarks"

#: (bench module, committed report, the measurement ``main()`` calls)
BENCHES = [
    ("bench_solvers", "BENCH_solver_expansion.json", "measure_solver_speedups"),
    ("bench_serving", "BENCH_serving.json", "measure_serving_throughput"),
    ("bench_http_serving", "BENCH_http_serving.json", "measure_http_serving"),
    ("bench_updates", "BENCH_updates.json", "measure_update_speedups"),
    ("bench_index", "BENCH_index.json", "measure_index"),
    ("bench_fleet", "BENCH_fleet.json", "measure_fleet"),
    ("bench_constrained", "BENCH_constrained.json", "measure_constrained"),
]

FLAGS = {
    "results_agree",
    "roundtrip_agree",
    "update_locality_holds",
    "update_results_agree",
    "pushdown_equals_materialized",
    "constrained_nonempty",
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_bench_under_test_{name}", BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flag_paths(report: dict, prefix: tuple = ()) -> list[tuple]:
    paths = []
    for key, value in report.items():
        if isinstance(value, dict) and key != "scaling":
            # bench_fleet's top-level results_agree copies scaling's.
            paths.extend(_flag_paths(value, prefix + (key,)))
        elif key in FLAGS and isinstance(value, bool):
            paths.append(prefix + (key,))
    return paths


def _flipped(report: dict, path: tuple) -> dict:
    doctored = copy.deepcopy(report)
    entry = doctored
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = not entry[path[-1]]
    return doctored


def _run_main(module, measure: str, report: dict, tmp_path, monkeypatch):
    monkeypatch.setattr(module, measure, lambda **kwargs: report)
    monkeypatch.setattr(
        sys, "argv", ["bench", "--ci", "--output", str(tmp_path / "out.json")]
    )
    module.main()


@pytest.mark.parametrize(
    "name, report_file, measure", BENCHES, ids=[b[0] for b in BENCHES]
)
def test_false_flag_fails_the_run(
    name, report_file, measure, tmp_path, monkeypatch
):
    module = _load(name)
    report = json.loads((REPO / report_file).read_text())
    paths = _flag_paths(report)
    assert paths, f"{report_file} carries no correctness flag"

    assert module.correctness_failures(report) == []
    _run_main(module, measure, report, tmp_path, monkeypatch)  # exits 0

    for path in paths:
        doctored = _flipped(report, path)
        assert module.correctness_failures(doctored), path
        with pytest.raises(SystemExit) as exit_info:
            _run_main(module, measure, doctored, tmp_path, monkeypatch)
        assert exit_info.value.code == 1, path
