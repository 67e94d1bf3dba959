"""Unit tests for the gating comparator.

The acceptance scenario for the regression harness lives here: against a
doctored history database, an injected synthetic slowdown must FAIL the
compare, while best-of-N scatter inside the noise band must stay green.
"""

import json

import pytest

from repro.bench.compare import (
    ComparisonReport,
    Waiver,
    apply_waivers,
    compare_grid_runs,
    compare_value,
    load_waivers,
)
from repro.bench.history import CellRecord, HistoryDB


# ----------------------------------------------------------------------
# compare_value: the single-metric rule
# ----------------------------------------------------------------------
def test_compare_value_passes_within_tolerance():
    assert compare_value("m", fresh=8.0, baseline=10.0).status == "ok"


def test_compare_value_flags_past_tolerance():
    verdict = compare_value("m", fresh=6.9, baseline=10.0)
    assert verdict.status == "regressed"
    assert verdict.threshold == pytest.approx(7.0)


def test_noise_band_widens_allowance():
    assert compare_value("m", 6.9, 10.0, band=0.0).status == "regressed"
    assert compare_value("m", 6.9, 10.0, band=0.1).status == "ok"


def test_noise_band_is_capped():
    # A 900% spread must not excuse an arbitrary slowdown: the band caps
    # at MAX_NOISE_BAND, so threshold never drops below tol/(1+cap).
    verdict = compare_value("m", 4.0, 10.0, band=9.0)
    assert verdict.status == "regressed"
    assert verdict.threshold == pytest.approx(10.0 * 0.7 / 1.5)


def test_lower_is_better_mirrors_the_rule():
    ok = compare_value("s", 1.3, 1.0, higher_is_better=False)
    bad = compare_value("s", 1.5, 1.0, higher_is_better=False)
    assert ok.status == "ok"
    assert bad.status == "regressed"
    assert bad.threshold == pytest.approx(1.0 / 0.7)


def test_compare_value_validates_inputs():
    with pytest.raises(ValueError, match="tolerance"):
        compare_value("m", 1.0, 1.0, tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        compare_value("m", 1.0, 1.0, tolerance=1.5)
    with pytest.raises(ValueError, match="band"):
        compare_value("m", 1.0, 1.0, band=-0.1)


# ----------------------------------------------------------------------
# Waivers
# ----------------------------------------------------------------------
def test_load_waivers_missing_and_none_paths(tmp_path):
    assert load_waivers(None) == ()
    assert load_waivers(tmp_path / "absent.json") == ()


def test_load_waivers_requires_reason(tmp_path):
    path = tmp_path / "waivers.json"
    path.write_text(
        json.dumps({"waivers": [{"bench": "x", "metric": "y", "reason": ""}]})
    )
    with pytest.raises(ValueError, match="no reason"):
        load_waivers(path)


def _one_metric_report(fresh, baseline):
    metric = "g100x400/k4/r5/f=sum/service speedup vs cold"
    return ComparisonReport(
        bench="grid:ci", metrics=[compare_value(metric, fresh, baseline)]
    )


def test_waiver_flips_regression_to_waived(tmp_path):
    path = tmp_path / "waivers.json"
    path.write_text(
        json.dumps(
            {
                "waivers": [
                    {
                        "bench": "grid:*",
                        "metric": "*service speedup*",
                        "reason": "known slow runner, remove after #42",
                    }
                ]
            }
        )
    )
    report = apply_waivers(_one_metric_report(1.0, 10.0), load_waivers(path))
    assert report.verdict == "PASS"
    assert report.exit_code == 0
    assert [m.status for m in report.metrics] == ["waived"]
    assert "known slow runner" in report.metrics[0].detail


def test_waiver_must_match_both_bench_and_metric():
    waivers = (
        Waiver(bench="grid:full", metric="*", reason="r"),
        Waiver(bench="grid:ci", metric="*index*", reason="r"),
    )
    report = apply_waivers(_one_metric_report(1.0, 10.0), waivers)
    assert report.verdict == "FAIL"


def test_apply_waivers_leaves_ok_metrics_alone():
    report = _one_metric_report(10.0, 10.0)
    apply_waivers(report, (Waiver(bench="*", metric="*", reason="r"),))
    assert [m.status for m in report.metrics] == ["ok"]


# ----------------------------------------------------------------------
# compare_grid_runs against doctored history databases
# ----------------------------------------------------------------------
GRAPH = "g100x400"


def _cell(tier, runs, digest="same-answer", status="done"):
    axes = {
        "graph": GRAPH, "k": 4, "r": 5, "f": "sum", "tier": tier, "eps": 0.1,
    }
    cell_id = f"{GRAPH}/k4/r5/f=sum/{tier}"
    done = status == "done"
    return CellRecord(
        cell_id=cell_id,
        axes=axes,
        status=status,
        best_seconds=min(runs) if done else None,
        run_seconds=tuple(runs) if done else (),
        result_digest=digest if done else None,
        error=None if done else "RuntimeError: boom",
    )


def _record(db_path, commit, cells, config_hash="cfg", started="t0"):
    with HistoryDB(db_path) as db:
        db.record_run(
            grid_name="ci", config_hash=config_hash, commit_sha=commit,
            started_at=started, cells=cells,
        )


@pytest.fixture
def baseline_db(tmp_path):
    """Doctored history: cold takes ~1s, the service tier is 5x faster."""
    path = tmp_path / "baseline.sqlite"
    _record(
        path, "baseline-commit",
        [_cell("cold", (1.0, 1.02, 1.05)), _cell("service", (0.2, 0.21, 0.2))],
    )
    return path


def test_steady_state_passes(tmp_path, baseline_db):
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [_cell("cold", (0.9, 0.92, 0.91)), _cell("service", (0.18, 0.19, 0.18))],
    )
    report = compare_grid_runs(fresh, baseline=baseline_db)
    assert report.verdict == "PASS"
    ratios = [m for m in report.metrics if "speedup vs cold" in m.metric]
    assert len(ratios) == 1
    assert ratios[0].fresh == pytest.approx(5.0)


def test_injected_synthetic_regression_fails(tmp_path, baseline_db):
    # The serving tier suddenly only 1.5x faster than cold: CI must fail.
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [_cell("cold", (0.9, 0.92, 0.91)), _cell("service", (0.6, 0.61, 0.6))],
    )
    report = compare_grid_runs(fresh, baseline=baseline_db)
    assert report.verdict == "FAIL"
    assert report.exit_code == 1
    (metric,) = report.regressions
    assert metric.metric.endswith("speedup vs cold")
    # The median of the per-pass ratios 1.5, 1.508 and 1.517.
    assert metric.fresh == pytest.approx(0.92 / 0.61)


def test_best_of_n_scatter_inside_noise_band_stays_green(tmp_path, baseline_db):
    # Fresh ratio 3.33 (the median of the per-pass ratios) sits below the
    # band-free threshold (5.0*0.7 = 3.5), but the per-pass ratios
    # scatter: their lower quartile, 2.78, is 20% under the median, and
    # the band widens the allowance to 3.5/1.2 ~ 2.92: still green.
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [_cell("cold", (1.0, 1.0, 1.0)), _cell("service", (0.3, 0.3, 0.36))],
    )
    report = compare_grid_runs(fresh, baseline=baseline_db)
    assert report.verdict == "PASS", [
        (m.metric, m.status) for m in report.metrics
    ]
    (ratio,) = [m for m in report.metrics if "speedup" in m.metric]
    assert ratio.fresh < ratio.baseline * 0.7  # band did the saving
    assert ratio.status == "ok"


def test_grid_waiver_flips_fail_to_pass(tmp_path, baseline_db):
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [_cell("cold", (0.9,)), _cell("service", (0.6,))],
    )
    waiver = Waiver(
        bench="grid:ci", metric="*service speedup vs cold", reason="accepted"
    )
    report = compare_grid_runs(fresh, baseline=baseline_db, waivers=(waiver,))
    assert report.verdict == "PASS"
    assert [m.status for m in report.metrics] == ["waived"]


def test_errored_fresh_cell_fails(tmp_path, baseline_db):
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [_cell("cold", (0.9,)), _cell("service", (), status="error")],
    )
    report = compare_grid_runs(fresh, baseline=baseline_db)
    assert report.verdict == "FAIL"
    assert any("status" in m.metric for m in report.regressions)
    assert any("boom" in m.detail for m in report.regressions)


def test_cross_engine_digest_mismatch_fails(tmp_path, baseline_db):
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [
            _cell("cold", (0.9,), digest="answer-a"),
            _cell("service", (0.18,), digest="answer-b"),
        ],
    )
    report = compare_grid_runs(fresh, baseline=baseline_db)
    assert report.verdict == "FAIL"
    assert any("answers diverge" in m.metric for m in report.regressions)


def test_missing_baseline_is_bootstrap_pass(tmp_path):
    fresh = tmp_path / "fresh.sqlite"
    _record(fresh, "fresh-commit", [_cell("cold", (1.0,))])
    report = compare_grid_runs(fresh)
    assert report.verdict == "PASS"
    assert any("bootstrap" in note for note in report.notes)


def test_config_hash_mismatch_never_compares(tmp_path, baseline_db):
    # A reshaped grid must not be judged against old-shape history.
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [_cell("cold", (0.9,)), _cell("service", (0.6,))],
        config_hash="other-cfg",
    )
    report = compare_grid_runs(fresh, baseline=baseline_db)
    assert report.verdict == "PASS"
    assert any("bootstrap" in note for note in report.notes)


def test_absolute_mode_gates_on_raw_seconds(tmp_path, baseline_db):
    # Ratios identical to baseline, but everything is 2x slower in wall
    # time: only --absolute notices.
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [_cell("cold", (2.0, 2.0, 2.0)), _cell("service", (0.4, 0.4, 0.4))],
    )
    relative = compare_grid_runs(fresh, baseline=baseline_db)
    assert relative.verdict == "PASS"
    absolute = compare_grid_runs(fresh, baseline=baseline_db, absolute=True)
    assert absolute.verdict == "FAIL"
    assert any(m.metric.endswith("seconds") for m in absolute.regressions)


def test_newly_skipped_cell_is_a_note_not_a_failure(tmp_path, baseline_db):
    fresh = tmp_path / "fresh.sqlite"
    _record(
        fresh, "fresh-commit",
        [
            _cell("cold", (0.9,)),
            CellRecord(
                cell_id=f"{GRAPH}/k4/r5/f=sum/service",
                axes={}, status="skipped", error="inapplicable",
            ),
        ],
    )
    report = compare_grid_runs(fresh, baseline=baseline_db)
    assert report.verdict == "PASS"
    assert any("now skipped" in note for note in report.notes)


def test_self_baseline_from_same_db_excludes_fresh_commit(tmp_path):
    path = tmp_path / "history.sqlite"
    _record(path, "old-commit", [_cell("cold", (1.0,)), _cell("service", (0.2,))])
    _record(path, "new-commit", [_cell("cold", (1.0,)), _cell("service", (0.7,))])
    report = compare_grid_runs(path)
    assert report.context["baseline commit"] == "old-commit"
    assert report.verdict == "FAIL"
