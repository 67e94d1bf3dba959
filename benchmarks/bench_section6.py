"""The paper's Section VI, one claim per experiment, judged on work counts.

:data:`repro.bench.experiments.EXPERIMENTS` is the one definition of each
table and figure (datasets, swept parameter, algorithms); this module
runs each one — in quick mode, except the figures listed in
:data:`FULL_MODE` — and checks the figure's claim in :data:`CLAIMS`.
Quick mode keeps the first and the last point of every swept axis, so a
claim still spans the paper's whole range of k, r, s and eps.

Each figure's shape (Naive >> Improve >= Approx, cost grows with r and s
and falls with k, eps barely matters) is asserted on the work counts the
solvers record themselves (:mod:`repro.utils.counters`): ``candidates``
for the lattice search of Figures 2-5, ``prefixes_tested`` for the local
search of Figures 6-13.  The counts are deterministic, so no assertion
here reads a clock; seconds appear only in the rendered report
(``repro bench --exp``).  Where a claim is a ratio bound (cost falls with
k, is flat in r or in eps), the bound is the noise margin the old
wall-clock check allowed.  Greedy beating random (Figures 12-13) is
read from the r-th values those reports plot, and the case study from
the run its report renders.  While a report is built, every answer its
sweep gets is checked against the call's r and s.  The remaining claims
about answers (exact algorithms agree, eps quality, the avg certificate)
call the solvers at points no sweep visits.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_section6.py -q``.
"""

from __future__ import annotations

import inspect
import os
import pathlib
from functools import lru_cache, wraps

import pytest

from repro.bench import case_study, experiments
from repro.bench import datasets as ds
from repro.bench.case_study import run_case_study
from repro.bench.experiments import EXPERIMENTS, ExperimentReport
from repro.bench.runner import SweepResult
from repro.core.decomposition import kmax
from repro.graphs.generators.snap_like import SNAP_LIKE_SPECS, snap_like_topology
from repro.graphs.io import ingest_edge_list
from repro.hardness.certificates import certify_result_set
from repro.influential.improved import tic_improved
from repro.influential.local_search import local_search
from repro.influential.naive_sum import sum_naive

#: Figures run in full mode: their claims were checked on the large
#: stand-ins (orkut for Figures 6-7, youtube for Figures 10-11), which
#: quick mode leaves out, and Figures 12-13 count greedy's wins over
#: every k of the sweep.  Together they take about 20 s.
FULL_MODE = frozenset({"fig6", "fig7", "fig10", "fig11", "fig12", "fig13"})

#: ``case`` is an alias of ``fig14``.
KEYS = [key for key in EXPERIMENTS if key != "case"]

R, S = 5, 20

#: A small scrambled-id SNAP-style collaboration network with the format
#: warts real downloads carry (comments, duplicate/mirrored edges, a
#: self-loop); regenerate with tools/make_snap_fixture.py.
SNAP_FIXTURE = pathlib.Path(__file__).parent / "data" / "snap_collab_fixture.txt"


@lru_cache(maxsize=None)
def report(key: str) -> ExperimentReport:
    return EXPERIMENTS[key](key not in FULL_MODE)


@lru_cache(maxsize=None)
def case_panels():
    """The Figure 14 run, made once: its report renders it, its claim reads it."""
    return run_case_study()


def checked(solve):
    """``solve``, checking each answer against the call's r and s."""
    signature = inspect.signature(solve)

    @wraps(solve)
    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        return bounded(solve(*args, **kwargs), bound["r"], bound.get("s"))

    return call


@pytest.fixture(autouse=True)
def checked_solvers(monkeypatch):
    """Reports built in a test check their sweeps' answers, and the
    Figure 14 report renders :func:`case_panels`."""
    for name in ("sum_naive", "tic_improved", "local_search"):
        monkeypatch.setattr(experiments, name, checked(getattr(experiments, name)))
    monkeypatch.setattr(case_study, "run_case_study", case_panels)


def counted(panel: SweepResult, counter: str) -> dict[str, list[int | None]]:
    """``counter`` at each axis point of each series, ``None`` where skipped."""
    series = {
        name: [None if c is None else c.get(counter, 0) for c in counts]
        for name, counts in panel.counts.items()
    }
    assert any(any(values) for values in series.values()), (
        f"{panel.title}: no {counter!r} recorded"
    )
    return series


def ran(values: list[int | None]) -> list[int]:
    return [v for v in values if v is not None]


# ----------------------------------------------------------------------
# Shapes on counts
# ----------------------------------------------------------------------
def rises(rep: ExperimentReport, counter: str) -> None:
    """Every series costs no less at each next axis point."""
    for panel in rep.panels:
        for name, values in counted(panel, counter).items():
            values = ran(values)
            assert values == sorted(values), (panel.title, name, values)


def last_within(rep: ExperimentReport, counter: str, margin: float) -> None:
    """Each series' last point costs at most ``margin`` times its first."""
    for panel in rep.panels:
        for name, values in counted(panel, counter).items():
            values = ran(values)
            assert values[-1] <= margin * values[0], (panel.title, name, values)


def series_within(rep: ExperimentReport, counter: str, margin: float) -> None:
    """At each axis point, no series costs more than ``margin`` times another."""
    for panel in rep.panels:
        for point in zip(*counted(panel, counter).values()):
            point = ran(point)
            assert max(point) <= margin * min(point), (panel.title, point)


def bounded(result, r: int, s: int | None = None):
    """``result``, after checking it holds at most r communities of size <= s."""
    assert len(result) <= r
    assert s is None or all(c.size <= s for c in result)
    return result


def greedy_wins_majority(rep: ExperimentReport) -> None:
    """On every panel, greedy's r-th value is at least random's at a
    majority of the k points that ran, as in the paper's bars."""
    for panel in rep.panels:
        values = zip(panel.series["greedy"], panel.series["random"])
        points = [(g, r) for g, r in values if g is not None]  # k + 1 <= s
        wins = sum(g >= r for g, r in points)
        assert wins * 2 >= len(points), (panel.title, points)


# ----------------------------------------------------------------------
# The claims table
# ----------------------------------------------------------------------
def claim_table3(rep: ExperimentReport) -> None:
    assert "friendster" in rep.preamble
    assert "65,608,366" in rep.preamble  # the paper's number beside ours
    for name in ("domainpub", "email", "dblp"):
        spec = SNAP_LIKE_SPECS[name]
        graph = snap_like_topology(spec)
        assert graph.n == spec.n
        assert kmax(graph) >= max(spec.k_sweep)


def claim_fig2(rep: ExperimentReport) -> None:
    """Naive generates the most candidates; Approx no more than Improve."""
    for panel in rep.panels:
        c = counted(panel, "candidates")
        for point in zip(c["naive"], c["improve"], c["approx"]):
            if None not in point:  # Naive sits out the large stand-ins' low k
                naive, improve, approx = point
                assert naive > improve >= approx, (panel.title, point)
    email = ds.get_dataset("email")
    naive = bounded(sum_naive(email, 6, R), R)
    improve = bounded(tic_improved(email, 6, R), R)
    assert naive.values() == pytest.approx(improve.values())


def claim_fig3(rep: ExperimentReport) -> None:
    rises(rep, "candidates")


def claim_fig4(rep: ExperimentReport) -> None:
    series_within(rep, "candidates", 10)


def claim_fig5(rep: ExperimentReport) -> None:
    series_within(rep, "candidates", 10)
    rises(rep, "candidates")
    # Tighter eps can only give equal-or-better r-th values.
    dblp = ds.get_dataset("dblp")
    exact = bounded(tic_improved(dblp, 4, 10, eps=0.0), 10)
    loose = bounded(tic_improved(dblp, 4, 10, eps=0.5), 10)
    tight = bounded(tic_improved(dblp, 4, 10, eps=0.01), 10)
    assert tight.rth_value(10) >= loose.rth_value(10) - 1e-12
    assert tight.rth_value(10) >= (1 - 0.01) * exact.rth_value(10) - 1e-12


def claim_fig6(rep: ExperimentReport) -> None:
    last_within(rep, "prefixes_tested", 1.5)


def claim_fig7(rep: ExperimentReport) -> None:
    last_within(rep, "prefixes_tested", 1.5)
    email = ds.get_dataset("email")
    result = local_search(email, 4, R, S, "avg", greedy=True)
    certify_result_set(email, result, k=4, s=S)


def claim_fig8(rep: ExperimentReport) -> None:
    last_within(rep, "prefixes_tested", 3)


def claim_fig9(rep: ExperimentReport) -> None:
    last_within(rep, "prefixes_tested", 3)


def claim_fig10(rep: ExperimentReport) -> None:
    rises(rep, "prefixes_tested")


def claim_fig11(rep: ExperimentReport) -> None:
    rises(rep, "prefixes_tested")


def claim_fig12(rep: ExperimentReport) -> None:
    greedy_wins_majority(rep)


def claim_fig13(rep: ExperimentReport) -> None:
    greedy_wins_majority(rep)


def claim_fig14(rep: ExperimentReport) -> None:
    text = rep.preamble
    assert "[min]" in text and "[avg]" in text and "[sum]" in text
    assert "top-1" in text
    panels = {p.aggregator: p for p in case_panels()}
    assert set(panels) == {"min", "avg", "sum"}
    for panel in panels.values():
        assert len(panel.communities) == 3
        assert panel.communities.is_pairwise_disjoint()
    # avg tends to pick smaller (elite) groups than sum's diverse ones.
    avg_sizes = sum(c.size for c in panels["avg"].communities)
    sum_sizes = sum(c.size for c in panels["sum"].communities)
    assert avg_sizes <= sum_sizes
    # The three result families are not identical.
    families = {
        frozenset(c.vertices for c in panel.communities)
        for panel in panels.values()
    }
    assert len(families) >= 2
    # The same protocol on a SNAP edge list, through `repro ingest`'s path;
    # REPRO_CASE_EDGELIST points it at a real published download.
    path = os.environ.get("REPRO_CASE_EDGELIST", str(SNAP_FIXTURE))
    graph, __ = ingest_edge_list(path, labels="degree")
    assert graph.labels is not None  # constrained-ready out of the box
    ingested = run_case_study(graph=graph)
    assert {p.aggregator for p in ingested} == {"min", "avg", "sum"}
    assert {p.weight_kind for p in ingested} == {"core", "pagerank", "degree"}
    for panel in ingested:
        assert len(panel.communities) >= 1
        assert panel.communities.is_pairwise_disjoint()
        for community in panel.communities:
            assert community.size <= 8  # CASE_S cap holds on ingested runs


def claim_substrates(rep: ExperimentReport) -> None:
    """Not a paper figure, and it claims no shape: building it is the test."""


CLAIMS = {
    "table3": claim_table3,
    "fig2": claim_fig2,
    "fig3": claim_fig3,
    "fig4": claim_fig4,
    "fig5": claim_fig5,
    "fig6": claim_fig6,
    "fig7": claim_fig7,
    "fig8": claim_fig8,
    "fig9": claim_fig9,
    "fig10": claim_fig10,
    "fig11": claim_fig11,
    "fig12": claim_fig12,
    "fig13": claim_fig13,
    "fig14": claim_fig14,
    "substrates": claim_substrates,
}


def test_every_experiment_has_a_claim():
    assert set(KEYS) == set(CLAIMS)


@pytest.mark.parametrize("key", KEYS)
def test_claim(key):
    CLAIMS[key](report(key))


@pytest.mark.parametrize("key", ["fig2", "fig8"])
def test_counts_repeat_exactly(key):
    """A second run records the same counts at every point."""
    again = EXPERIMENTS[key](key not in FULL_MODE)
    assert [p.counts for p in again.panels] == [p.counts for p in report(key).panels]
