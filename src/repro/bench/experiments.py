"""Experiment definitions — one per table/figure of the paper's Section VI.

Each experiment builds the paper's parameter grid on the stand-in datasets
and produces one :class:`~repro.bench.runner.SweepResult` panel per dataset
(the paper's figures are 6-panel rows).  ``run_experiments`` assembles the
requested experiments into a report that renders as plain text (terminal)
or Markdown (EXPERIMENTS.md).

Protocol notes mirroring the paper (Section VI "Parameters"):

* defaults: eps = 0.1, r = 5, s = 20;
* default k: 4 on small datasets; the large datasets use the scaled sweep
  {8, 12, 16, 20} in place of the paper's {40, 50, 100, 200} (DESIGN.md);
* a missing point means the algorithm was skipped at that setting (the
  paper's convention for > 1 day runs; ours is a per-call time budget);
* Figures 10-11 sweep s in {5, 10, 15, 20}; combinations with s < k + 1
  are infeasible by definition (a k-core needs k + 1 vertices) and are
  skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bench import datasets as ds
from repro.bench.runner import SweepResult, run_sweep
from repro.influential.improved import tic_improved
from repro.influential.local_search import local_search
from repro.influential.naive_sum import sum_naive

#: Paper defaults.
DEFAULT_R = 5
DEFAULT_S = 20
DEFAULT_EPS = 0.1
EPS_SWEEP = (0.01, 0.05, 0.1, 0.2, 0.5)
R_SWEEP = (5, 10, 15, 20)
S_SWEEP = (5, 10, 15, 20)

#: Datasets where SUM-NAIVE is given a seat despite its cost; elsewhere it
#: is only run at k values that shrink the core (mirroring the paper's
#: missing points).
_NAIVE_SLOW_DATASETS = {"youtube", "orkut", "livejournal", "friendster"}


@dataclass
class ExperimentReport:
    """All panels of one paper figure/table plus context."""

    key: str
    title: str
    paper_shape: str
    panels: list[SweepResult] = field(default_factory=list)
    preamble: str | None = None

    def render_text(self) -> str:
        parts = [f"== {self.key}: {self.title} =="]
        if self.preamble:
            parts.append(self.preamble)
        for panel in self.panels:
            parts.append(panel.render_text())
        parts.append(f"paper shape: {self.paper_shape}")
        return "\n\n".join(parts)

    def render_markdown(self) -> str:
        parts = [f"## {self.key} — {self.title}", ""]
        if self.preamble:
            parts.append("```")
            parts.append(self.preamble)
            parts.append("```")
            parts.append("")
        for panel in self.panels:
            parts.append(panel.render_markdown())
            parts.append("")
        parts.append(f"**Paper shape:** {self.paper_shape}")
        return "\n".join(parts)


def _figure_datasets(quick: bool) -> tuple[str, ...]:
    return ("email", "dblp") if quick else ds.FIGURE_DATASETS


def _axis(sweep: tuple, quick: bool) -> tuple:
    """The swept values; quick mode keeps only the first and the last."""
    return (sweep[0], sweep[-1]) if quick else sweep


def _k_axis(name: str, quick: bool) -> tuple[int, ...]:
    return _axis(ds.k_sweep(name), quick)


def _skip_naive(name: str, k: int) -> bool:
    """Mirror the paper's missing points: SUM-NAIVE explores every top-r
    community exhaustively and is unaffordable on the larger stand-ins at
    the smallest k (where the k-core is near-global).  Skip those cells."""
    return name in _NAIVE_SLOW_DATASETS and k <= min(ds.k_sweep(name))


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------
def exp_table3(quick: bool = False) -> ExperimentReport:
    """Dataset statistics, paper vs stand-in."""
    report = ExperimentReport(
        key="table3",
        title="Datasets",
        paper_shape=(
            "seven datasets ordered by size with Orkut densest and "
            "FriendSter largest; stand-ins preserve the ordering at ~1/1000 "
            "scale with power-law degrees and non-trivial kmax"
        ),
        preamble=ds.dataset_statistics_table(),
    )
    return report


# ----------------------------------------------------------------------
# Exp-I / Exp-II: Figures 2-3 (sum, size-unconstrained)
# ----------------------------------------------------------------------
def exp_fig2(quick: bool = False) -> ExperimentReport:
    """Running time vs k — Naive / Improve / Approx."""
    report = ExperimentReport(
        key="fig2",
        title="Running time vs k (sum, size-unconstrained)",
        paper_shape=(
            "Naive slowest by 1-3 orders of magnitude and getting faster as "
            "k grows (smaller cores); Improve and Approx comparable, with "
            "Approx at or below Improve everywhere"
        ),
    )
    for name in _figure_datasets(quick):
        graph = ds.get_dataset(name)
        panel = run_sweep(
            title=f"{name}: time vs k",
            axis_name="k",
            axis_values=list(_k_axis(name, quick)),
            algorithms={
                "naive": lambda k, g=graph: sum_naive(g, k, DEFAULT_R),
                "improve": lambda k, g=graph: tic_improved(g, k, DEFAULT_R),
                "approx": lambda k, g=graph: tic_improved(
                    g, k, DEFAULT_R, eps=DEFAULT_EPS
                ),
            },
            skip=lambda alg, k, n=name: alg == "naive" and _skip_naive(n, k),
        )
        report.panels.append(panel)
    return report


def exp_fig3(quick: bool = False) -> ExperimentReport:
    """Running time vs r — Naive / Improve / Approx."""
    report = ExperimentReport(
        key="fig3",
        title="Running time vs r (sum, size-unconstrained)",
        paper_shape=(
            "all three algorithms grow mildly with r (more communities to "
            "output); relative ordering Naive >> Improve >= Approx unchanged"
        ),
    )
    r_values = _axis(R_SWEEP, quick)
    for name in _figure_datasets(quick):
        graph = ds.get_dataset(name)
        k = ds.default_k(name)
        panel = run_sweep(
            title=f"{name}: time vs r (k={k})",
            axis_name="r",
            axis_values=list(r_values),
            algorithms={
                "naive": lambda r, g=graph, k=k: sum_naive(g, k, r),
                "improve": lambda r, g=graph, k=k: tic_improved(g, k, r),
                "approx": lambda r, g=graph, k=k: tic_improved(
                    g, k, r, eps=DEFAULT_EPS
                ),
            },
            skip=lambda alg, r, n=name, k=k: alg == "naive" and _skip_naive(n, k),
        )
        report.panels.append(panel)
    return report


# ----------------------------------------------------------------------
# Exp-III: Figures 4-5 (impact of eps)
# ----------------------------------------------------------------------
def exp_fig4(quick: bool = False) -> ExperimentReport:
    """Approx running time vs k for several eps."""
    report = ExperimentReport(
        key="fig4",
        title="Running time vs k for eps in {0.01..0.5} (sum)",
        paper_shape=(
            "curves for different eps nearly coincide — the approximate "
            "algorithm is insensitive to eps because the top-r communities "
            "are confirmed within the first r expansions"
        ),
    )
    eps_values = _axis(EPS_SWEEP, quick)
    for name in _figure_datasets(quick):
        graph = ds.get_dataset(name)
        panel = run_sweep(
            title=f"{name}: approx time vs k",
            axis_name="k",
            axis_values=list(_k_axis(name, quick)),
            algorithms={
                f"eps={eps}": lambda k, g=graph, e=eps: tic_improved(
                    g, k, DEFAULT_R, eps=e
                )
                for eps in eps_values
            },
        )
        report.panels.append(panel)
    return report


def exp_fig5(quick: bool = False) -> ExperimentReport:
    """Approx running time vs r for several eps."""
    report = ExperimentReport(
        key="fig5",
        title="Running time vs r for eps in {0.01..0.5} (sum)",
        paper_shape="flat in eps, mildly increasing in r",
    )
    eps_values = _axis(EPS_SWEEP, quick)
    r_values = _axis(R_SWEEP, quick)
    for name in _figure_datasets(quick):
        graph = ds.get_dataset(name)
        k = ds.default_k(name)
        panel = run_sweep(
            title=f"{name}: approx time vs r (k={k})",
            axis_name="r",
            axis_values=list(r_values),
            algorithms={
                f"eps={eps}": lambda r, g=graph, e=eps, k=k: tic_improved(
                    g, k, r, eps=e
                )
                for eps in eps_values
            },
        )
        report.panels.append(panel)
    return report


# ----------------------------------------------------------------------
# Exp-IV..VI: Figures 6-11 (local search, size-constrained)
# ----------------------------------------------------------------------
def _local_search_panel(
    name: str,
    axis_name: str,
    axis_values: list[object],
    call: Callable[[object, bool], object],
    measure: str = "time",
    unit: str = "seconds",
    title_suffix: str = "",
) -> SweepResult:
    return run_sweep(
        title=f"{name}: {axis_name} sweep{title_suffix}",
        axis_name=axis_name,
        axis_values=axis_values,
        algorithms={
            "random": lambda x: call(x, False),
            "greedy": lambda x: call(x, True),
        },
        measure=measure,
        unit=unit,
    )


def _fig_constrained_vs_k(f: str, key: str, quick: bool) -> ExperimentReport:
    report = ExperimentReport(
        key=key,
        title=f"Running time vs k ({f}, size-constrained, s={DEFAULT_S})",
        paper_shape=(
            "time decreases as k grows (smaller k-core, fewer seeds); "
            "greedy carries a sorting overhead but stays within a small "
            "factor of random"
        ),
    )
    for name in _figure_datasets(quick):
        graph = ds.get_dataset(name)
        panel = run_sweep(
            title=f"{name}: k sweep ({f})",
            axis_name="k",
            axis_values=list(_k_axis(name, quick)),
            algorithms={
                "random": lambda k, g=graph: local_search(
                    g, int(k), DEFAULT_R, DEFAULT_S, f, greedy=False
                ),
                "greedy": lambda k, g=graph: local_search(
                    g, int(k), DEFAULT_R, DEFAULT_S, f, greedy=True
                ),
            },
            # k + 1 > s cannot hold a k-core: skipped (paper's large-k cells
            # are degenerate for the same reason).
            skip=lambda alg, k: int(k) + 1 > DEFAULT_S,
        )
        report.panels.append(panel)
    return report


def exp_fig6(quick: bool = False) -> ExperimentReport:
    """Exp-IV, sum."""
    return _fig_constrained_vs_k("sum", "fig6", quick)


def exp_fig7(quick: bool = False) -> ExperimentReport:
    """Exp-IV, avg."""
    return _fig_constrained_vs_k("avg", "fig7", quick)


def _fig_constrained_vs_r(f: str, key: str, quick: bool) -> ExperimentReport:
    report = ExperimentReport(
        key=key,
        title=f"Running time vs r ({f}, size-constrained, s={DEFAULT_S})",
        paper_shape=(
            "essentially flat in r — local search always computes more than "
            "r candidates, so the output size does not drive the cost"
        ),
    )
    r_values = list(_axis(R_SWEEP, quick))
    for name in _figure_datasets(quick):
        graph = ds.get_dataset(name)
        k = ds.default_k(name)
        panel = _local_search_panel(
            name,
            "r",
            r_values,
            lambda r, greedy, g=graph, k=k: local_search(
                g, k, int(r), DEFAULT_S, f, greedy=greedy
            ),
            title_suffix=f" ({f}, k={k})",
        )
        report.panels.append(panel)
    return report


def exp_fig8(quick: bool = False) -> ExperimentReport:
    """Exp-V, sum."""
    return _fig_constrained_vs_r("sum", "fig8", quick)


def exp_fig9(quick: bool = False) -> ExperimentReport:
    """Exp-V, avg."""
    return _fig_constrained_vs_r("avg", "fig9", quick)


def _fig_constrained_vs_s(f: str, key: str, quick: bool) -> ExperimentReport:
    report = ExperimentReport(
        key=key,
        title=f"Running time vs s ({f}, size-constrained)",
        paper_shape=(
            "time increases with s (each seed explores a larger "
            "neighbourhood); infeasible cells (s < k + 1) are skipped"
        ),
    )
    s_values = list(_axis(S_SWEEP, quick))
    for name in _figure_datasets(quick):
        graph = ds.get_dataset(name)
        # The s sweep goes down to 5, so use k = 4 on every dataset (the
        # paper's large-dataset default k = 40 would make every cell
        # infeasible at s <= 20).
        k = 4
        panel = run_sweep(
            title=f"{name}: time vs s ({f}, k={k})",
            axis_name="s",
            axis_values=s_values,
            algorithms={
                "random": lambda s, g=graph: local_search(
                    g, k, DEFAULT_R, int(s), f, greedy=False
                ),
                "greedy": lambda s, g=graph: local_search(
                    g, k, DEFAULT_R, int(s), f, greedy=True
                ),
            },
            skip=lambda alg, s: int(s) < k + 1,
        )
        report.panels.append(panel)
    return report


def exp_fig10(quick: bool = False) -> ExperimentReport:
    """Exp-VI, sum."""
    return _fig_constrained_vs_s("sum", "fig10", quick)


def exp_fig11(quick: bool = False) -> ExperimentReport:
    """Exp-VI, avg."""
    return _fig_constrained_vs_s("avg", "fig11", quick)


# ----------------------------------------------------------------------
# Exp-VII: Figures 12-13 (effectiveness: r-th influence value)
# ----------------------------------------------------------------------
def _fig_effectiveness(
    f: str, key: str, names: tuple[str, ...], quick: bool
) -> ExperimentReport:
    report = ExperimentReport(
        key=key,
        title=f"r-th influence value vs k ({f}, size-constrained, "
        f"r={DEFAULT_R}, s={DEFAULT_S})",
        paper_shape=(
            "greedy's r-th influence value is consistently at or above "
            "random's — sorting each neighbourhood by weight concentrates "
            "heavy vertices into the bounded-size candidates"
        ),
    )
    if quick:
        names = names[:1]
    for name in names:
        graph = ds.get_dataset(name)
        panel = run_sweep(
            title=f"{name}: r-th value vs k ({f})",
            axis_name="k",
            axis_values=list(_k_axis(name, quick)),
            algorithms={
                "random": lambda k, g=graph: local_search(
                    g, int(k), DEFAULT_R, DEFAULT_S, f, greedy=False
                ).rth_value(DEFAULT_R),
                "greedy": lambda k, g=graph: local_search(
                    g, int(k), DEFAULT_R, DEFAULT_S, f, greedy=True
                ).rth_value(DEFAULT_R),
            },
            measure="value",
            unit=f"influence value ({f})",
            skip=lambda alg, k: int(k) + 1 > DEFAULT_S,
        )
        report.panels.append(panel)
    return report


def exp_fig12(quick: bool = False) -> ExperimentReport:
    """Exp-VII for sum on the paper's panel datasets (DBLP/Orkut/LiveJournal)."""
    return _fig_effectiveness("sum", "fig12", ("dblp", "orkut", "livejournal"), quick)


def exp_fig13(quick: bool = False) -> ExperimentReport:
    """Exp-VII for avg on the paper's panel datasets (Email/Youtube/FriendSter)."""
    return _fig_effectiveness("avg", "fig13", ("email", "youtube", "friendster"), quick)


# ----------------------------------------------------------------------
# Fig 14: case study
# ----------------------------------------------------------------------
def exp_case(quick: bool = False) -> ExperimentReport:
    """The Aminer case study (delegates to repro.bench.case_study)."""
    from repro.bench.case_study import render_case_study, run_case_study

    report = ExperimentReport(
        key="fig14",
        title="Case study: top-3 non-overlapping communities (Aminer, k=4)",
        paper_shape=(
            "min selects uniformly-cited groups, avg selects small elite "
            "groups, sum selects larger diverse groups; the three "
            "aggregators surface different research communities"
        ),
        preamble=render_case_study(run_case_study()),
    )
    return report


# ----------------------------------------------------------------------
# Substrate ablation (not a paper figure; engineering due diligence)
# ----------------------------------------------------------------------
def exp_substrates(quick: bool = False) -> ExperimentReport:
    """Throughput of the building blocks on each dataset."""
    from repro.centrality.pagerank import pagerank
    from repro.core.decomposition import core_decomposition
    from repro.core.kcore import connected_kcore_components

    report = ExperimentReport(
        key="substrates",
        title="Substrate costs (core decomposition, PageRank, components)",
        paper_shape=(
            "not in the paper — included to document where solver time "
            "goes: core decomposition and PageRank are linear-ish and "
            "cheap relative to community search"
        ),
    )
    names = _figure_datasets(quick)
    panel = run_sweep(
        title="substrate seconds per dataset",
        axis_name="dataset",
        axis_values=list(names),
        algorithms={
            "core-decomposition": lambda n: core_decomposition(ds.get_dataset(n)),
            "pagerank": lambda n: pagerank(ds.get_dataset(n)),
            "kcore-components": lambda n: connected_kcore_components(
                ds.get_dataset(n), range(ds.get_dataset(n).n), ds.default_k(n)
            ),
        },
    )
    report.panels.append(panel)
    return report


#: Registry: experiment key -> builder.
EXPERIMENTS: dict[str, Callable[[bool], ExperimentReport]] = {
    "table3": exp_table3,
    "fig2": exp_fig2,
    "fig3": exp_fig3,
    "fig4": exp_fig4,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "fig9": exp_fig9,
    "fig10": exp_fig10,
    "fig11": exp_fig11,
    "fig12": exp_fig12,
    "fig13": exp_fig13,
    "fig14": exp_case,
    "case": exp_case,
    "substrates": exp_substrates,
}


@dataclass
class CombinedReport:
    """A batch of experiment reports, renderable as one document."""

    reports: list[ExperimentReport]

    def render_text(self) -> str:
        return "\n\n\n".join(r.render_text() for r in self.reports)

    def render_markdown(self) -> str:
        header = (
            "# EXPERIMENTS — paper vs measured\n\n"
            "Generated by `python -m repro bench --exp all`.  All datasets "
            "are the scaled synthetic stand-ins of DESIGN.md Section 4; "
            "compare *shapes* (who wins, trends), not absolute numbers.\n"
        )
        return header + "\n\n".join(r.render_markdown() for r in self.reports)


def run_experiments(exp: str = "all", quick: bool = False) -> CombinedReport:
    """Run one experiment by key, or every figure/table with ``"all"``."""
    if exp == "all":
        keys = [k for k in EXPERIMENTS if k != "case"]  # fig14 alias covers it
    else:
        if exp not in EXPERIMENTS:
            from repro.errors import DatasetError

            known = ", ".join(sorted(EXPERIMENTS))
            raise DatasetError(f"unknown experiment {exp!r}; known: {known}, all")
        keys = [exp]
    return CombinedReport([EXPERIMENTS[key](quick) for key in keys])
