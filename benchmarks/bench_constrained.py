"""Label-constrained search: predicate pushdown vs query-then-filter.

The constrained-query tentpole pushes the label predicate into the CSR
seed-component filter: matching vertices are masked *before* the k-core
peel, so search never expands a community the predicate would reject.
This benchmark measures what that buys on the planted-label scenario —
a G(n, m) background carrying three dense labeled blocks (``team:0..2``
over a ``bg`` majority), with ``k`` chosen *below* the background
degeneracy so the unconstrained lattice is large while the constrained
answer is exactly the planted teams:

* **pushdown** — ``top_r_communities(..., labels={"prefix": "team:"})``,
  best-of-N: the complete constrained answer;
* **materialize** — filter-then-query: build ``G[matching]`` with
  :func:`repro.graphs.views.induced_subgraph`, solve unconstrained, map
  ids back (the correctness reference: must equal pushdown exactly);
* **query-then-filter** — the naive client-side strategy: unconstrained
  solves with escalating ``r`` (×4 per round up to a cap), post-filtering
  for all-matching communities.  On this scenario the background
  communities out-sum the teams, so escalation burns seconds without
  completing — the reported speedup is therefore a *lower bound*.

``python benchmarks/bench_constrained.py`` writes
``BENCH_constrained.json`` for the 50k/400k receipts; ``--ci`` shrinks
the graph for CI, which uploads the report.  The run exits 1 when
pushdown disagrees with filter-then-query or comes back empty.  The
speedup is not gated here: the ``materialize`` tier of the experiment
grid's constrained cells times pushdown against filter-then-query
(``repro bench grid``); query-then-filter has no grid cell.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.core.decomposition import core_decomposition
from repro.graphs.builder import graph_from_edges
from repro.graphs.views import induced_subgraph
from repro.influential.api import top_r_communities
from repro.influential.constraints import LabelPredicate, matching_mask

PREDICATE = {"prefix": "team:"}
BLOCKS = 3
BLOCK_SIZE = 40
INTRA_P = 0.6
REPEATS = 3
ESCALATION_FACTOR = 4
ESCALATION_CAP = 48


def planted_label_graph(n: int, m: int, seed: int = 7):
    """A G(n, m) background with three dense labeled blocks.

    Block vertices (ids ``0 .. 3*BLOCK_SIZE``) get ``team:<b>`` labels, a
    weight boost, and ~``INTRA_P`` intra-block edge density on top of the
    random background — dense enough that each team survives peels the
    background cannot, sparse enough that they stay planted needles.
    """
    from repro.graphs.generators.random_graphs import gnm_random_graph
    from repro.utils.rng import make_rng

    base = gnm_random_graph(n, m, seed=seed)
    rng = make_rng(seed + 1)
    edges = set(base.edges())
    blocks = []
    start = 0
    for __ in range(BLOCKS):
        block = list(range(start, start + BLOCK_SIZE))
        start += BLOCK_SIZE
        blocks.append(block)
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if rng.random() < INTRA_P:
                    edges.add((u, v))
    graph = graph_from_edges(sorted(edges), n=n)
    weights = rng.uniform(0.0, 100.0, n)
    weights[: BLOCKS * BLOCK_SIZE] += 100.0
    labels = ["bg"] * n
    for b, block in enumerate(blocks):
        for v in block:
            labels[v] = f"team:{b}"
    graph = graph.with_weights(weights).with_labels(labels)
    graph.csr  # noqa: B018 — flatten outside every timed region
    return graph


def pick_k(graph) -> int:
    """One below the background degeneracy: the unconstrained k-core is
    still almost the whole graph, the planted teams comfortably survive."""
    cores = core_decomposition(graph)
    background = cores[BLOCKS * BLOCK_SIZE :]
    return max(2, int(background.max()) - 1)


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for __ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# pytest-benchmark entries (small planted instance, exercised per-PR)
# ----------------------------------------------------------------------
def test_bench_constrained_pushdown(benchmark):
    from benchmarks.conftest import once

    benchmark.group = "constrained"
    graph = planted_label_graph(2_000, 16_000)
    k = pick_k(graph)

    result = once(
        benchmark, top_r_communities, graph, k, BLOCKS, "sum", labels=PREDICATE
    )
    assert len(result) >= 1
    names = graph.labels
    for community in result:
        assert all(names[v].startswith("team:") for v in community.vertices)


def test_pushdown_equals_filter_then_query():
    graph = planted_label_graph(2_000, 16_000)
    k = pick_k(graph)
    pushed = top_r_communities(graph, k, BLOCKS, "sum", labels=PREDICATE)
    mask = matching_mask(graph, LabelPredicate.from_json(PREDICATE))
    matching = [v for v in range(graph.n) if mask[v]]
    sub, __ = induced_subgraph(graph, matching)
    inner = top_r_communities(sub, k, BLOCKS, "sum")
    assert [sorted(matching[v] for v in c.vertices) for c in inner] == [
        sorted(c.vertices) for c in pushed
    ]
    assert pushed.values() == inner.values()


# ----------------------------------------------------------------------
# Standalone measurement
# ----------------------------------------------------------------------
def measure_constrained(
    n: int = 50_000, m: int = 400_000, r: int = BLOCKS, seed: int = 7
) -> dict:
    graph = planted_label_graph(n, m, seed)
    k = pick_k(graph)
    predicate = LabelPredicate.from_json(PREDICATE)
    mask = matching_mask(graph, predicate)
    matching = [v for v in range(graph.n) if mask[v]]

    # Leg 1: the pushdown fast path (complete constrained answer).
    pushdown_seconds, pushed = _best_of(
        lambda: top_r_communities(graph, k, r, "sum", labels=PREDICATE)
    )

    # Leg 2: filter-then-query — materialize G[matching], solve, map back.
    def materialized():
        sub, __ = induced_subgraph(graph, matching)
        return [
            (sorted(matching[v] for v in c.vertices), c.value)
            for c in top_r_communities(sub, k, r, "sum")
        ]

    materialize_seconds, mapped = _best_of(materialized)
    pushdown_equals_materialized = mapped == [
        (sorted(c.vertices), c.value) for c in pushed
    ]

    # Leg 3: query-then-filter — escalate r on the unconstrained lattice,
    # post-filtering, until r all-matching communities appear or the
    # escalation cap is reached (single pass: escalation dominates).
    postfilter_seconds, found, escalated_to = 0.0, 0, r
    while found < r and escalated_to < r * ESCALATION_CAP:
        escalated_to *= ESCALATION_FACTOR
        start = time.perf_counter()
        big = top_r_communities(graph, k, escalated_to, "sum")
        postfilter_seconds += time.perf_counter() - start
        found = sum(
            1 for c in big if all(mask[v] for v in c.vertices)
        )
        if len(big) < escalated_to:
            break  # lattice exhausted: nothing deeper to scan
    postfilter_complete = found >= r

    return {
        "benchmark": "constrained_pushdown",
        "graph": {
            "model": "gnm+planted",
            "n": graph.n,
            "m": graph.m,
            "blocks": BLOCKS,
            "block_size": BLOCK_SIZE,
        },
        "parameters": {
            "k": k,
            "r": r,
            "seed": seed,
            "predicate": PREDICATE,
            "matching_vertices": len(matching),
        },
        "pushdown": {
            "seconds": round(pushdown_seconds, 6),
            "communities": len(pushed),
            "sizes": [len(c.vertices) for c in pushed],
        },
        "materialize": {"seconds": round(materialize_seconds, 6)},
        "query_then_filter": {
            "seconds": round(postfilter_seconds, 6),
            "found": found,
            "escalated_to_r": escalated_to,
            "complete": postfilter_complete,
        },
        "constrained_nonempty": len(pushed) >= 1,
        "pushdown_equals_materialized": pushdown_equals_materialized,
        # Lower bound whenever query-then-filter gave up incomplete.
        "speedup_vs_query_then_filter": round(
            postfilter_seconds / pushdown_seconds, 2
        )
        if pushdown_seconds
        else float("inf"),
        "speedup_is_lower_bound": not postfilter_complete,
    }


def correctness_failures(report: dict) -> list[str]:
    """Every way ``report`` shows a fast path disagreeing with its oracle."""
    return [
        message
        for flag, message in (
            (
                "pushdown_equals_materialized",
                "pushdown disagrees with filter-then-query",
            ),
            ("constrained_nonempty", "constrained answer came back empty"),
        )
        if report.get(flag) is not True
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--m", type=int, default=400_000)
    parser.add_argument("--r", type=int, default=BLOCKS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--ci", action="store_true",
        help="shrunk graph for the CI report and correctness check",
    )
    parser.add_argument(
        "--output", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_constrained.json",
    )
    args = parser.parse_args()
    if args.ci:
        args.n, args.m = 8_000, 64_000
    report = measure_constrained(n=args.n, m=args.m, r=args.r, seed=args.seed)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    failures = correctness_failures(report)
    for failure in failures:
        print(f"::error::bench_constrained: {failure}")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
