"""Serving-layer throughput: a mixed 200-query workload, cold vs pooled.

PR 1/2 made a *single* query fast; this benchmark measures what a serving
deployment actually buys on top — answering a realistic batch of repeated
and related queries through one :class:`repro.serving.service.QueryService`
(shared CSR, cached core decomposition, expansion-engine pool, keyed LRU
result cache) versus issuing the same batch as sequential cold
:func:`~repro.influential.api.top_r_communities` calls.

The workload models production traffic: a fixed catalogue of distinct
``(k, r, aggregator, eps)`` combinations — the sum family Algorithms 1/2
serve in milliseconds-to-seconds, plus above-``kmax`` probes — sampled
200 times under a Zipf-like popularity skew (popular queries repeat, the
long tail stays long).  min/max aggregators are excluded: they were
left out when whole-family peels made them 100x slower per query, and
although one community forest now answers them in milliseconds, adding
them would change the workload the committed report measures.  The
cold baseline keeps the graph's own CSR cache warm (that is a per-graph
cost, not a per-query one), so the speedup isolates genuine serving-layer
reuse.  Every pooled answer is checked for equality against its cold
twin (``results_agree``) — the same guarantee the oracle layer under
``tests/serving`` enforces on small graphs.

``python benchmarks/bench_serving.py`` writes ``BENCH_serving.json``;
``--ci`` shrinks the graph for CI, which uploads the report.  The run
exits 1 when a pooled answer disagrees with its cold twin.  The speedup
is gated by the experiment grid's ``service`` tier
(``repro bench grid``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.influential.api import top_r_communities
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService

WORKLOAD_SIZE = 200


# ----------------------------------------------------------------------
# pytest-benchmark entries (representative dataset)
# ----------------------------------------------------------------------
def test_bench_serving_cold_email(benchmark, email):
    benchmark.group = "serving"
    workload = build_workload(email, seed=5, size=40)
    results = benchmark(
        lambda: [
            top_r_communities(email, **q.solver_kwargs()) for q in workload
        ]
    )
    assert len(results) == len(workload)


def test_bench_serving_pooled_email(benchmark, email):
    benchmark.group = "serving"
    workload = build_workload(email, seed=5, size=40)

    def pooled():
        return QueryService(email).submit_many(workload)

    results = benchmark(pooled)
    assert len(results) == len(workload)


def test_serving_matches_cold_on_email(email):
    workload = build_workload(email, seed=5, size=40)
    pooled = QueryService(email).submit_many(workload)
    for query, produced in zip(workload, pooled):
        assert produced == top_r_communities(email, **q_kwargs(query))


def q_kwargs(query: InfluentialQuery) -> dict:
    return query.solver_kwargs()


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
def build_workload(
    graph, seed: int = 7, size: int = WORKLOAD_SIZE
) -> list[InfluentialQuery]:
    """``size`` queries over a fixed catalogue with Zipf-ish popularity.

    The catalogue crosses k x r x (aggregator, eps) over the sum family
    (all served by Algorithms 1/2) and adds above-kmax probes; sampling
    weights 1/rank make a handful of entries dominate, like production
    query logs.  Deterministic for a given ``seed``.
    """
    from repro.core.decomposition import core_decomposition

    kmax = int(core_decomposition(graph).max()) if graph.n else 0
    ks = sorted({max(2, kmax // 3), max(3, kmax // 2), max(4, 2 * kmax // 3),
                 max(5, kmax)})
    catalogue = [
        InfluentialQuery(k=k, r=r, f=f, eps=eps)
        for k in ks
        for r in (1, 5, 10)
        for f, eps in (
            ("sum", 0.0),
            ("sum", 0.1),
            ("sum-surplus(1)", 0.0),
            ("sum-surplus(2)", 0.1),
        )
    ]
    catalogue.append(InfluentialQuery(k=kmax + 50, r=5, f="sum"))
    catalogue.append(InfluentialQuery(k=kmax + 9, r=1, f="sum", eps=0.1))
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(catalogue) + 1, dtype=np.float64)
    popularity = (1.0 / ranks) / (1.0 / ranks).sum()
    # Shuffle which catalogue entry gets which popularity mass, so "most
    # popular" is not systematically the smallest-k entry.
    popularity = popularity[rng.permutation(len(catalogue))]
    picks = rng.choice(len(catalogue), size=size, p=popularity)
    return [catalogue[int(i)] for i in picks]


# ----------------------------------------------------------------------
# Standalone measurement
# ----------------------------------------------------------------------
def _weighted_gnm(n: int, m: int, seed: int):
    from repro.graphs.generators.random_graphs import gnm_random_graph
    from repro.utils.rng import make_rng

    graph = gnm_random_graph(n, m, seed=seed)
    graph = graph.with_weights(make_rng(seed + 1).uniform(0.0, 100.0, graph.n))
    graph.csr  # warm: per-graph cost, kept out of both sides of the measure
    return graph


def measure_serving_throughput(
    n: int = 8_000,
    m: int = 64_000,
    size: int = WORKLOAD_SIZE,
    seed: int = 7,
) -> dict:
    """Cold-sequential vs pooled-service timings, as a JSON-ready dict."""
    graph = _weighted_gnm(n, m, seed)
    workload = build_workload(graph, seed=seed + 2, size=size)
    distinct = len({q.cache_key() for q in workload})

    start = time.perf_counter()
    cold = [top_r_communities(graph, **q.solver_kwargs()) for q in workload]
    cold_seconds = time.perf_counter() - start

    service = QueryService(graph)
    start = time.perf_counter()
    pooled = service.submit_many(workload)
    pooled_seconds = time.perf_counter() - start

    agree = all(
        p == c and p.values() == c.values() for p, c in zip(pooled, cold)
    )
    report = {
        "benchmark": "serving_throughput",
        "graph": {"model": "gnm", "n": graph.n, "m": graph.m},
        "workload": {
            "queries": len(workload),
            "distinct": distinct,
            "seed": seed,
        },
        "cold": {
            "seconds": round(cold_seconds, 4),
            "qps": round(len(workload) / cold_seconds, 2),
        },
        "pooled": {
            "seconds": round(pooled_seconds, 4),
            "qps": round(len(workload) / pooled_seconds, 2),
        },
        "speedup": round(cold_seconds / pooled_seconds, 2),
        "results_agree": agree,
        "service_stats": service.stats(),
    }
    return report


def correctness_failures(report: dict) -> list[str]:
    """Every way ``report`` shows a fast path disagreeing with its oracle."""
    if report.get("results_agree") is not True:
        return ["pooled results disagree with cold run"]
    return []


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8_000)
    parser.add_argument("--m", type=int, default=64_000)
    parser.add_argument("--size", type=int, default=WORKLOAD_SIZE)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--ci", action="store_true",
        help="shrunk graph for the CI report and correctness check",
    )
    parser.add_argument(
        "--output", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_serving.json",
    )
    args = parser.parse_args()
    if args.ci:
        args.n, args.m = 2_000, 16_000
    report = measure_serving_throughput(
        n=args.n, m=args.m, size=args.size, seed=args.seed,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    failures = correctness_failures(report)
    for failure in failures:
        print(f"::error::bench_serving: {failure}")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
