"""Precomputed index lookups vs cold solves: the cost of a served query.

PR 6 adds :class:`repro.index.InfluentialIndex`: every (k, aggregator)
community family down to a fixed depth is captured once from the shared
:class:`~repro.serving.engine_pool.ExpansionEnginePool`, so an indexed
``(k, r, f)`` query is answered by slicing a precomputed array — no
cascade peel, no lattice expansion, no solver at all.  This benchmark
measures that lookup on the PR 1/2 reference graph G(50k, 400k):

* per-query **p50/p99 latency** through ``QueryService.submit`` with the
  result cache disabled (the index, not the LRU, must carry the load) —
  the acceptance gate is **p50 < 1 ms** for indexed sum-family queries;
* the same queries **cold** through ``top_r_communities`` (best-of over
  a sample), giving the headline ``speedup``;
* **byte-identity**: every indexed answer is compared against a cold
  solve of the same query — vertex sets, values and order must match
  exactly (``results_agree``);
* **snapshot round-trip**: the index is persisted with ``save_snapshot``
  and restored with ``load_service``; the restored service must answer
  identically with zero captures (``roundtrip_agree``, build counter
  stays 0);
* an **edge-update batch** through ``update_edges``: only levels at
  ``k <= max_affected_core`` may be re-captured, everything above must
  survive verbatim (``update_locality_holds``, from the index's
  retained/invalidated counters).

``python benchmarks/bench_index.py`` writes ``BENCH_index.json``;
``--ci`` shrinks the graph for CI, which uploads the report.  The run
exits 1 when any of the four correctness flags above is false.  The
speedup is gated by the experiment grid's ``index`` tier
(``repro bench grid``).  The pytest-benchmark entries below cover the
email stand-in.
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
from repro.serving.store import load_service, save_snapshot

DEFAULT_DEPTH = 16
COLD_SAMPLE = 6


# ----------------------------------------------------------------------
# pytest-benchmark entries (representative dataset)
# ----------------------------------------------------------------------
def test_bench_indexed_query_email(benchmark, email):
    benchmark.group = "index-lookups"
    service = QueryService(email, cache_size=0)
    service.enable_index(depth=8)
    query = InfluentialQuery(k=4, r=5, f="sum")

    benchmark(service.submit, query)
    assert service.solver_calls == 0


def test_bench_cold_query_email(benchmark, email):
    benchmark.group = "index-lookups"
    service = QueryService(email, cache_size=0)
    query = InfluentialQuery(k=4, r=5, f="sum")

    benchmark(service.submit, query)
    assert service.solver_calls > 0


def test_indexed_equals_cold_on_email(email):
    service = QueryService(email, cache_size=0)
    service.enable_index(depth=8)
    query = InfluentialQuery(k=4, r=5, f="sum")
    served = service.submit(query)
    cold = top_r_communities(email, k=4, r=5, f="sum")
    assert served == cold and served.values() == cold.values()


# ----------------------------------------------------------------------
# Standalone measurement
# ----------------------------------------------------------------------
def _weighted_gnm(n, m, seed):
    from repro.graphs.generators.random_graphs import gnm_random_graph
    from repro.utils.rng import make_rng

    graph = gnm_random_graph(n, m, seed=seed)
    graph = graph.with_weights(make_rng(seed + 1).uniform(0.0, 100.0, graph.n))
    graph.csr  # noqa: B018 — warm: flattening is per-topology, not per-query
    return graph


def _query_mix(kmax, depth, seed):
    """Indexed (k, r, sum) queries sweeping k levels and r depths."""
    rng = np.random.default_rng(seed)
    queries = []
    for k in range(1, kmax + 1):
        for r in (1, max(1, depth // 2), depth):
            queries.append(InfluentialQuery(k=k, r=r, f="sum"))
    rng.shuffle(queries)
    return queries


def _pick_edges(graph, count, seed):
    """``count`` absent edges between random existing vertices."""
    rng = np.random.default_rng(seed)
    picked = []
    while len(picked) < count:
        u, v = (int(x) for x in rng.integers(0, graph.n, 2))
        if u == v or v in graph.adjacency[u]:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge not in picked:
            picked.append(edge)
    return picked


def _percentile(samples, q):
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def measure_index(
    n: int = 50_000,
    m: int = 400_000,
    depth: int = DEFAULT_DEPTH,
    seed: int = 7,
    snapshot_dir: "pathlib.Path | None" = None,
) -> dict:
    """Index build + lookup latency vs cold solves, JSON-ready."""
    graph = _weighted_gnm(n, m, seed)
    service = QueryService(graph, cache_size=0)

    start = time.perf_counter()
    index = service.enable_index(depth=depth)
    build_seconds = time.perf_counter() - start
    levels = len(index)

    queries = _query_mix(service.kmax, depth, seed + 2)
    lookup_times = []
    answers = []
    for query in queries:
        start = time.perf_counter()
        answers.append(service.submit(query))
        lookup_times.append(time.perf_counter() - start)
    hits = index.hits

    # Byte-identity against cold solves, on a deterministic sample (the
    # full sweep at 50k would dominate the runtime without adding signal).
    sample = list(range(0, len(queries), max(1, len(queries) // COLD_SAMPLE)))
    results_agree = True
    cold_times = []
    for i in sample:
        start = time.perf_counter()
        cold = top_r_communities(graph, **queries[i].solver_kwargs())
        cold_times.append(time.perf_counter() - start)
        if answers[i] != cold or answers[i].values() != cold.values():
            results_agree = False

    # Snapshot round-trip: restored index answers identically, captures
    # nothing (builds stays 0 — arrays come straight off the manifest).
    roundtrip_agree = True
    if snapshot_dir is not None:
        save_snapshot(service, snapshot_dir)
        restored = load_service(snapshot_dir, cache_size=0)
        for i in sample:
            again = restored.submit(queries[i])
            if again != answers[i] or again.values() != answers[i].values():
                roundtrip_agree = False
        if (
            restored.index is None
            or restored.index.stats()["builds"] != 0
            or restored.solver_calls != 0
        ):
            roundtrip_agree = False

    # Edge-update batch: the locality bound scopes re-capture.  Levels
    # above max_affected_core must survive verbatim (retained counter),
    # and the follow-up queries must again match cold solves.
    flips = _pick_edges(graph, 4, seed + 3)
    report = service.update_edges(insert=flips)
    bound = report.delta.max_affected_core
    stats = index.stats()
    expected_invalid = sum(
        1 for k in range(1, service.kmax + 1) if k <= bound
    ) * len(index.aggregators)
    update_locality_holds = (
        stats["levels_invalidated"] <= expected_invalid
        and stats["levels_retained"]
        >= (levels - expected_invalid)
    )
    probe = InfluentialQuery(k=min(service.kmax, 4), r=depth, f="sum")
    served = service.submit(probe)
    cold = top_r_communities(service.graph, **probe.solver_kwargs())
    update_agree = served == cold and served.values() == cold.values()

    p50_ms = _percentile(lookup_times, 50) * 1e3
    p99_ms = _percentile(lookup_times, 99) * 1e3
    cold_p50_ms = _percentile(cold_times, 50) * 1e3
    return {
        "benchmark": "influential_index",
        "graph": {"model": "gnm", "n": graph.n, "m": graph.m},
        "parameters": {"depth": depth, "seed": seed, "levels": levels},
        "build_seconds": round(build_seconds, 3),
        "lookup": {
            "queries": len(queries),
            "index_hits": hits,
            "p50_ms": round(p50_ms, 4),
            "p99_ms": round(p99_ms, 4),
            "p50_under_1ms": p50_ms < 1.0,
        },
        "cold": {
            "sampled": len(cold_times),
            "p50_ms": round(cold_p50_ms, 4),
        },
        "speedup": round(cold_p50_ms / p50_ms, 2) if p50_ms else float("inf"),
        "results_agree": results_agree,
        "roundtrip_agree": roundtrip_agree,
        "update_locality_holds": update_locality_holds,
        "update_results_agree": update_agree,
        "index_stats": index.stats(),
    }


def correctness_failures(report: dict) -> list[str]:
    """Every way ``report`` shows a fast path disagreeing with its oracle."""
    return [
        message
        for flag, message in (
            ("results_agree", "indexed answers disagree with cold solves"),
            ("roundtrip_agree", "snapshot round-trip changed indexed answers"),
            ("update_locality_holds", "edge update re-captured unaffected levels"),
            ("update_results_agree", "post-update answers disagree with cold"),
        )
        if report.get(flag) is not True
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--m", type=int, default=400_000)
    parser.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--ci", action="store_true",
        help="shrunk graph for the CI report and correctness check",
    )
    parser.add_argument(
        "--output", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_index.json",
    )
    args = parser.parse_args()
    if args.ci:
        args.n, args.m = 8_000, 64_000
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        report = measure_index(
            n=args.n,
            m=args.m,
            depth=args.depth,
            seed=args.seed,
            snapshot_dir=pathlib.Path(scratch) / "snap",
        )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    failures = correctness_failures(report)
    for failure in failures:
        print(f"::error::bench_index: {failure}")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
