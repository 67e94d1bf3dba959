"""Edge-update deltas vs full rebuilds: the cost of a changing graph.

Before PR 5, any topology change reset the whole serving stack through
``replace_graph`` — re-copying the adjacency, re-flattening the CSR (the
O(m log m) lexsort plus a Python pass over every set) and re-peeling the
full core decomposition.  This benchmark measures what
:class:`repro.graphs.delta.GraphDelta` buys instead: a single-edge
insert or delete applied through ``QueryService.update_edges`` — patched
CSR arrays, incrementally repaired core numbers, scoped invalidation —
against that rebuild path, on the PR 1/2 reference graph G(50k, 400k).

Every measured update is verified: after the deltas, query results on
the updated service must be byte-identical to cold runs against a
from-scratch rebuild of the final graph, on the CSR engine and on the
reference set engine, and the repaired core numbers must equal the
reference re-decomposition
(``results_agree`` in the report).

``python benchmarks/bench_updates.py`` writes ``BENCH_updates.json``;
``--ci`` shrinks the graph for CI, which uploads the report.  The run
exits 1 when ``results_agree`` is false.  The experiment grid's
``update`` tier gates a write round trip (``repro bench grid``).  The
pytest-benchmark entries below cover the email stand-in.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro import reference
from repro.core.decomposition import core_decomposition
from repro.graphs.builder import graph_from_edges
from repro.graphs.csr import CSRAdjacency
from repro.graphs.delta import GraphDelta
from repro.graphs.graph import Graph
from repro.influential.api import top_r_communities
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService

DEFAULT_EDGES = 8

VERIFY_QUERIES = [
    InfluentialQuery(k=10, r=5, f="sum", eps=0.1),
    InfluentialQuery(k=8, r=3, f="sum-surplus(1)", eps=0.1),
]


# ----------------------------------------------------------------------
# pytest-benchmark entries (representative dataset)
# ----------------------------------------------------------------------
def _flip_edge(graph):
    """A deterministic absent edge between well-connected vertices."""
    degrees = graph.degrees()
    u = int(np.argmax(degrees))
    v = next(
        x for x in np.argsort(degrees)[::-1].tolist()
        if x != u and x not in graph.adjacency[u]
    )
    return (u, v) if u < v else (v, u)


def test_bench_single_edge_delta_email(benchmark, email):
    benchmark.group = "edge-updates"
    service = QueryService(email)
    edge = _flip_edge(email)

    def flip():
        service.update_edges(insert=[edge])
        service.update_edges(delete=[edge])

    benchmark(flip)
    assert service.graph.m == email.m


def test_bench_single_edge_rebuild_email(benchmark, email):
    benchmark.group = "edge-updates"
    service = QueryService(email)
    edge = _flip_edge(email)

    def rebuild():
        service.replace_graph(_rebuilt_with(service.graph, insert=[edge]))
        service.replace_graph(_rebuilt_with(service.graph, delete=[edge]))

    benchmark(rebuild)
    assert service.graph.m == email.m


def test_delta_equals_rebuild_on_email(email):
    edge = _flip_edge(email)
    report = GraphDelta(email).apply(insert=[edge])
    assert np.array_equal(
        report.core_numbers, core_decomposition(report.graph)
    )


# ----------------------------------------------------------------------
# Standalone old-vs-new comparison
# ----------------------------------------------------------------------
def _weighted_gnm(n, m, seed):
    from repro.graphs.generators.random_graphs import gnm_random_graph
    from repro.utils.rng import make_rng

    graph = gnm_random_graph(n, m, seed=seed)
    graph = graph.with_weights(make_rng(seed + 1).uniform(0.0, 100.0, graph.n))
    graph.csr  # noqa: B018 — warm: flattening is per-topology, not per-update
    return graph


def _rebuilt_with(graph, insert=(), delete=()):
    """What the pre-delta world paid: a from-scratch Graph (fresh CSR)."""
    adjacency = [set(neigh) for neigh in graph.adjacency]
    for u, v in delete:
        adjacency[u].discard(v)
        adjacency[v].discard(u)
    for u, v in insert:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return Graph(
        CSRAdjacency.from_adjacency(adjacency),
        graph.weights,
        labels=graph.labels,
        _trusted=True,
    )


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


def _verify(service):
    """Updated-service answers == cold rebuild answers, on the CSR engine
    and on the reference set engine."""
    cold_graph = graph_from_edges(
        [
            (u, v)
            for u in range(service.graph.n)
            for v in service.graph.adjacency[u]
            if u < v
        ],
        weights=service.graph.weights,
        n=service.graph.n,
    )
    if not np.array_equal(
        service.core_numbers, reference.core_decomposition(cold_graph)
    ):
        return False
    for query in VERIFY_QUERIES:
        served = service.submit(query)
        colds = [top_r_communities(cold_graph, **query.solver_kwargs())]
        with reference.set_engine():
            colds.append(top_r_communities(cold_graph, **query.solver_kwargs()))
        for cold in colds:
            if served != cold or served.values() != cold.values():
                return False
    return True


def measure_update_speedups(
    n: int = 50_000,
    m: int = 400_000,
    edges: int = DEFAULT_EDGES,
    seed: int = 7,
) -> dict:
    """Single-edge delta-apply vs replace_graph rebuild, JSON-ready.

    Each sampled edge is inserted then deleted through
    ``update_edges`` (timed separately), and the same topology flips are
    replayed through the old ``replace_graph`` path; reported seconds are
    best-of over the sampled edges, the headline ``speedup`` is the
    *worse* of insert/delete against the rebuild.
    """
    graph = _weighted_gnm(n, m, seed)
    service = QueryService(graph)
    flips = _pick_edges(graph, edges, seed + 2)

    insert_times, delete_times = [], []
    for edge in flips:
        start = time.perf_counter()
        service.update_edges(insert=[edge])
        insert_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        service.update_edges(delete=[edge])
        delete_times.append(time.perf_counter() - start)
    results_agree = _verify(service)

    rebuild_service = QueryService(graph)
    rebuild_times = []
    for edge in flips[: max(2, edges // 2)]:
        start = time.perf_counter()
        rebuild_service.replace_graph(
            _rebuilt_with(rebuild_service.graph, insert=[edge])
        )
        rebuild_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        rebuild_service.replace_graph(
            _rebuilt_with(rebuild_service.graph, delete=[edge])
        )
        rebuild_times.append(time.perf_counter() - start)

    insert_seconds = min(insert_times)
    delete_seconds = min(delete_times)
    rebuild_seconds = min(rebuild_times)
    report = {
        "benchmark": "edge_update_deltas",
        "graph": {"model": "gnm", "n": graph.n, "m": graph.m},
        "parameters": {"edges_sampled": edges, "seed": seed},
        "single_edge": {
            "delta_insert_seconds": round(insert_seconds, 5),
            "delta_delete_seconds": round(delete_seconds, 5),
            "rebuild_seconds": round(rebuild_seconds, 5),
            "insert_speedup": round(rebuild_seconds / insert_seconds, 2),
            "delete_speedup": round(rebuild_seconds / delete_seconds, 2),
        },
        "speedup": round(
            rebuild_seconds / max(insert_seconds, delete_seconds), 2
        ),
        "results_agree": results_agree,
        "service_stats": service.stats(),
    }
    return report


def correctness_failures(report: dict) -> list[str]:
    """Every way ``report`` shows a fast path disagreeing with its oracle."""
    if report.get("results_agree") is not True:
        return ["delta results disagree with cold rebuild"]
    return []


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--m", type=int, default=400_000)
    parser.add_argument("--edges", type=int, default=DEFAULT_EDGES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--ci", action="store_true",
        help="shrunk graph for the CI report and correctness check",
    )
    parser.add_argument(
        "--output", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_updates.json",
    )
    args = parser.parse_args()
    if args.ci:
        args.n, args.m = 8_000, 64_000
    report = measure_update_speedups(
        n=args.n, m=args.m, edges=args.edges, seed=args.seed
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    failures = correctness_failures(report)
    for failure in failures:
        print(f"::error::bench_updates: {failure}")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
