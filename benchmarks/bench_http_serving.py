"""HTTP serving: throughput + latency under a concurrent client, and the
snapshot cold-start win.

Two measurements on the PR 3 mixed 200-query workload (same catalogue and
Zipf-ish popularity as ``bench_serving.py``):

* **HTTP throughput/latency** — a :class:`~repro.serving.http.ServingApp`
  hosted in-process answers the workload fired by N concurrent keep-alive
  client threads; reported as queries/sec plus p50/p99 per-request
  latency, against the sequential cold :func:`~repro.influential.api
  .top_r_communities` baseline.  Every HTTP payload is diffed against a
  payload built from the cold run (``results_agree``), extending the
  serving layer's byte-identical guarantee across the wire.
* **Cold start** — time-to-ready for a fresh service (CSR arrays →
  validated graph → core decomposition) versus
  :func:`~repro.serving.store.load_service` on a saved snapshot (mmapped
  arrays, decompositions injected).  This is the restart path a deployed
  server takes.

Client threads share the server's process, so figures include client-side
JSON/GIL overhead — a deliberately conservative setup that still shows
the serving win.

``python benchmarks/bench_http_serving.py`` writes
``BENCH_http_serving.json``; ``--ci`` shrinks the graph for CI, which
uploads the report.  The run exits 1 when an HTTP payload disagrees with
its cold twin.  The speedups are gated by the experiment grid's ``http``
and ``snapshot`` tiers (``repro bench grid``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import pathlib
import queue
import sys
import threading
import time

import numpy as np

from repro.influential.api import top_r_communities
from repro.serving.http import (
    ServingApp,
    query_envelope,
    result_payload_v1,
    run_server_in_thread,
)
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService
from repro.serving.store import load_service, save_snapshot

WORKLOAD_SIZE = 200
DEFAULT_CLIENTS = 8


def _build_workload(graph, seed: int, size: int) -> list[InfluentialQuery]:
    """The bench_serving catalogue (import works standalone and under pytest)."""
    here = str(pathlib.Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
    from bench_serving import build_workload

    return build_workload(graph, seed=seed, size=size)


def _weighted_gnm(n: int, m: int, seed: int):
    from repro.graphs.generators.random_graphs import gnm_random_graph
    from repro.utils.rng import make_rng

    graph = gnm_random_graph(n, m, seed=seed)
    graph = graph.with_weights(make_rng(seed + 1).uniform(0.0, 100.0, graph.n))
    graph.csr  # warm: per-graph cost, kept out of both sides of the measure
    return graph


# ----------------------------------------------------------------------
# pytest-benchmark entries (representative dataset)
# ----------------------------------------------------------------------
def test_bench_http_cached_query_email(benchmark, email):
    """Round-trip cost of a cache-hit query over real HTTP."""
    benchmark.group = "http-serving"
    service = QueryService(email)
    with run_server_in_thread(service) as base_url:
        host = base_url.removeprefix("http://")
        connection = http.client.HTTPConnection(host, timeout=60)
        body = json.dumps({"k": 4, "r": 5, "f": "sum"})

        def round_trip():
            connection.request("POST", "/v1/query", body=body)
            response = connection.getresponse()
            return json.loads(response.read())

        round_trip()  # populate the cache; the measure is serving overhead
        payload = benchmark(round_trip)
        connection.close()
    assert payload["count"] >= 1


def test_http_workload_matches_cold_on_email(email):
    workload = _build_workload(email, seed=5, size=30)
    service = QueryService(email)
    with run_server_in_thread(service) as base_url:
        host = base_url.removeprefix("http://")
        connection = http.client.HTTPConnection(host, timeout=120)
        for query in workload:
            connection.request(
                "POST", "/v1/query", body=json.dumps(query_envelope(query))
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            cold = top_r_communities(email, **query.solver_kwargs())
            assert payload == result_payload_v1(query, cold)
        connection.close()


# ----------------------------------------------------------------------
# Standalone measurement
# ----------------------------------------------------------------------
def _client_worker(
    host: str,
    jobs: "queue.Queue[tuple[int, InfluentialQuery] | None]",
    payloads: list,
    latencies: list,
) -> None:
    connection = http.client.HTTPConnection(host, timeout=600)
    try:
        while True:
            job = jobs.get()
            if job is None:
                return
            index, query = job
            body = json.dumps(query_envelope(query))
            start = time.perf_counter()
            connection.request("POST", "/v1/query", body=body)
            response = connection.getresponse()
            payload = json.loads(response.read())
            latencies[index] = time.perf_counter() - start
            payloads[index] = payload
            if response.status != 200:
                raise RuntimeError(f"HTTP {response.status}: {payload}")
    finally:
        connection.close()


def measure_http_serving(
    n: int = 8_000,
    m: int = 64_000,
    size: int = WORKLOAD_SIZE,
    seed: int = 7,
    clients: int = DEFAULT_CLIENTS,
    snapshot_dir: "pathlib.Path | None" = None,
) -> dict:
    """Cold-sequential vs served-over-HTTP timings, as a JSON-ready dict."""
    import tempfile

    graph = _weighted_gnm(n, m, seed)
    workload = _build_workload(graph, seed=seed + 2, size=size)
    distinct = len({q.cache_key() for q in workload})

    # -- baseline: the same workload as sequential cold library calls ----
    start = time.perf_counter()
    cold = [top_r_communities(graph, **q.solver_kwargs()) for q in workload]
    cold_seconds = time.perf_counter() - start
    expected = [
        result_payload_v1(query, result)
        for query, result in zip(workload, cold)
    ]

    # -- cold start: fresh build vs snapshot restore ---------------------
    csr = graph.csr
    start = time.perf_counter()
    from repro.graphs.builder import graph_from_csr_arrays

    rebuilt = graph_from_csr_arrays(
        csr.indptr, csr.indices, graph.weights, labels=graph.labels
    )
    fresh_service = QueryService(rebuilt)
    fresh_seconds = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        target = pathlib.Path(snapshot_dir or tmp) / "snapshot"
        save_snapshot(fresh_service, target)
        start = time.perf_counter()
        service = load_service(target)
        snapshot_seconds = time.perf_counter() - start

        # -- HTTP: concurrent clients over keep-alive connections --------
        app = ServingApp(service)
        payloads: list = [None] * len(workload)
        latencies: list = [None] * len(workload)
        jobs: "queue.Queue" = queue.Queue()
        with run_server_in_thread(app) as base_url:
            host = base_url.removeprefix("http://")
            threads = [
                threading.Thread(
                    target=_client_worker,
                    args=(host, jobs, payloads, latencies),
                    daemon=True,
                )
                for __ in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for job in enumerate(workload):
                jobs.put(job)
            for __ in threads:
                jobs.put(None)
            for thread in threads:
                thread.join()
            http_seconds = time.perf_counter() - start

    agree = payloads == expected
    latency_ms = np.asarray(latencies, dtype=np.float64) * 1e3
    report = {
        "benchmark": "http_serving",
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
        "http": {
            "clients": clients,
            "seconds": round(http_seconds, 4),
            "qps": round(len(workload) / http_seconds, 2),
            "latency_p50_ms": round(float(np.percentile(latency_ms, 50)), 3),
            "latency_p99_ms": round(float(np.percentile(latency_ms, 99)), 3),
            "coalesced": app.coalesced,
        },
        "speedup": round(cold_seconds / http_seconds, 2),
        "cold_start": {
            "fresh_build_seconds": round(fresh_seconds, 4),
            "snapshot_load_seconds": round(snapshot_seconds, 4),
            "speedup": round(fresh_seconds / snapshot_seconds, 2),
        },
        "results_agree": agree,
        "service_stats": service.stats(),
    }
    return report


def correctness_failures(report: dict) -> list[str]:
    """Every way ``report`` shows a fast path disagreeing with its oracle."""
    if report.get("results_agree") is not True:
        return ["HTTP results disagree with cold run"]
    return []


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8_000)
    parser.add_argument("--m", type=int, default=64_000)
    parser.add_argument("--size", type=int, default=WORKLOAD_SIZE)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--clients", type=int, default=DEFAULT_CLIENTS,
        help="concurrent HTTP client threads",
    )
    parser.add_argument(
        "--ci", action="store_true",
        help="shrunk graph for the CI report and correctness check",
    )
    parser.add_argument(
        "--output", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_http_serving.json",
    )
    args = parser.parse_args()
    if args.ci:
        args.n, args.m = 2_000, 16_000
    report = measure_http_serving(
        n=args.n, m=args.m, size=args.size, seed=args.seed,
        clients=args.clients,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    failures = correctness_failures(report)
    for failure in failures:
        print(f"::error::bench_http_serving: {failure}")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
