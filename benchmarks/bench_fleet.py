"""Serving fleet: multi-process qps scaling, per-worker RSS, shed tails.

Four measurements, all on the PR 3 mixed-workload catalogue:

* **Fleet scaling** — the same concurrent HTTP workload fired at fleets
  of 1, 2, and 4 members (one shared-memory substrate, SO_REUSEPORT or
  the proxy fallback), reported as qps + p50/p99 per member count, with
  every payload diffed against a cold solve (byte-identical bar).  The
  scaling ratio is qps(max members) / qps(1) — on a multi-core box this
  should approach the member count for solver-bound workloads; the
  report records ``cpus`` so a 1-CPU runner's flat ratio reads as what
  it is, not a regression.
* **Per-worker RSS** — two spawn-context children report their RSS: a
  control (interpreter + imports only) and one that runs a fleet
  member's start path (attach the substrate, ``build_service`` over
  lazy adjacency and shared views).  Its overhead over control is the
  fleet's per-member footprint.
* **Replication catch-up** — one edge batch POSTed to one member; time
  until a sibling reports ``replication_lag == 0``.
* **Queue bound** — a burst of distinct slow queries against depth-
  bounded and unbounded apps: the bound converts convoy waits into
  503 + Retry-After sheds.

``python benchmarks/bench_fleet.py`` writes ``BENCH_fleet.json``;
``--ci --baseline benchmarks/BENCH_fleet_ci_baseline.json`` is the
gating CI smoke (ratios only; absolute numbers are runner noise).
"""

from __future__ import annotations

import argparse
import http.client
import json
import multiprocessing
import os
import pathlib
import queue
import sys
import threading
import time

import numpy as np

from repro.influential.api import top_r_communities
from repro.serving.fleet import Fleet
from repro.serving.http import (
    ServingApp,
    query_envelope,
    result_payload_v1,
    run_server_in_thread,
)
from repro.serving.query import InfluentialQuery
from repro.serving.service import QueryService
from repro.serving.substrate import SharedSubstrate

WORKLOAD_SIZE = 200
DEFAULT_CLIENTS = 8
DEFAULT_MEMBERS = (1, 2, 4)


def _build_workload(graph, seed: int, size: int) -> list[InfluentialQuery]:
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
    graph.csr  # warm once, outside every measured region
    return graph


# ----------------------------------------------------------------------
# Fleet scaling
# ----------------------------------------------------------------------
def _client_worker(port, jobs, payloads, latencies):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
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


def _fire_workload(port, workload, clients):
    payloads: list = [None] * len(workload)
    latencies: list = [None] * len(workload)
    jobs: "queue.Queue" = queue.Queue()
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(port, jobs, payloads, latencies),
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
    elapsed = time.perf_counter() - start
    return elapsed, payloads, latencies


def measure_fleet_scaling(
    graph, workload, expected, member_counts, clients, tmp: pathlib.Path
) -> dict:
    runs = []
    for members in member_counts:
        service = QueryService(graph)
        fleet = Fleet(
            service,
            members=members,
            log_path=tmp / f"repl-{members}.log",
        )
        fleet.start()
        try:
            # Warm nothing: every member starts cold, exactly like a
            # freshly-forked production fleet.
            elapsed, payloads, latencies = _fire_workload(
                fleet.port, workload, clients
            )
            # Catch-up probe: one mutation, then wait for lag 0 on a
            # (kernel- or proxy-chosen) member.  Insert then delete so
            # the graph ends every run identical.
            catch_start = time.perf_counter()
            connection = http.client.HTTPConnection(
                "127.0.0.1", fleet.port, timeout=60
            )
            connection.request(
                "POST", "/v1/update-edges",
                body=json.dumps({"insert": [[0, 1]]})
                if 1 not in graph.adjacency[0]
                else json.dumps({"delete": [[0, 1]]}),
            )
            connection.getresponse().read()
            lag_deadline = time.time() + 30
            while time.time() < lag_deadline:
                connection.request("GET", "/v1/healthz")
                health = json.loads(connection.getresponse().read())
                if health.get("replication_lag") == 0 and (
                    health.get("replication", {}).get("applied_seq") == 1
                ):
                    break
                time.sleep(0.02)
            connection.close()
            catch_up = time.perf_counter() - catch_start
        finally:
            fleet.stop()
        latency_ms = np.asarray(latencies, dtype=np.float64) * 1e3
        runs.append(
            {
                "members": members,
                "mode": fleet.mode,
                "seconds": round(elapsed, 4),
                "qps": round(len(workload) / elapsed, 2),
                "latency_p50_ms": round(
                    float(np.percentile(latency_ms, 50)), 3
                ),
                "latency_p99_ms": round(
                    float(np.percentile(latency_ms, 99)), 3
                ),
                "results_agree": payloads == expected,
                "catch_up_seconds": round(catch_up, 4),
            }
        )
    base_qps = runs[0]["qps"]
    return {
        "runs": runs,
        "scaling_ratio": round(runs[-1]["qps"] / base_qps, 2),
        "results_agree": all(r["results_agree"] for r in runs),
    }


# ----------------------------------------------------------------------
# Per-worker RSS: control vs substrate attach
# ----------------------------------------------------------------------
def _rss_child(descriptor, pipe) -> None:
    # Spawn-context child: a clean interpreter, so the RSS delta over the
    # control child (no descriptor) is exactly the cost of standing up a
    # fleet member's service; the locals keep it alive while RSS is read.
    from repro.utils.memory import rss_bytes as _rss

    if descriptor is not None:
        attached = SharedSubstrate.attach(descriptor)
        service = attached.build_service()  # noqa: F841
    pipe.send(_rss())
    pipe.close()


def measure_worker_rss(graph) -> dict:
    service = QueryService(graph)
    substrate = SharedSubstrate.publish(service)
    context = multiprocessing.get_context("spawn")
    try:
        results = {}
        jobs = {"control": None, "substrate": substrate.descriptor()}
        for kind, descriptor in jobs.items():
            parent_end, child_end = context.Pipe()
            child = context.Process(
                target=_rss_child, args=(descriptor, child_end)
            )
            child.start()
            results[kind] = int(parent_end.recv())
            child.join(timeout=60)
            parent_end.close()
    finally:
        substrate.unlink()
    return {
        "control_rss_bytes": results["control"],
        "substrate_worker_rss_bytes": results["substrate"],
        "substrate_overhead_bytes": max(
            1, results["substrate"] - results["control"]
        ),
    }


# ----------------------------------------------------------------------
# Queue bound: shed the convoy instead of queueing it
# ----------------------------------------------------------------------
def measure_queue_bound(graph, workload, clients) -> dict:
    distinct = list({q.cache_key(): q for q in workload}.values())

    def _burst(app) -> dict:
        statuses: list = [None] * len(distinct)
        latencies: list = [None] * len(distinct)

        def _one(index, query):
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=600
            )
            try:
                start = time.perf_counter()
                connection.request(
                    "POST", "/v1/query", body=json.dumps(query_envelope(query))
                )
                response = connection.getresponse()
                response.read()
                latencies[index] = time.perf_counter() - start
                statuses[index] = response.status
            finally:
                connection.close()

        with run_server_in_thread(app) as base_url:
            port = int(base_url.rsplit(":", 1)[1])
            threads = [
                threading.Thread(target=_one, args=(i, q), daemon=True)
                for i, q in enumerate(distinct)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
        served = [
            latency * 1e3
            for latency, status in zip(latencies, statuses)
            if status == 200
        ]
        series = np.asarray(served, dtype=np.float64)
        return {
            "requests": len(distinct),
            "served": len(served),
            "shed": app.shed,
            "seconds": round(elapsed, 4),
            "served_p50_ms": round(float(np.percentile(series, 50)), 3),
            "served_p99_ms": round(float(np.percentile(series, 99)), 3),
        }

    depth = max(2, clients // 2)
    unbounded = _burst(ServingApp(QueryService(graph)))
    bounded = _burst(
        ServingApp(QueryService(graph), max_queue_depth=depth)
    )
    return {
        "burst_distinct_queries": len(distinct),
        "max_queue_depth": depth,
        "unbounded": unbounded,
        "bounded": bounded,
        "tail_ratio_unbounded": round(
            unbounded["served_p99_ms"] / max(unbounded["served_p50_ms"], 1e-9),
            2,
        ),
        "tail_ratio_bounded": round(
            bounded["served_p99_ms"] / max(bounded["served_p50_ms"], 1e-9), 2
        ),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure_fleet(
    n: int = 8_000,
    m: int = 64_000,
    size: int = WORKLOAD_SIZE,
    seed: int = 7,
    clients: int = DEFAULT_CLIENTS,
    member_counts=DEFAULT_MEMBERS,
) -> dict:
    import tempfile

    graph = _weighted_gnm(n, m, seed)
    workload = _build_workload(graph, seed=seed + 2, size=size)
    expected = [
        result_payload_v1(
            query, top_r_communities(graph, **query.solver_kwargs())
        )
        for query in workload
    ]
    with tempfile.TemporaryDirectory() as tmp:
        scaling = measure_fleet_scaling(
            graph, workload, expected, member_counts, clients,
            pathlib.Path(tmp),
        )
    rss = measure_worker_rss(graph)
    shed = measure_queue_bound(graph, workload, clients)
    return {
        "benchmark": "fleet",
        "cpus": os.cpu_count(),
        "graph": {"model": "gnm", "n": graph.n, "m": graph.m},
        "workload": {
            "queries": len(workload),
            "distinct": len({q.cache_key() for q in workload}),
            "seed": seed,
            "clients": clients,
        },
        "scaling": scaling,
        "worker_rss": rss,
        "queue_bound": shed,
        "results_agree": scaling["results_agree"],
    }


def compare_to_baseline(
    fresh: pathlib.Path, baseline: pathlib.Path, tolerance: float = 0.7
) -> int:
    """Gating ratio diff: qps scaling, with a served/cold answer
    disagreement failing outright."""
    from baseline_diff import report_ratio_metrics

    fresh_report = json.loads(fresh.read_text())
    base_report = json.loads(baseline.read_text())
    failures = []
    if not fresh_report.get("results_agree", False):
        failures.append("served results disagree with cold run")
    same_shape = (
        fresh_report.get("graph") == base_report.get("graph")
        and fresh_report.get("workload") == base_report.get("workload")
        and fresh_report.get("cpus") == base_report.get("cpus")
    )
    if not same_shape:
        return report_ratio_metrics(
            "bench_fleet",
            [],
            tolerance=tolerance,
            notes=[
                "graph/workload/cpu shapes differ from baseline — ratios "
                "are not comparable, skipped"
            ],
            failures=failures,
        )
    return report_ratio_metrics(
        "bench_fleet",
        [
            (
                "fleet qps scaling",
                fresh_report["scaling"]["scaling_ratio"],
                base_report["scaling"]["scaling_ratio"],
            ),
        ],
        tolerance=tolerance,
        failures=failures,
    )


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
        "--members", type=int, nargs="+", default=list(DEFAULT_MEMBERS),
        help="fleet sizes to sweep (qps scaling = last / first)",
    )
    parser.add_argument(
        "--ci", action="store_true",
        help="shrunk graph + fleet sweep for the gating CI smoke diff",
    )
    parser.add_argument(
        "--output", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_fleet.json",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="after measuring, diff the ratios against this committed "
        "report (gating; a regression past tolerance fails the run)",
    )
    args = parser.parse_args()
    if args.ci:
        args.n, args.m, args.size = 2_000, 16_000, 60
        args.members = [1, 2]
    report = measure_fleet(
        n=args.n, m=args.m, size=args.size, seed=args.seed,
        clients=args.clients, member_counts=tuple(args.members),
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    if args.baseline is not None and args.baseline.exists():
        raise SystemExit(compare_to_baseline(args.output, args.baseline))


if __name__ == "__main__":
    main()
