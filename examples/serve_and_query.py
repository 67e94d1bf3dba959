"""Serve top-r queries over HTTP, then restart instantly from a snapshot.

The deployment story in one self-contained script:

1. stand up a :class:`~repro.serving.service.QueryService` on the email
   stand-in and expose it over HTTP (the same server ``repro serve``
   runs, hosted here on a background thread);
2. answer single queries, a batch, and a weight update through plain
   ``http.client`` requests against the ``/v1`` routes — any HTTP
   client works the same way;
3. save a snapshot, "restart" by loading a second service from it, and
   show the reload recomputes nothing yet answers identically.

Run:  python examples/serve_and_query.py
"""

from __future__ import annotations

import http.client
import json
import tempfile
import time
from pathlib import Path

from repro.graphs.generators.snap_like import snap_like_graph
from repro.serving import (
    QueryService,
    load_service,
    run_server_in_thread,
    save_snapshot,
)


def call(base_url: str, method: str, path: str, payload=None):
    connection = http.client.HTTPConnection(
        base_url.removeprefix("http://"), timeout=120
    )
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return json.loads(response.read())
    finally:
        connection.close()


def describe(echo: dict) -> str:
    """One line for the normalized query a v1 response echoes."""
    line = f"k={echo['k']} r={echo['r']} f={echo['f']}"
    if echo["options"]["eps"]:
        line += f" eps={echo['options']['eps']:g}"
    return line


def main() -> None:
    graph = snap_like_graph("email")
    service = QueryService(graph)

    with run_server_in_thread(service) as base_url:
        print(f"serving {graph} at {base_url}\n")

        print("[1] GET /v1/healthz:")
        print("   ", call(base_url, "GET", "/v1/healthz"))

        print("\n[2] POST /v1/query — one top-3 search under sum, k=4:")
        answer = call(base_url, "POST", "/v1/query", {"k": 4, "r": 3, "f": "sum"})
        print(f"    {describe(answer['query'])} -> values {answer['values']}")

        print("\n[3] POST /v1/batch — a mixed workload, answered in order:")
        batch = call(base_url, "POST", "/v1/batch", {"queries": [
            {"k": 4, "r": 3, "f": "sum"},          # repeated: cache hit
            {"k": 5, "r": 2, "f": "sum", "options": {"eps": 0.1}},
            {"k": 4, "r": 2, "f": "min"},
        ]})
        for entry in batch["results"]:
            print(f"    {describe(entry['query'])} -> {entry['values']}")

        print("\n[4] POST /v1/update-weights — results invalidate, topology caches survive:")
        reweighted = call(base_url, "POST", "/v1/update-weights", {
            "weights": [1.0] * graph.n,
        })
        print("   ", reweighted)
        answer = call(base_url, "POST", "/v1/query", {"k": 4, "r": 3, "f": "sum"})
        print(f"    after reweight: values {answer['values']}")

        stats = call(base_url, "GET", "/v1/stats")
        print(f"\n[5] GET /v1/stats: cache {stats['result_cache']}, "
              f"http {stats['http']}")

    print("\n[6] snapshot save -> load: restart without recomputing")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "snapshot"
        save_snapshot(service, target)
        start = time.perf_counter()
        restarted = load_service(target)   # mmapped arrays, no re-peel
        elapsed = time.perf_counter() - start
        print(f"    reloaded n={restarted.graph.n}, m={restarted.graph.m}, "
              f"kmax={restarted.kmax} in {elapsed * 1e3:.1f} ms")
        same = restarted.submit({"k": 4, "r": 3, "f": "sum"})
        print(f"    served identically after restart: values {same.values()}")


if __name__ == "__main__":
    main()
