"""Label-constrained queries and the analytics surface, over the v1 API.

The constrained-search story in one self-contained script:

1. build a collaboration network with three labeled project teams
   (``team:graphs`` / ``team:systems`` / ``team:ml``) embedded in a
   random background, snapshot it, and serve the *restored* snapshot
   over HTTP;
2. ``POST /v1/query`` with a ``constraints.labels`` predicate — search
   prunes to matching vertices *before* expansion, and the response
   echoes the normalized envelope, ready to resubmit verbatim;
3. ask the analytics endpoints who leads each team
   (``/v1/analytics/leaders``) and how far its influence reaches
   (``/v1/analytics/reach``) — answered from the warm query cache;
4. show the structured error envelope a malformed request gets.

Run:  python examples/constrained_analytics.py
"""

from __future__ import annotations

import http.client
import json
import tempfile

from repro.graphs.builder import graph_from_edges
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.serving import (
    QueryService,
    load_service,
    run_server_in_thread,
    save_snapshot,
)
from repro.utils.rng import make_rng

TEAMS = ("team:graphs", "team:systems", "team:ml")
TEAM_SIZE = 12


def collaboration_graph(n: int = 300, m: int = 1200, seed: int = 11):
    """A G(n, m) background with three dense labeled team blocks.

    Members of different teams only ever collaborate through shared
    ``staff`` — so under a ``team:`` constraint the teams are three
    separate communities, not one merged block.
    """
    rng = make_rng(seed)
    labels = ["staff"] * n
    for t, team in enumerate(TEAMS):
        for v in range(t * TEAM_SIZE, (t + 1) * TEAM_SIZE):
            labels[v] = team
    edges = {
        (u, v)
        for u, v in gnm_random_graph(n, m, seed=seed).edges()
        if labels[u] == "staff" or labels[v] == "staff"
        or labels[u] == labels[v]
    }
    for t in range(len(TEAMS)):
        block = range(t * TEAM_SIZE, (t + 1) * TEAM_SIZE)
        for i in block:
            for j in block:
                if i < j and rng.random() < 0.7:
                    edges.add((i, j))
    graph = graph_from_edges(sorted(edges), n=n)
    weights = rng.uniform(0.0, 10.0, n)
    weights[: len(TEAMS) * TEAM_SIZE] += 10.0  # teams out-weigh the floor
    return graph.with_weights(weights).with_labels(labels)


def call(base_url: str, method: str, path: str, payload=None):
    """Returns (status, parsed JSON body)."""
    connection = http.client.HTTPConnection(
        base_url.removeprefix("http://"), timeout=120
    )
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def main() -> None:
    graph = collaboration_graph()

    with tempfile.TemporaryDirectory() as tmp:
        print("[0] snapshot the labeled graph, then serve the restored copy:")
        snapshot = f"{tmp}/collab-snapshot"
        save_snapshot(QueryService(graph), snapshot)
        service = load_service(snapshot)  # labels survive the round-trip
        print(f"    {graph} restored from {snapshot.split('/')[-1]}")

        with run_server_in_thread(service) as base_url:
            print(f"    serving at {base_url}\n")

            print("[1] POST /v1/query — top teams under sum, members only:")
            envelope = {
                "k": 4,
                "r": 3,
                "f": "sum",
                "non_overlapping": True,
                "constraints": {"labels": {"prefix": "team:"}},
                "options": {"method": "improved"},
            }
            __, answer = call(base_url, "POST", "/v1/query", envelope)
            print(f"    api_version={answer['api_version']} "
                  f"count={answer['count']}")
            print(f"    values={[round(v, 2) for v in answer['values']]}")
            print(f"    normalized echo: {json.dumps(answer['query'])}")

            print("\n[2] the echo resubmits verbatim (idempotent cache hit):")
            __, again = call(
                base_url, "POST", "/v1/query", answer["query"]
            )
            print(f"    identical: {again == answer}")

            print("\n[3] POST /v1/analytics/leaders — who anchors each team:")
            __, leaders = call(
                base_url, "POST", "/v1/analytics/leaders",
                {"query": envelope, "deputies": 2},
            )
            names = graph.labels
            for entry in leaders["leaders"]:
                lead = entry["leader"]
                deputy_ids = [d["vertex"] for d in entry["deputies"]]
                print(f"    #{entry['rank']} {names[lead['vertex']]:<13} "
                      f"size={entry['size']} leader=v{lead['vertex']} "
                      f"(w={lead['weight']:.2f}) deputies={deputy_ids}")

            print("\n[4] POST /v1/analytics/reach — influence horizon:")
            __, reach = call(
                base_url, "POST", "/v1/analytics/reach",
                {"query": envelope, "hops": 2},
            )
            for entry in reach["reach"]:
                print(f"    #{entry['rank']} reach% by hop: "
                      f"{entry['reach_pct']}")

            print("\n[5] errors are structured — a misplaced tuning knob:")
            status, error = call(
                base_url, "POST", "/v1/query",
                {"k": 4, "r": 3, "method": "naive"},
            )
            print(f"    HTTP {status}: code={error['error']['code']}")
            print(f"    detail: {error['error']['detail']}")


if __name__ == "__main__":
    main()
