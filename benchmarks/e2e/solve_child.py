"""The solve-cold workload's child: the library alone, the way the paper times it.

    python benchmarks/e2e/solve_child.py IN.json OUT.json

``IN.json`` names the edge and weight files, ``kmax``, the seed, the run
length, the set-ups per pass and an optional spans path.  Set-up is
loading the graph files and warming the CSR.  The timed loop makes
sequential cold ``top_r_communities`` calls -- no service, engine pool,
cache or index -- in whole passes over :func:`inputs.solve_cold_queries`,
each in a seeded order, until the run length has passed.  Later passes
must return what the first did; after the timed loop each answer is
certified against the graph with ``certify_result_set``, the check behind
``repro verify``.  Timings (one row of per-query latencies per pass, in
list order), the answer digest and the child's own peak RSS go to
``OUT.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

from inputs import digest, key_of, solve_cold_queries, to_query
from server import proc_vm_hwm_mb
from speed import Speed

import repro.influential.api as api
from repro.errors import CertificationError
from repro.graphs.io import load_edge_list, load_weights
from repro.hardness.certificates import certify_result_set
from repro.serving.http import result_payload_v1


def load_graph(edges: str, weights: str):
    graph, __ = load_edge_list(edges)
    graph = graph.with_weights(load_weights(weights, graph.n))
    graph.csr  # noqa: B018 -- warming the CSR is part of set-up
    return graph


def shape_problems(graph, body: dict, result) -> list[str]:
    """What is wrong with one answer, judged from the graph alone."""
    query = to_query(body)
    problems = []
    if len(result) > query.r:
        problems.append(f"{len(result)} answers for r={query.r}")
    try:
        certify_result_set(
            graph,
            result,
            k=query.k,
            s=query.s,
            non_overlapping=query.non_overlapping,
        )
    except CertificationError as error:
        problems.append(str(error))
    return [f"{key_of(body)}: {p}" for p in problems]


def timed_load(spec: dict):
    started = time.perf_counter()
    graph = load_graph(spec["edges"], spec["weights"])
    return graph, time.perf_counter() - started


def main(in_path: str, out_path: str) -> int:
    with open(in_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    graph, seconds = timed_load(spec)
    setups = [seconds]

    tracer = None
    if spec["spans"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    queries = solve_cold_queries(spec["kmax"])
    keys = [key_of(body) for body in queries]
    kwargs = [to_query(body).solver_kwargs() for body in queries]
    rng = np.random.default_rng(spec["seed"])
    first: dict[str, object] = {}
    changed: list[str] = []
    passes: list[list[float]] = []
    speed = Speed()
    # Whole passes only: a run that stopped mid-pass timed a random subset
    # of the list, and per-query costs differ by 100x.  A set-up follows
    # each pass, outside the timed loop: one load takes ~30 ms, and a
    # batch of them run together fell inside a single slow stretch of the
    # machine, so their median moved 60% between runs.
    budget_ns = int(spec["seconds"] * 1e9)
    started = time.perf_counter_ns()
    paused = 0
    while time.perf_counter_ns() - started - paused < budget_ns:
        latencies = [0.0] * len(queries)
        passes.append(latencies)
        for done, index in enumerate(rng.permutation(len(queries)), 1):
            t0 = time.perf_counter_ns()
            result = api.top_r_communities(graph, **kwargs[index])
            t1 = time.perf_counter_ns()
            latencies[index] = (t1 - t0) / 1e9
            key = keys[index]
            if key not in first:
                first[key] = result
            elif first[key] != result:
                changed.append(f"{key}: answer changed between passes")
            if done % spec["probe_every"] == 0:
                speed.probe()
                paused += time.perf_counter_ns() - t1
        t0 = time.perf_counter_ns()
        for __ in range(spec["setups_per_pass"]):
            speed.probe()
            setups.append(timed_load(spec)[1])
        paused += time.perf_counter_ns() - t0
    ended = time.perf_counter_ns()

    problems = changed
    answers = {}
    for body, key in zip(queries, keys):
        problems += shape_problems(graph, body, first[key])
        payload = result_payload_v1(to_query(body), first[key])
        answers[key] = json.dumps(payload).encode("utf-8")
    out = {
        "setup_s": statistics.median(setups),
        "setups": len(setups),
        "passes_s": passes,
        "probe_s": speed.fastest_s,
        "probes": speed.probes,
        "window_ns": [started, ended],
        "wall_s": (ended - started - paused) / 1e9,
        "digest": digest(answers),
        "problems": problems,
        "rss_peak_mb": proc_vm_hwm_mb(os.getpid()),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    if tracer is not None:
        tracer.dump(spec["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
