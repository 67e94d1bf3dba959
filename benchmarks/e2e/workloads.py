"""The three workloads: two traffic mixes over ``repro serve``, one library run.

Each ``run_*`` function sets the program up several times (the reported
set-up time is the median), drives the last instance for the run length,
checks the answers and returns a :class:`Run`.  Every workload times one
kind of operation, and ``p50_ms`` is its median: a ``POST /v1/query``
read on serve-zipf, an edge's insert and delete (two ``POST
/v1/update-edges`` writes, their latencies added) on serve-rw, and
one cold ``top_r_communities`` call on solve-cold.  ``miss_ms`` times the
reads or calls that found no cached answer.  Load comes from one client
on one asyncio thread of the bench process, in a closed loop: it sends
its next request when the last one is answered.

The measured phase repeats one fixed *round* -- a seeded script of
operations that leaves the program as it found it -- until the run
length has passed.  Each operation's latency is its fastest over the
rounds (:func:`fastest_ms`), and ``p50_ms`` and ``miss_ms`` are taken over
those.  The machine's speed drifts by tens of percent over seconds to
minutes; the fastest repeat measures the program at the machine's best
moment in the run, where a median over the run measured the drift.  See
README.md for why each workload exists and what it should and should not
move.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import tracing
from inputs import (
    DATASET_SEED,
    Inputs,
    catalogue,
    digest,
    expected_body,
    key_of,
    popularity,
)
from speed import Speed
from tracing import mean, percentile
from server import (
    BENCH_DIR,
    Connection,
    child_env,
    proc_cpu_s,
    proc_vm_hwm_mb,
    request,
    start_server,
)

#: Set-ups per serve run; ``setup_s`` is their median.
SETUPS = 5
#: solve-cold's set-up is a ~30 ms file load: it runs once before the
#: timed loop and this many times after each pass, and reports the median.
COLD_SETUPS_PER_PASS = 5
#: Most popular entries, read once before timing starts (see Traffic).
WARM_KEYS = 100
#: Repeat reads per miss in the serve-zipf round; on serve-rw, background
#: reads per written edge, half before and half after its delete.
REPEATS = 4
#: Edges serve-rw writes in one round.
ROUND_EDGES = 16
#: Timed operations between two probes of the machine's speed (speed.py).
PROBE_EVERY = 10
#: serve-zipf's latency limit for ``read_slo_frac``.
SLO_MS = 1000.0
#: Keys per serve workload checked against a cold solve on the oracle graph.
CHECK_KEYS = 30
#: serve-rw's reads-after-write checked against a cold solve.
CHECK_AFTER_WRITE = 10

#: The end-to-end metrics every workload reports: (name, unit).  Tail
#: percentiles and throughput are printed but not gated: tails spread
#: 20-44% between seeds on a 2-vCPU VM, and one closed-loop client's
#: throughput is the reciprocal of its mean latency (README.md,
#: "Repeatability and bounds").
E2E = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("miss_ms", "ms"),
    ("rss_peak_mb", "MB"),
)

#: The per-layer metrics a traced run reports: (name, unit).  A layer a
#: workload never enters reads 0 there (no HTTP on solve-cold).
#: ``traced.*`` repeat the end-to-end metrics as measured with tracing
#: on; minus the untraced run they are the tracing overhead.
LAYERS = (
    ("http.answer_ms_p50", "ms"),
    ("http.answer_ms_p99", "ms"),
    ("http.serialize_ms_mean", "ms"),
    ("http.response_kb_mean", "KB"),
    ("http.other_ms_mean", "ms"),
    ("http.solve_wait_ms_p99", "ms"),
    ("http.coalesced", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.solver_calls", "count"),
    ("service.solve_ms_p50", "ms"),
    ("service.solve_ms_p99", "ms"),
    ("service.solver_busy_frac", "ratio"),
    ("service.results_dropped_per_write", "count"),
    ("index.serve_calls", "count"),
    ("index.hit_ratio", "ratio"),
    ("index.serve_ms_p99", "ms"),
    ("index.level_builds", "count"),
    ("setup.snapshot_save_s", "s"),
    ("setup.index_build_s", "s"),
    ("setup.serve_ready_s", "s"),
    ("engine_pool.structure_for_calls", "count"),
    ("engine_pool.structure_for_busy_s", "s"),
    ("engine_pool.structure_hit_ratio", "ratio"),
    ("engine_pool.apply_update_ms_mean", "ms"),
    ("engine_pool.structures_dropped_per_write", "count"),
    ("influential.tic_improved_busy_s", "s"),
    ("influential.local_search_busy_s", "s"),
    ("influential.minmax_busy_s", "s"),
    ("influential.expand_calls", "count"),
    ("influential.candidates", "count"),
    ("influential.candidates_per_answer", "ratio"),
    *(
        (f"kernels.{kernel}_{what}", unit)
        for kernel in tracing.KERNELS
        for what, unit in (("calls", "count"), ("busy_s", "s"))
    ),
    ("delta.apply_ms_p50", "ms"),
    ("delta.max_affected_core_mean", "count"),
    ("server.cpu_ms_per_op", "ms"),
    ("trace.self_time_frac", "ratio"),
    *((f"traced.{name}", unit) for name, unit in E2E),
)


@dataclass
class Run:
    """What one run of one workload measured and found."""

    workload: str
    #: End-to-end metric -> (value, unit, samples).
    metrics: dict
    #: Figures printed but not gated: name -> (value, unit, samples).
    extra: dict
    attempted: int
    failed: int
    problems: list
    digest: str
    #: Per-layer metric -> value; filled by traced runs only.
    layers: dict = field(default_factory=dict)


@dataclass
class Sample:
    """One timed request."""

    key: str
    sent: float
    done: float
    status: int
    size: int
    #: Fingerprint of the response body, kept where checks need it.
    body: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


class Answers:
    """The first response per key; any later, different response is a problem."""

    def __init__(self) -> None:
        self.first: dict[str, bytes] = {}
        self.mismatched: set[str] = set()

    def check(self, key: str, body: bytes) -> None:
        if self.first.setdefault(key, body) != body:
            self.mismatched.add(key)

    def problems(self) -> list[str]:
        return [
            f"{key}: responses differ between reads" for key in sorted(self.mismatched)
        ]


def fingerprint(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


def fastest_ms(repeats) -> list[float]:
    """Each operation's fastest answered latency, in ms.

    ``repeats`` holds one sequence of :class:`Sample` per operation of the
    round script: its samples from every round.  An operation never
    answered 200 is left out.
    """
    best = []
    for samples in repeats:
        ok = [s.latency_ms for s in samples if s.status == 200]
        if ok:
            best.append(min(ok))
    return best


def grouped(pairs) -> list[list[Sample]]:
    """The samples of ``(label, sample)`` pairs, grouped by label."""
    groups: dict = {}
    for label, sample in pairs:
        groups.setdefault(label, []).append(sample)
    return list(groups.values())


def e2e_metrics(speed, setup_s, setups, latencies_ms, miss_ms, rss_mb):
    """The end-to-end metrics of one run, and the same times unscaled.

    ``latencies_ms`` are the fastest latencies of the timed operations of
    the round script, and ``miss_ms`` those of the reads or calls that
    found no cached answer (see README.md for each workload's).  The miss
    metric is the mean: miss costs cluster by problem family, and a median
    falling between clusters moved twice as much between seeds.  Times
    are scaled to the reference speed with the run's fastest probe (see
    :mod:`speed`); the second dict holds them as measured.
    """
    times = {
        "setup_s": (setup_s, "s", setups),
        "p50_ms": (percentile(latencies_ms, 50), "ms", len(latencies_ms)),
        "miss_ms": (mean(miss_ms), "ms", len(miss_ms)),
    }
    metrics = {
        name: (speed.scaled(value), unit, n) for name, (value, unit, n) in times.items()
    }
    metrics["rss_peak_mb"] = (rss_mb, "MB", 1)
    measured = {f"unscaled_{name}": value for name, value in times.items()}
    measured["probe_ms"] = (speed.fastest_s * 1e3, "ms", speed.probes)
    return metrics, measured


def raw(latencies_ms, miss_ms) -> dict:
    """``p50_ms`` and ``miss_ms`` over every sample rather than the fastest,
    unscaled."""
    return {
        "raw_p50_ms": (percentile(latencies_ms, 50), "ms", len(latencies_ms)),
        "raw_miss_ms": (mean(miss_ms), "ms", len(miss_ms)),
    }


def throughput(ops: int, wall_s: float) -> dict:
    """Requests or calls answered per second of the measured phase."""
    return {"ops_per_s": (ops / wall_s, "1/s", ops)}


def tail(prefix: str, latencies_ms) -> dict:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    q = 99 if len(latencies_ms) >= 1000 else 90
    return {
        f"{prefix}p{q}_ms": (percentile(latencies_ms, q), "ms", len(latencies_ms))
    }


def ok_latencies(samples: list[Sample]) -> list[float]:
    return [s.latency_ms for s in samples if s.status == 200]


# ----------------------------------------------------------------------
# Load generation (one asyncio thread)
# ----------------------------------------------------------------------
class Traffic:
    """The catalogue, its fixed popularity, and a seeded read round over it.

    The catalogue's k values alternate between *hit ks* and *miss ks*.  The
    :data:`WARM_KEYS` most popular entries at hit ks are read once before
    timing starts, and stay cached.  A round holds one miss per (miss k,
    family) pair and :data:`REPEATS` Zipf-drawn reads of warmed entries
    per miss, in seeded order.  After each round the client drops the
    cached answers at the miss ks (``POST /v1/invalidate``), so every round
    makes the same misses, each reaching the index and the solver again.
    The misses (each pair's r) and the repeat reads are fixed with the
    dataset; the seed draws the order.  Per-entry solve costs span two orders
    of magnitude: drawing the misses freely from the Zipf tail made every
    latency past the median differ by 30-60% between seeds.
    """

    def __init__(self, inputs: Inputs, seed: int) -> None:
        self.entries = catalogue(inputs.kmax)
        self.bodies = [json.dumps(entry).encode("utf-8") for entry in self.entries]
        self.keys = [key_of(entry) for entry in self.entries]
        self.index_of = {key: index for index, key in enumerate(self.keys)}
        self.popularity = popularity(len(self.entries))
        ks = sorted({entry["k"] for entry in self.entries})
        self.miss_ks = ks[0::2]
        hit_ks = set(ks[1::2])
        ranked = np.argsort(-self.popularity, kind="stable")
        self.warm = [int(i) for i in ranked if self.entries[i]["k"] in hit_ks]
        self.warm = self.warm[:WARM_KEYS]
        pairs: dict[str, list[int]] = {}
        for index, entry in enumerate(self.entries):
            if entry["k"] in self.miss_ks:
                family = {name: value for name, value in entry.items() if name != "r"}
                pairs.setdefault(key_of(family), []).append(index)
        fixed = np.random.default_rng([DATASET_SEED, 1])
        self.misses = [int(fixed.choice(members)) for members in pairs.values()]
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])

    def picks(self, count: int, among, rng=None) -> list[int]:
        """``count`` Zipf draws among the entries ``among``, by ``rng`` or
        else the seeded one."""
        pool = np.asarray(among)
        weights = self.popularity[pool] / self.popularity[pool].sum()
        drawn = (rng or self.rng).choice(len(pool), size=count, p=weights)
        return [int(i) for i in pool[drawn]]

    def round_script(self) -> list[int]:
        """The entries one round reads, in order (see the class doc).

        Which entries are read is fixed with the dataset; the seed orders
        them.  With seeded repeat reads, the median read of a run landed
        on larger or smaller cached answers by the draw, and ``p50_ms``
        spread 13% between seeds.
        """
        fixed = np.random.default_rng([DATASET_SEED, 2])
        reads = self.misses + self.picks(REPEATS * len(self.misses), self.warm, fixed)
        return [reads[i] for i in self.rng.permutation(len(reads))]

    def check_keys(self, among) -> list[int]:
        """A seeded sample of :data:`CHECK_KEYS` distinct entries of ``among``."""
        pool = sorted(set(among))
        rng = np.random.default_rng([self.seed, 2])
        chosen = rng.choice(pool, size=min(CHECK_KEYS, len(pool)), replace=False)
        return sorted(int(i) for i in chosen)

    async def read(self, connection, index, answers=None, keep=False):
        """One timed read; ``keep`` stores the body's fingerprint."""
        sent = time.perf_counter()
        status, body = await connection.request(
            "POST", "/v1/query", self.bodies[index]
        )
        done = time.perf_counter()
        key = self.keys[index]
        if answers is not None and status == 200:
            answers.check(key, body)
        kept = fingerprint(body) if keep else b""
        return Sample(key, sent, done, status, len(body), kept)


async def closed_loop(
    port, traffic, picks, answers, forget=(), speed=None
) -> list[Sample]:
    """One connection reading the ``picks`` back to back, then dropping
    the cached answers at each k in ``forget``.  With ``speed``, the
    machine is probed after every :data:`PROBE_EVERY` reads."""
    connection = Connection(port)
    try:
        samples = []
        for index in picks:
            samples.append(await traffic.read(connection, index, answers))
            if speed is not None and len(samples) % PROBE_EVERY == 0:
                speed.probe()
        for k in forget:
            body = json.dumps({"k": k}).encode("utf-8")
            status, __ = await connection.request("POST", "/v1/invalidate", body)
            if status != 200:
                raise RuntimeError(f"POST /v1/invalidate k={k} answered {status}")
        return samples
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Serve-workload plumbing
# ----------------------------------------------------------------------
def set_up(workdir: pathlib.Path, inputs: Inputs, traced: bool, speed: Speed):
    """Start :data:`SETUPS` servers in turn, keep the last; median timings.
    The machine is probed before each set-up."""
    timings = []
    server = None
    for attempt in range(SETUPS):
        if server is not None:
            server.stop()
        speed.probe()
        server, timing = start_server(
            workdir / "snapshot", inputs, traced, str(attempt)
        )
        timings.append(timing)
    return server, {
        name: statistics.median(t[name] for t in timings) for name in timings[0]
    }


def get_stats(port: int) -> dict:
    status, body = request(port, "GET", "/v1/stats")
    if status != 200:
        raise RuntimeError(f"GET /v1/stats answered {status}")
    return json.loads(body)


def stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Server counters moved during the measured phase."""

    def diff(*path: str) -> float:
        a, b = before, after
        for part in path:
            a, b = (a or {}).get(part) or 0, (b or {}).get(part) or 0
        return float(b) - float(a)

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "http.coalesced": diff("http", "coalesced"),
        "service.cache_hit_ratio": ratio(
            diff("result_cache", "hits"), diff("result_cache", "misses")
        ),
        "service.cache_evictions": diff("result_cache", "evictions"),
        "service.solver_calls": diff("solver_calls"),
        "index.level_builds": diff("index", "builds"),
        "engine_pool.structure_hit_ratio": ratio(
            diff("engine_pool", "structure_hits"),
            diff("engine_pool", "structure_misses"),
        ),
    }


def verify_keys(port, traffic, indices, graph, answers) -> tuple[str, list]:
    """Ask for each entry once more; each answer must equal a cold solve."""

    async def fetch() -> list[tuple[int, bytes]]:
        connection = Connection(port)
        try:
            return [
                await connection.request("POST", "/v1/query", traffic.bodies[index])
                for index in indices
            ]
        finally:
            connection.close()

    problems, seen = [], {}
    for index, (status, body) in zip(indices, asyncio.run(fetch())):
        key = traffic.keys[index]
        if status != 200:
            problems.append(f"{key}: check read answered {status}")
            continue
        answers.check(key, body)
        if body != expected_body(graph, traffic.entries[index]):
            problems.append(f"{key}: differs from a cold top_r_communities call")
        seen[key] = body
    return digest(seen), problems


class Phase:
    """The measured phase of a serve run: its window, counters and CPU."""

    def __init__(self, server) -> None:
        self.server = server

    def __enter__(self) -> "Phase":
        self.stats = get_stats(self.server.port)
        self.cpu = proc_cpu_s(self.server.proc.pid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if exc[0] is None:
            self.stats = stats_delta(self.stats, get_stats(self.server.port))
            self.cpu = proc_cpu_s(self.server.proc.pid) - self.cpu

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def window_ns(self) -> tuple[int, int]:
        return int(self.start * 1e9), int(self.end * 1e9)


def serve_layers(server, phase, setup, reads, ops, writes=()) -> dict:
    """The per-layer numbers of a traced serve run's measured phase."""
    spans = tracing.window(tracing.load(server.spans)["spans"], *phase.window_ns)
    out = tracing.layer_metrics(spans, phase.wall)
    out.update(phase.stats)
    ok = [s for s in reads if s.status == 200]
    answer_ms = mean([(s[4] - s[3]) / 1e6 for s in spans if s[2] == "http.answer"])
    out["http.response_kb_mean"] = mean([s.size / 1024 for s in ok])
    out["http.other_ms_mean"] = (
        mean([(s.done - s.sent) * 1e3 for s in ok])
        - answer_ms
        - out["http.serialize_ms_mean"]
        if ok
        else 0.0
    )
    for name, field_name in (
        ("service.results_dropped_per_write", "results_dropped"),
        ("engine_pool.structures_dropped_per_write", "structures_dropped"),
        ("delta.max_affected_core_mean", "max_affected_core"),
    ):
        out[name] = mean([write[field_name] for write in writes])
    for name, value in setup.items():
        if name != "setup_s":
            out[f"setup.{name}"] = value
    out["server.cpu_ms_per_op"] = phase.cpu * 1e3 / ops if ops else 0.0
    out.update(expansion_metrics(spans))
    return out


def expansion_metrics(spans) -> dict:
    expands = [s for s in spans if s[2] == "influential.expand"]
    candidates = float(sum(s[7] for s in expands))
    solves = ("service.top_r", "solve.top_r", "index.top_r")  # the last: level builds
    answered = sum(s[7] for s in spans if s[2] in solves and s[7] > 0)
    return {
        "influential.expand_calls": float(len(expands)),
        "influential.candidates": candidates,
        "influential.candidates_per_answer": candidates / answered if answered else 0.0,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_serve_zipf(inputs, workdir, seconds, seed, traced) -> Run:
    """A user reading the Zipf mix: one closed-loop client, whole rounds."""
    traffic = Traffic(inputs, seed)
    script = traffic.round_script()
    speed = Speed()
    server, setup = set_up(workdir, inputs, traced, speed)
    answers = Answers()
    rounds: list[list[Sample]] = []
    with server:
        asyncio.run(closed_loop(server.port, traffic, traffic.warm, answers))
        with Phase(server) as phase:
            while time.perf_counter() - phase.start < seconds:
                rounds.append(
                    asyncio.run(
                        closed_loop(
                            server.port,
                            traffic,
                            script,
                            answers,
                            traffic.miss_ks,
                            speed,
                        )
                    )
                )
        answers_digest, problems = verify_keys(
            server.port, traffic, traffic.check_keys(script), inputs.graph, answers
        )
        rss = proc_vm_hwm_mb(server.proc.pid)
    problems += answers.problems()
    samples = [sample for samples in rounds for sample in samples]
    missed = {traffic.keys[index] for index in traffic.misses}
    by_op = list(zip(*rounds))
    best = fastest_ms(by_op)
    best_misses = fastest_ms(ops for ops in by_op if ops[0].key in missed)
    ok = ok_latencies(samples)
    misses = ok_latencies([s for s in samples if s.key in missed])
    within = sum(1 for latency in ok if latency <= SLO_MS)
    metrics, measured = e2e_metrics(
        speed, setup["setup_s"], SETUPS, best, best_misses, rss
    )
    run = Run(
        "serve-zipf",
        metrics,
        {
            **measured,
            **raw(ok, misses),
            **throughput(len(ok), phase.wall),
            **tail("", ok),
            "read_slo_frac": (within / len(samples), "ratio", len(samples)),
            "rounds": (float(len(rounds)), "count", len(rounds)),
        },
        len(samples),
        len(samples) - len(ok),
        problems,
        answers_digest,
    )
    if traced:
        run.layers = serve_layers(server, phase, setup, samples, len(ok))
    return run


def non_edges(graph, rng, count: int, below_core: int) -> list[tuple[int, int]]:
    """``count`` distinct random non-edges with an endpoint of core number
    below ``below_core``."""
    from repro.core.decomposition import core_decomposition

    cores = core_decomposition(graph)
    adjacency = graph.adjacency
    chosen: dict[tuple[int, int], None] = {}
    while len(chosen) < count:
        u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
        shallow = min(cores[u], cores[v]) < below_core
        if u != v and shallow and v not in adjacency[u]:
            chosen.setdefault((min(u, v), max(u, v)))
    return list(chosen)


def run_serve_rw(inputs, workdir, seconds, seed, traced) -> Run:
    """Writes next to reads, in one closed loop on one connection.  The
    timed operation is an edge's write cycle: its insert and its delete,
    the latencies of the two requests added.

    A round writes :data:`ROUND_EDGES` random non-edges in turn, the same
    ones in every round.  For each it inserts the edge, makes half of
    :data:`REPEATS` background reads, deletes the edge and makes the other
    half, so a round leaves the graph as it found it.  After an insert
    that reaches the lowest catalogue k, the loop first reads an exact-sum
    entry at that k: the write dropped its cached answer and its index
    level, so the read re-captures the level on the solver thread.  These
    reads-after-write are the run's misses.  The delete that follows one
    drops what it re-captured, so deletes cost more than inserts; with
    single writes timed, the median fell between the two groups and
    spread 13% between seeds.

    The background reads are Zipf draws among warmed entries with k above
    h = kmax // 2, and every edge written has an endpoint of core number
    below h.  Such a write changes core numbers only up to h, so the
    background reads stay cache hits, kept by the scoped invalidation.
    When writes invalidated what was read, each write waited out the
    re-solve a read had just set off, and the write median spread 24-33%
    between seeds.
    """
    from repro.graphs.delta import GraphDelta

    traffic = Traffic(inputs, seed)
    half = inputs.kmax // 2
    readable = [i for i in traffic.warm if traffic.entries[i]["k"] > half]
    rng = np.random.default_rng([seed, 3])
    edges = non_edges(inputs.graph, rng, ROUND_EDGES, half)
    lowest_k = min(entry["k"] for entry in traffic.entries)
    exact = [
        index
        for index, entry in enumerate(traffic.entries)
        if entry == {"k": lowest_k, "r": entry["r"], "f": "sum"}
    ]
    after_picks = rng.choice(exact, size=len(edges)).tolist()
    background = [traffic.picks(REPEATS, readable) for __ in edges]
    speed = Speed()
    server, setup = set_up(workdir, inputs, traced, speed)
    writes: list[Sample] = []
    # (edge, ms): one per write cycle both of whose writes answered 200.
    write_cycles: list[tuple] = []
    summaries: list[dict] = []
    # (graph state, sample): the state is the inserted edge, or None.
    reads: list[tuple] = []
    after: list[tuple] = []
    problems: list[str] = []
    rounds = 0

    async def cycles(deadline: float) -> None:
        nonlocal rounds
        connection = Connection(server.port)

        async def write(op: str, edge) -> dict | None:
            body = json.dumps({op: [list(edge)]}).encode("utf-8")
            sent = time.perf_counter()
            status, reply = await connection.request("POST", "/v1/update-edges", body)
            done = time.perf_counter()
            writes.append(Sample(f"{op} {edge}", sent, done, status, len(reply)))
            if status != 200:
                problems.append(f"{op} {edge} answered {status}")
                return None
            summaries.append(json.loads(reply))
            return summaries[-1]

        async def read(state, picks) -> None:
            for index in picks:
                reads.append((state, await traffic.read(connection, index, keep=True)))

        try:
            while time.perf_counter() < deadline:
                for edge, read_after, picks in zip(edges, after_picks, background):
                    # A failed write leaves the graph state unknown: stop there.
                    inserted = await write("insert", edge)
                    if inserted is None:
                        return
                    if inserted["max_affected_core"] >= lowest_k:
                        sample = await traffic.read(connection, read_after, keep=True)
                        after.append((edge, sample))
                    await read(edge, picks[: REPEATS // 2])
                    if await write("delete", edge) is None:
                        return
                    cycle_ms = sum(s.latency_ms for s in writes[-2:])
                    write_cycles.append((edge, cycle_ms))
                    await read(None, picks[REPEATS // 2 :])
                    speed.probe()
                rounds += 1
        finally:
            connection.close()

    answers = Answers()
    with server:
        asyncio.run(closed_loop(server.port, traffic, readable, answers))
        with Phase(server) as phase:
            asyncio.run(cycles(phase.start + seconds))
        read_keys = [traffic.index_of[s.key] for __, s in reads]
        answers_digest, key_problems = verify_keys(
            server.port, traffic, traffic.check_keys(read_keys), inputs.graph, answers
        )
        rss = proc_vm_hwm_mb(server.proc.pid)
    problems += key_problems
    checked = check_states(
        reads, after, traffic, inputs.graph, seed, problems, GraphDelta
    )
    problems += answers.problems()

    ok = ok_latencies(writes)
    ok_reads = ok_latencies([s for __, s in reads])
    misses = ok_latencies([s for __, s in after])
    if not misses:
        problems.append(f"no write reached k={lowest_k}: no read-after-write ran")
    ops = len(ok) + len(ok_reads) + len(misses)
    attempted = len(writes) + len(reads) + len(after)
    # A write cycle's edge names it; a read-after-write's edge and key
    # name it: both recur once per round.
    cycles = [ms for __, ms in write_cycles]
    fastest_cycles = [min(group) for group in grouped(write_cycles)]
    by_after = grouped(((edge, s.key), s) for edge, s in after)
    metrics, measured = e2e_metrics(
        speed, setup["setup_s"], SETUPS, fastest_cycles, fastest_ms(by_after), rss
    )
    run = Run(
        "serve-rw",
        metrics,
        {
            **measured,
            **raw(cycles, misses),
            **throughput(ops, phase.wall),
            **tail("", cycles),
            "write_p50_ms": (percentile(ok, 50), "ms", len(ok)),
            **tail("write_", ok),
            **tail("miss_", misses),
            "read_p50_ms": (percentile(ok_reads, 50), "ms", len(ok_reads)),
            **tail("read_", ok_reads),
            "reads_verified": (float(checked), "count", len(reads) + len(after)),
            "rounds": (float(rounds), "count", rounds),
        },
        attempted,
        attempted - ops,
        problems,
        answers_digest,
    )
    if traced:
        sampled = [s for __, s in reads + after]
        run.layers = serve_layers(server, phase, setup, sampled, ops, summaries)
    return run


def check_states(reads, after, traffic, graph, seed, problems, delta) -> int:
    """Check reads against a cold solve on the graph state each saw.

    The loop is closed, so every read saw one known state: the original
    graph, or the original plus the edge of the pair in progress.  All
    responses for one (state, key) must be byte-identical.  A seeded
    sample of up to :data:`CHECK_KEYS` (state, key) pairs among the
    background reads, and of up to :data:`CHECK_AFTER_WRITE` among the
    reads-after-write, is compared with a cold solve.  Returns how many
    pairs were compared.
    """
    by_state: dict = {}
    groups: tuple[set, set] = (set(), set())
    for group, samples in zip(groups, (reads, after)):
        for edge, sample in samples:
            if sample.status != 200:
                continue
            state = (edge, sample.key)
            group.add(state)
            if by_state.setdefault(state, sample.body) != sample.body:
                problems.append(f"{sample.key}: responses differ within a graph state")
    rng = np.random.default_rng([seed, 4])
    graphs = {None: graph}
    entries = dict(zip(traffic.keys, traffic.entries))
    checked = 0
    for group, wanted in zip(groups, (CHECK_KEYS, CHECK_AFTER_WRITE)):
        states = sorted(group, key=repr)
        count = min(wanted, len(states))
        for i in rng.choice(len(states), size=count, replace=False):
            edge, key = states[int(i)]
            if edge not in graphs:
                graphs[edge] = delta(graph).apply(insert=[edge]).graph
            expected = fingerprint(expected_body(graphs[edge], entries[key]))
            if by_state[(edge, key)] != expected:
                problems.append(f"{key} after insert {edge}: differs from a cold solve")
        checked += count
    return checked


def run_solve_cold(inputs, workdir, seconds, seed, traced) -> Run:
    """The library alone: sequential cold ``top_r_communities`` calls."""
    spec = {
        "edges": str(inputs.edges),
        "weights": str(inputs.weights),
        "kmax": inputs.kmax,
        "seed": seed,
        "seconds": seconds,
        "setups_per_pass": COLD_SETUPS_PER_PASS,
        "probe_every": PROBE_EVERY,
        "spans": str(workdir / "spans-solve.json") if traced else None,
    }
    in_path, out_path = workdir / "solve-in.json", workdir / "solve-out.json"
    in_path.write_text(json.dumps(spec), encoding="utf-8")
    script = BENCH_DIR / "solve_child.py"
    child = subprocess.Popen(
        [sys.executable, str(script), str(in_path), str(out_path)], env=child_env()
    )
    try:
        code = child.wait(timeout=seconds + 120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        raise RuntimeError(f"solve child exited {code}")
    out = json.loads(out_path.read_text(encoding="utf-8"))
    # One row per pass, one column per query of the list: a pass is a round.
    passes = out["passes_s"]
    latencies = [value * 1e3 for row in passes for value in row]
    best = [min(column) * 1e3 for column in zip(*passes)]
    start_ns, end_ns = out["window_ns"]
    wall = out["wall_s"]
    speed = Speed(out["probe_s"], out["probes"])
    # No cache: every call is a miss.
    metrics, measured = e2e_metrics(
        speed, out["setup_s"], out["setups"], best, best, out["rss_peak_mb"]
    )
    run = Run(
        "solve-cold",
        metrics,
        {
            **measured,
            **raw(latencies, latencies),
            **throughput(len(latencies), wall),
            **tail("", latencies),
            "rounds": (float(len(passes)), "count", len(passes)),
        },
        len(latencies),
        0,
        out["problems"],
        out["digest"],
    )
    if traced:
        spans = tracing.window(tracing.load(spec["spans"])["spans"], start_ns, end_ns)
        run.layers = tracing.layer_metrics(spans, wall)
        run.layers.update(expansion_metrics(spans))
        # The main thread's top-level spans are the solver calls; their
        # self times plus their descendants' add up to the time the calls
        # covered.  Expansion-pool threads work inside those calls.
        main = tracing.self_time_by_layer(spans, thread="MainThread")
        covered = sum(main.values()) / wall
        run.layers["trace.self_time_frac"] = covered
        run.extra["self_time_frac"] = (covered, "ratio", len(latencies))
        if abs(covered - 1.0) > 0.05:
            run.problems.append(f"span self times cover {covered:.1%} of the wall time")
    return run


RUNNERS = {
    "serve-zipf": run_serve_zipf,
    "serve-rw": run_serve_rw,
    "solve-cold": run_solve_cold,
}
