"""Command-line interface.

Subcommands::

    repro search   --dataset email --k 4 --r 5 --f sum [--s 20] [--tonic]
    repro search   --edges graph.txt --weights w.txt ...
    repro batch    --dataset email --workload queries.json [--stats]
    repro serve    --snapshot snap/ --port 8080 [--fleet 4] [--index]
    repro update-edges --url http://127.0.0.1:8080 --insert 3,17 --delete 4,9
    repro update-edges --snapshot snap/ --edits edits.json
    repro snapshot save --dataset email --out snap/ [--with-truss]
    repro snapshot load snap/           # inspect + verify a snapshot
    repro index build --snapshot snap/ [--depth 32] [--f sum --f sum-surplus]
    repro index status --snapshot snap/ # per-level coverage of the index
    repro datasets                      # list stand-ins with statistics
    repro bench    --exp fig2 [--out EXPERIMENTS.md]
    repro casestudy                     # the Fig 14 reproduction
    repro verify                        # solver-vs-oracle self check

``batch`` serves a whole JSON workload through one
:class:`repro.serving.service.QueryService` — shared CSR, cached
decompositions, an expansion-engine pool and a keyed result cache.  The
workload file holds a JSON array of query objects whose fields mirror
:class:`repro.serving.query.InfluentialQuery`::

    [{"k": 4, "r": 5, "f": "sum"},
     {"k": 6, "r": 3, "f": "sum-surplus(1)", "eps": 0.1}]

``serve`` exposes the same service over HTTP (``POST /v1/query``,
``POST /v1/batch``, ``POST /v1/update-weights``, ``POST /v1/update-edges``,
``GET /v1/stats``, ``GET /v1/healthz``; docs/API.md has the envelopes);
``snapshot save``/``load`` persist a service's CSR arrays and cached
decompositions so ``serve --snapshot`` restarts come up without
re-peeling anything.  ``update-edges`` applies edge insertions/deletions
either to a running server (``--url``, via ``POST /v1/update-edges``) or
offline to a snapshot directory (``--snapshot``, rewriting it through the
same incremental :class:`~repro.graphs.delta.GraphDelta` path).

``index build`` precomputes the :class:`repro.index.InfluentialIndex`
for a snapshot — every (k, aggregator) community family down to
``--depth`` — and writes it back into the snapshot, so ``serve
--snapshot`` answers indexed queries by array lookup with zero solver
calls.  ``index status`` prints per-level coverage without rebuilding
anything; ``serve --index`` builds (or deepens) an index at startup for
graphs served straight from ``--dataset``/``--edges``.

Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Top-r influential community search under aggregation functions "
            "(reproduction of Peng et al., ICDE 2022)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run a top-r community query")
    source = search.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="a stand-in dataset name (see `datasets`)")
    source.add_argument("--edges", help="path to a SNAP-style edge list")
    search.add_argument("--weights", help="path to a vertex-weight file")
    search.add_argument("--k", type=int, required=True, help="degree constraint")
    search.add_argument("--r", type=int, default=5, help="number of communities")
    search.add_argument("--f", default="sum", help="aggregation function")
    search.add_argument("--s", type=int, default=None, help="size constraint")
    search.add_argument(
        "--method",
        default="auto",
        help="auto|naive|improved|approx|exact|local|bruteforce",
    )
    search.add_argument("--eps", type=float, default=0.1, help="approx ratio")
    search.add_argument(
        "--tonic", action="store_true", help="non-overlapping communities"
    )
    search.add_argument(
        "--random-strategy",
        action="store_true",
        help="use the Random local-search variant instead of Greedy",
    )

    batch = sub.add_parser(
        "batch", help="serve a JSON workload of queries over one graph"
    )
    batch_source = batch.add_mutually_exclusive_group(required=True)
    batch_source.add_argument(
        "--dataset", help="a stand-in dataset name (see `datasets`)"
    )
    batch_source.add_argument("--edges", help="path to a SNAP-style edge list")
    batch.add_argument("--weights", help="path to a vertex-weight file")
    batch.add_argument(
        "--workload", required=True,
        help="JSON file holding an array of query objects",
    )
    batch.add_argument(
        "--cache-size", type=int, default=1024,
        help="result-cache capacity (0 disables caching)",
    )
    batch.add_argument(
        "--out", default=None, help="also write results as JSON to this path"
    )
    batch.add_argument(
        "--stats", action="store_true",
        help="print serving stats (cache hit rates, pool reuse) after the run",
    )

    serve = sub.add_parser(
        "serve", help="serve queries over HTTP from one shared QueryService"
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument(
        "--dataset", help="a stand-in dataset name (see `datasets`)"
    )
    serve_source.add_argument("--edges", help="path to a SNAP-style edge list")
    serve_source.add_argument(
        "--snapshot",
        help="a snapshot directory (see `snapshot save`) — the fast path: "
        "mmaps the arrays and skips all decomposition work",
    )
    serve.add_argument("--weights", help="path to a vertex-weight file")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port")
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="result-cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--max-body-mb", type=int, default=64,
        help="largest accepted request body in MB (weight vectors for "
        "multi-million-vertex graphs need more than the default)",
    )
    serve.add_argument(
        "--index", action="store_true",
        help="build the influential-community index at startup (snapshots "
        "that already carry one are served from it without this flag)",
    )
    serve.add_argument(
        "--index-depth", type=int, default=32,
        help="communities precomputed per (k, aggregator) level",
    )
    serve.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="fork N serving processes over one shared-memory substrate, "
        "all answering on one port (0 = single process)",
    )
    serve.add_argument(
        "--fleet-mode", default="auto",
        choices=("auto", "reuseport", "proxy"),
        help="port sharing: SO_REUSEPORT kernel balancing, a round-robin "
        "front proxy, or auto-pick (reuseport where available)",
    )
    serve.add_argument(
        "--log", metavar="PATH",
        help="replication log: every accepted mutation is appended here "
        "and replayed by fleet siblings and --follow standbys (defaults "
        "to <snapshot>/replication.log when --fleet is used with "
        "--snapshot)",
    )
    serve.add_argument(
        "--follow", metavar="LOG",
        help="warm standby: tail this replication log and replay its "
        "mutations, starting past the snapshot's recorded seq",
    )
    serve.add_argument(
        "--refresh-every", type=int, default=0, metavar="N",
        help="with --snapshot and a replication log: rewrite the snapshot "
        "in place after every N absorbed mutations (0 disables)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=0, metavar="N",
        help="bound the solve queue: fresh cache misses beyond N in-flight "
        "solves get 503 + Retry-After instead of queueing (0 = unbounded)",
    )

    update = sub.add_parser(
        "update-edges",
        help="apply edge insertions/deletions to a running server or a "
        "snapshot, without a full rebuild",
    )
    update_target = update.add_mutually_exclusive_group(required=True)
    update_target.add_argument(
        "--url",
        help="base URL of a running `repro serve` (POSTs /v1/update-edges)",
    )
    update_target.add_argument(
        "--snapshot",
        help="snapshot directory to patch through the incremental delta "
        "path (rewritten in place unless --out is given)",
    )
    update.add_argument(
        "--insert", action="append", default=[], metavar="U,V",
        help="edge to insert, as two comma-separated vertex ids (repeatable)",
    )
    update.add_argument(
        "--delete", action="append", default=[], metavar="U,V",
        help="edge to delete, as two comma-separated vertex ids (repeatable)",
    )
    update.add_argument(
        "--edits",
        help='JSON file {"insert": [[u, v], ...], "delete": [[u, v], ...]} '
        "merged with any --insert/--delete flags",
    )
    update.add_argument(
        "--out",
        help="with --snapshot: write the patched snapshot here instead of "
        "in place",
    )

    snapshot = sub.add_parser(
        "snapshot", help="save/load persistent graph snapshots"
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snap_sub.add_parser(
        "save", help="persist a graph + decompositions to a directory"
    )
    snap_source = snap_save.add_mutually_exclusive_group(required=True)
    snap_source.add_argument(
        "--dataset", help="a stand-in dataset name (see `datasets`)"
    )
    snap_source.add_argument(
        "--edges", help="path to a SNAP-style edge list"
    )
    snap_save.add_argument("--weights", help="path to a vertex-weight file")
    snap_save.add_argument(
        "--out", required=True, help="snapshot directory to write"
    )
    snap_save.add_argument(
        "--with-truss", action="store_true",
        help="also compute and persist the truss decomposition",
    )
    snap_load = snap_sub.add_parser(
        "load", help="load a snapshot, verify it, and print its manifest"
    )
    snap_load.add_argument("path", help="snapshot directory")
    snap_refresh = snap_sub.add_parser(
        "refresh",
        help="replay a replication log's unabsorbed tail into a snapshot, "
        "rewrite it in place with the new seq stamped, and compact the "
        "absorbed log prefix",
    )
    snap_refresh.add_argument(
        "--snapshot", required=True, help="snapshot directory to refresh"
    )
    snap_refresh.add_argument(
        "--log", required=True, help="replication log to absorb"
    )
    snap_refresh.add_argument(
        "--no-compact", action="store_true",
        help="keep the absorbed log prefix instead of truncating it",
    )

    index = sub.add_parser(
        "index",
        help="precompute/inspect the influential-community index of a "
        "snapshot",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build",
        help="build the index for a snapshot and write it back in place",
    )
    index_build.add_argument(
        "--snapshot", required=True, help="snapshot directory (see `snapshot save`)"
    )
    index_build.add_argument(
        "--depth", type=int, default=32,
        help="communities precomputed per (k, aggregator) level",
    )
    index_build.add_argument(
        "--f", action="append", default=None, metavar="AGG",
        help="aggregator to index (repeatable; default: sum)",
    )
    index_build.add_argument(
        "--out",
        help="write the indexed snapshot here instead of in place",
    )
    index_status = index_sub.add_parser(
        "status", help="print per-level index coverage for a snapshot"
    )
    index_status.add_argument(
        "--snapshot", required=True, help="snapshot directory"
    )

    sub.add_parser("datasets", help="list the stand-in datasets with statistics")

    bench = sub.add_parser(
        "bench", help="run paper experiments / the regression grid"
    )
    bench.add_argument(
        "--exp",
        default="all",
        help="experiment id: table3, fig2..fig13, case, substrates, or 'all'",
    )
    bench.add_argument(
        "--out", default=None, help="write a Markdown report to this path"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller sweeps for smoke-testing the harness",
    )
    bench_sub = bench.add_subparsers(dest="bench_command")

    grid = bench_sub.add_parser(
        "grid",
        help="the experiment-grid regression harness (sqlite history)",
    )
    grid_sub = grid.add_subparsers(dest="grid_command", required=True)

    grid_run = grid_sub.add_parser(
        "run", help="execute a named grid and append the run to history"
    )
    grid_run.add_argument(
        "--grid", default="ci", help="grid name: smoke|ci|full"
    )
    grid_run.add_argument(
        "--db", default="grid_history.sqlite",
        help="sqlite history database (created if missing)",
    )
    grid_run.add_argument(
        "--commit", default=None,
        help="commit sha to key the run by (default: $GITHUB_SHA, then "
        "`git rev-parse HEAD`, then 'unknown')",
    )
    grid_run.add_argument(
        "--repeats", type=int, default=None,
        help="override the grid's best-of-N repeat count",
    )

    grid_compare = grid_sub.add_parser(
        "compare",
        help="judge the newest run against stored history (gating)",
    )
    grid_compare.add_argument(
        "--db", default="grid_history.sqlite", help="fresh history database"
    )
    grid_compare.add_argument(
        "--baseline", default=None,
        help="baseline history database (default: older runs in --db)",
    )
    grid_compare.add_argument(
        "--grid", default=None, help="restrict to one grid name"
    )
    grid_compare.add_argument(
        "--commit", default=None,
        help="treat this commit's runs as fresh when the baseline lives "
        "in the same database",
    )
    grid_compare.add_argument(
        "--tolerance", type=float, default=0.7,
        help="accepted fraction of the baseline ratio (default 0.7)",
    )
    grid_compare.add_argument(
        "--absolute", action="store_true",
        help="also gate raw per-cell seconds (same-machine history only)",
    )
    grid_compare.add_argument(
        "--waivers", default=None,
        help="waiver file (default: benchmarks/waivers.json when present)",
    )
    grid_compare.add_argument(
        "--out", default=None, help="write the Markdown verdict here too"
    )

    grid_report = grid_sub.add_parser(
        "report", help="render the stored history as Markdown"
    )
    grid_report.add_argument(
        "--db", default="grid_history.sqlite", help="history database"
    )
    grid_report.add_argument(
        "--grid", default=None, help="restrict to one grid name"
    )
    grid_report.add_argument(
        "--limit", type=int, default=10, help="newest runs to show"
    )
    grid_report.add_argument(
        "--out", default=None, help="write the Markdown report here too"
    )

    ingest = sub.add_parser(
        "ingest",
        help="load a SNAP edge list, assign synthetic influence weights, "
        "and write a served-ready snapshot",
    )
    ingest.add_argument("edges", help="path to a SNAP-style edge list")
    ingest.add_argument(
        "--out", required=True, help="snapshot directory to write"
    )
    ingest.add_argument(
        "--weights",
        default="degree",
        choices=("degree", "core", "pagerank", "lognormal", "uniform"),
        help="synthetic influence model (default: degree)",
    )
    ingest.add_argument(
        "--seed", type=int, default=None,
        help="seed for the random weight modes",
    )
    ingest.add_argument(
        "--labels",
        default="none",
        choices=("none", "degree"),
        help="assign degree-tercile vertex labels (enables constrained "
        "queries on the snapshot)",
    )

    casestudy = sub.add_parser(
        "casestudy", help="reproduce the Fig 14 case study"
    )
    casestudy.add_argument(
        "--edges",
        default=None,
        help="run the protocol on this SNAP edge list (structural "
        "stand-in weights) instead of the synthetic Aminer network",
    )

    verify = sub.add_parser(
        "verify",
        help="cross-check the solvers against the exhaustive oracle",
    )
    verify.add_argument(
        "--instances", type=int, default=8, help="random instances to test"
    )
    verify.add_argument("--seed", type=int, default=1000, help="base seed")
    return parser


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.influential.api import top_r_communities

    graph = _load_graph(args)
    result = top_r_communities(
        graph,
        k=args.k,
        r=args.r,
        f=args.f,
        s=args.s,
        method=args.method,
        eps=args.eps,
        non_overlapping=args.tonic,
        greedy=not args.random_strategy,
    )
    print(
        f"top-{args.r} communities (k={args.k}, f={args.f}"
        + (f", s={args.s}" if args.s else "")
        + (", non-overlapping" if args.tonic else "")
        + ")"
    )
    print(result.describe(graph))
    return 0


def _load_graph(args: argparse.Namespace):
    from repro.graphs.generators.snap_like import snap_like_graph
    from repro.graphs.io import load_edge_list, load_weights

    if args.dataset:
        graph = snap_like_graph(args.dataset)
        if args.weights:
            # --weights overrides the stand-in's baked-in weights, same
            # as it does for --edges graphs.
            return graph.with_weights(load_weights(args.weights, graph.n))
        return graph
    graph, __ = load_edge_list(args.edges)
    if args.weights:
        return graph.with_weights(load_weights(args.weights, graph.n))
    from repro.centrality.pagerank import pagerank

    return graph.with_weights(pagerank(graph))


def _cmd_batch(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.errors import SpecError
    from repro.serving.query import InfluentialQuery
    from repro.serving.service import QueryService

    with open(args.workload, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"workload {args.workload} is not valid JSON: {exc}")
    if not isinstance(raw, list):
        raise SpecError(
            f"workload must be a JSON array of query objects, got "
            f"{type(raw).__name__}"
        )
    queries = [InfluentialQuery.create(entry) for entry in raw]

    graph = _load_graph(args)
    service = QueryService(graph, cache_size=args.cache_size)
    start = time.perf_counter()
    results = service.submit_many(queries)
    elapsed = time.perf_counter() - start

    for index, (query, result) in enumerate(zip(queries, results), start=1):
        print(f"[{index}/{len(queries)}] {query.describe()}")
        print(result.describe(graph))
    rate = len(queries) / elapsed if elapsed > 0 else float("inf")
    print(
        f"\nserved {len(queries)} queries in {elapsed:.3f}s "
        f"({rate:.1f} queries/sec)"
    )
    if args.stats:
        print(json.dumps(service.stats(), indent=2))
    if args.out:
        payload = [
            {
                "query": query.describe(),
                "values": result.values(),
                "communities": [sorted(c.vertices) for c in result],
            }
            for query, result in zip(queries, results)
        ]
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import pathlib
    import time

    from repro.serving.service import QueryService
    from repro.serving.store import load_service

    if args.fleet < 0:
        print("error: --fleet must be >= 0", file=sys.stderr)
        return 2
    if args.follow and args.log:
        print("error: --follow and --log are exclusive", file=sys.stderr)
        return 2
    if args.fleet and args.follow:
        print("error: a fleet cannot also --follow a log", file=sys.stderr)
        return 2
    if args.fleet and not args.log:
        if args.snapshot:
            args.log = str(pathlib.Path(args.snapshot) / "replication.log")
        else:
            print(
                "error: --fleet needs --log (or --snapshot, which defaults "
                "the log to <snapshot>/replication.log)",
                file=sys.stderr,
            )
            return 2
    if args.refresh_every and not args.snapshot:
        print(
            "error: --refresh-every rewrites a snapshot; give --snapshot",
            file=sys.stderr,
        )
        return 2
    if args.refresh_every and not (args.log or args.follow):
        print(
            "error: --refresh-every needs a replication log "
            "(--log or --follow)",
            file=sys.stderr,
        )
        return 2

    start = time.perf_counter()
    if args.snapshot:
        service = load_service(args.snapshot, cache_size=args.cache_size)
        if args.weights:
            # Serve the snapshot's topology under fresh weights (topology
            # caches survive; the persisted weights are simply replaced).
            from repro.graphs.io import load_weights

            service.update_weights(
                load_weights(args.weights, service.graph.n)
            )
        source = f"snapshot {args.snapshot}"
    else:
        graph = _load_graph(args)
        service = QueryService(graph, cache_size=args.cache_size)
        source = args.dataset or args.edges
    if args.index and service.index is None:
        service.enable_index(depth=args.index_depth)
    ready = time.perf_counter() - start
    graph = service.graph
    print(
        f"serving {source}: n={graph.n}, m={graph.m}, kmax={service.kmax} "
        f"(ready in {ready:.3f}s)"
    )
    if service.index is not None:
        istats = service.index.stats()
        print(
            f"index: {istats['levels_ready']}/{istats['levels']} levels "
            f"ready at depth {istats['depth']} "
            f"(f={','.join(istats['aggregators'])})"
        )

    if args.fleet:
        return _serve_fleet(args, service)
    return _serve_single(args, service)


def _serve_single(args: argparse.Namespace, service) -> int:
    import asyncio

    from repro.serving.fleet import attach_replication
    from repro.serving.http import ServingApp

    app = ServingApp(
        service,
        max_body_bytes=args.max_body_mb * 1024 * 1024,
        max_queue_depth=args.max_queue,
    )
    replicator = None
    log_path = args.follow or args.log
    if log_path:
        start_seq = 0
        if args.snapshot:
            from repro.serving.store import load_snapshot

            start_seq = load_snapshot(args.snapshot).replication_seq
        replicator = attach_replication(
            app,
            log_path,
            start_seq=start_seq,
            snapshot_path=args.snapshot if args.refresh_every else None,
            refresh_every=args.refresh_every,
        )
        role = "following" if args.follow else "logging mutations to"
        print(f"{role} {log_path} (from seq {start_seq})")

    def banner(server) -> None:
        # Only after a successful bind — scripts key off this line.
        port = server.sockets[0].getsockname()[1]
        print(
            f"listening on http://{args.host}:{port} — try: "
            f"curl -s http://{args.host}:{port}/v1/healthz"
        )

    async def _main() -> None:
        if replicator is not None:
            await replicator.start()
        try:
            await app.run(
                host=args.host,
                port=args.port,
                on_ready=banner,
                handle_signals=True,
            )
        finally:
            if replicator is not None:
                await replicator.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(
            f"error: cannot bind http://{args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    finally:
        app.shutdown_executors()
    return 0


def _serve_fleet(args: argparse.Namespace, service) -> int:
    import signal
    import threading

    from repro.serving.fleet import Fleet, FleetError

    start_seq = None
    if args.snapshot:
        from repro.serving.store import load_snapshot

        start_seq = load_snapshot(args.snapshot).replication_seq
    fleet = Fleet(
        service,
        members=args.fleet,
        host=args.host,
        port=args.port,
        mode=args.fleet_mode,
        log_path=args.log,
        start_seq=start_seq,
        snapshot_path=args.snapshot if args.refresh_every else None,
        refresh_every=args.refresh_every,
        max_queue_depth=args.max_queue,
        max_body_bytes=args.max_body_mb * 1024 * 1024,
        cache_size=args.cache_size,
    )
    stop = threading.Event()
    previous = {
        signum: signal.signal(signum, lambda *_a: stop.set())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        fleet.start()
        print(
            f"fleet of {fleet.members} ({fleet.mode}) listening on "
            f"{fleet.url} — replication log {args.log} — try: "
            f"curl -s {fleet.url}/v1/healthz"
        )
        stop.wait()
        print("shutting down fleet...")
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    finally:
        fleet.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _parse_edge_flag(raw: str) -> list[int]:
    from repro.errors import SpecError

    parts = raw.split(",")
    if len(parts) != 2:
        raise SpecError(
            f"edge {raw!r} must be two comma-separated vertex ids, like 3,17"
        )
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise SpecError(f"edge {raw!r} has non-integer vertex ids")


def _collect_edge_updates(args: argparse.Namespace) -> tuple[list, list]:
    import json

    from repro.errors import SpecError

    insert = [_parse_edge_flag(raw) for raw in args.insert]
    delete = [_parse_edge_flag(raw) for raw in args.delete]
    if args.edits:
        with open(args.edits, "r", encoding="utf-8") as handle:
            try:
                edits = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SpecError(f"edits {args.edits} is not valid JSON: {exc}")
        if not isinstance(edits, dict) or set(edits) - {"insert", "delete"}:
            raise SpecError(
                f'edits {args.edits} must be {{"insert": [...], '
                f'"delete": [...]}}'
            )
        for field, into in (("insert", insert), ("delete", delete)):
            entries = edits.get(field, [])
            if not isinstance(entries, list):
                raise SpecError(
                    f"edits field {field!r} must be a list of [u, v] pairs"
                )
            into.extend(entries)
    if not insert and not delete:
        raise SpecError(
            "nothing to apply: give --insert/--delete flags or an --edits "
            "file with at least one edge"
        )
    return insert, delete


def _cmd_update_edges(args: argparse.Namespace) -> int:
    import json

    from repro.errors import SpecError

    if args.url and args.out:
        # Silently ignoring --out would leave a user expecting a patched
        # snapshot with no file and no error.
        raise SpecError("--out only applies to --snapshot, not --url")
    insert, delete = _collect_edge_updates(args)
    if args.url:
        import urllib.error
        import urllib.request

        payload = {"insert": insert, "delete": delete}
        request = urllib.request.Request(
            args.url.rstrip("/") + "/v1/update-edges",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                body = json.load(response)
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read())["error"]["detail"]
            except (ValueError, KeyError, TypeError):
                message = str(exc)
            print(f"error: server rejected update: {message}", file=sys.stderr)
            return 2
        except (urllib.error.URLError, OSError) as exc:
            print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(body, indent=2))
        return 0

    from repro.serving.store import load_service, save_snapshot

    service = load_service(args.snapshot)
    report = service.update_edges(insert=insert, delete=delete)
    path = save_snapshot(service, args.out or args.snapshot)
    summary = report.summary()
    print(json.dumps(summary, indent=2))
    print(
        f"wrote snapshot {path}: n={summary['n']}, m={summary['m']}, "
        f"kmax={service.kmax}"
    )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import time

    from repro.serving.service import QueryService
    from repro.serving.store import load_service, save_snapshot

    if args.snapshot_command == "save":
        graph = _load_graph(args)
        service = QueryService(graph)
        path = save_snapshot(
            service, args.out,
            include_truss=True if args.with_truss else "auto",
        )
        print(
            f"wrote snapshot {path}: n={graph.n}, m={graph.m}, "
            f"kmax={service.kmax}"
            + (", truss included" if args.with_truss else "")
        )
        return 0

    if args.snapshot_command == "refresh":
        from repro.serving.replog import LogCursor
        from repro.serving.store import load_snapshot

        before = load_snapshot(args.snapshot).replication_seq
        service = load_service(args.snapshot)
        cursor = LogCursor(args.log, start_seq=before)
        applied = failures = 0
        for record in cursor.poll():
            try:
                if record.op == "update-edges":
                    service.update_edges(
                        record.payload.get("insert", ()),
                        record.payload.get("delete", ()),
                    )
                elif record.op == "update-weights":
                    service.update_weights(record.payload.get("weights"))
                applied += 1
            except Exception as exc:  # skipped on every replica alike
                failures += 1
                print(f"skipping seq {record.seq}: {exc}", file=sys.stderr)
        def _compact_absorbed(upto_seq: int) -> int:
            if args.no_compact:
                return 0
            from repro.serving.fleet import COMPACT_MIN_AGE
            from repro.serving.replog import ReplicationLog

            # Everything at or below upto_seq is durable in the
            # snapshot; the age margin protects members currently
            # tailing the log (see ReplicationLog.compact).
            return ReplicationLog(args.log).compact(
                upto_seq, min_age=COMPACT_MIN_AGE
            )

        if applied == 0 and cursor.seq == before:
            # Nothing new to absorb, but the already-absorbed prefix may
            # still be sitting in the log (e.g. a re-run after an earlier
            # refresh that found every record too young to drop).
            compacted = _compact_absorbed(before)
            print(
                f"snapshot {args.snapshot} already at seq {before}; "
                f"nothing to absorb ({compacted} log records compacted)"
            )
            return 0
        save_snapshot(service, args.snapshot, replication_seq=cursor.seq)
        compacted = _compact_absorbed(cursor.seq)
        print(
            f"refreshed {args.snapshot}: seq {before} -> {cursor.seq} "
            f"({applied} applied, {failures} skipped, "
            f"{compacted} log records compacted, "
            f"n={service.graph.n}, m={service.graph.m})"
        )
        return 0

    start = time.perf_counter()
    service = load_service(args.path)
    elapsed = time.perf_counter() - start
    manifest = json.loads(
        (pathlib.Path(args.path) / "manifest.json").read_text()
    )
    print(json.dumps(manifest, indent=2))
    print(
        f"loaded and verified in {elapsed:.3f}s "
        f"(n={service.graph.n}, m={service.graph.m}, kmax={service.kmax}, "
        f"no decompositions recomputed)"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.serving.store import load_service, save_snapshot

    service = load_service(args.snapshot)
    if args.index_command == "status":
        index = service.index
        if index is None:
            print(f"snapshot {args.snapshot} carries no index")
            print("build one with: repro index build --snapshot", args.snapshot)
            return 0
        stats = index.stats()
        sizes = service.engine_pool.core_level_sizes()
        print(json.dumps(stats, indent=2))
        print("\nlevel  core-size  state")
        for k in range(1, service.kmax + 1):
            states = [
                f"{name}:{index.level_state(k, name)}"
                for name in index.aggregators
            ]
            core = int(sizes[k]) if k < sizes.shape[0] else 0
            print(f"{k:>5}  {core:>9}  {' '.join(states)}")
        return 0

    start = time.perf_counter()
    index = service.enable_index(
        depth=args.depth, aggregators=tuple(args.f) if args.f else ("sum",)
    )
    built = time.perf_counter() - start
    path = save_snapshot(service, args.out or args.snapshot)
    stats = index.stats()
    print(json.dumps(stats, indent=2))
    print(
        f"wrote snapshot {path}: indexed {stats['levels_ready']} levels "
        f"(kmax={service.kmax}, depth={args.depth}) in {built:.3f}s"
    )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.bench.datasets import dataset_statistics_table

    print(dataset_statistics_table())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if getattr(args, "bench_command", None) == "grid":
        return _cmd_bench_grid(args)
    from repro.bench.experiments import run_experiments

    report = run_experiments(args.exp, quick=args.quick)
    print(report.render_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.render_markdown())
        print(f"\nwrote {args.out}")
    return 0


def _resolve_commit(explicit: "str | None") -> str:
    """The commit sha a grid run is keyed by: flag, CI env, git, unknown."""
    import os
    import subprocess

    if explicit:
        return explicit
    from_env = os.environ.get("GITHUB_SHA", "").strip()
    if from_env:
        return from_env
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if probe.returncode == 0 and probe.stdout.strip():
            return probe.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _default_waivers() -> "str | None":
    import pathlib

    candidate = pathlib.Path("benchmarks") / "waivers.json"
    return str(candidate) if candidate.exists() else None


def _cmd_bench_grid(args: argparse.Namespace) -> int:
    """``repro bench grid run|compare|report`` — the regression harness."""
    if args.grid_command == "run":
        import datetime

        from repro.bench.grid import grid_spec, run_grid

        try:
            spec = grid_spec(args.grid, repeats=args.repeats)
        except ValueError as exc:
            raise ReproError(str(exc))
        started_at = (
            datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
        )
        run_id = run_grid(
            spec,
            args.db,
            commit=_resolve_commit(args.commit),
            started_at=started_at,
            log=print,
        )
        cells = len(spec.cells())
        print(
            f"recorded run {run_id} of grid '{spec.name}' "
            f"({cells} cells, config {spec.config_hash()[:12]}) "
            f"into {args.db}"
        )
        return 0
    if args.grid_command == "compare":
        from repro.bench.compare import compare_grid_runs, load_waivers
        from repro.bench.report import append_step_summary, render_comparison

        waivers_path = (
            args.waivers if args.waivers is not None else _default_waivers()
        )
        report = compare_grid_runs(
            args.db,
            baseline=args.baseline,
            grid_name=args.grid,
            commit=args.commit,
            tolerance=args.tolerance,
            absolute=args.absolute,
            waivers=load_waivers(waivers_path),
        )
        rendered = render_comparison(report)
        print(rendered)
        append_step_summary(rendered)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        return report.exit_code
    if args.grid_command == "report":
        from repro.bench.history import HistoryDB
        from repro.bench.report import render_history

        with HistoryDB(args.db) as db:
            rendered = render_history(db, grid_name=args.grid, limit=args.limit)
        print(rendered)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        return 0
    raise ReproError(f"unknown grid command {args.grid_command!r}")


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.graphs.io import ingest_edge_list
    from repro.serving.service import QueryService
    from repro.serving.store import save_snapshot

    graph, id_map = ingest_edge_list(
        args.edges,
        weights=args.weights,
        seed=args.seed,
        labels=args.labels,
    )
    service = QueryService(graph)
    path = save_snapshot(service, args.out)
    # Dense id -> source id, so served answers can be mapped back to the
    # published dataset's vertex names.
    originals = sorted(id_map, key=id_map.get)
    with open(
        pathlib.Path(path) / "original_ids.txt", "w", encoding="utf-8"
    ) as handle:
        handle.write("# dense_id original_id\n")
        for dense, original in enumerate(originals):
            handle.write(f"{dense} {original}\n")
    print(
        json.dumps(
            {
                "status": "ingested",
                "edges": str(args.edges),
                "out": str(path),
                "n": graph.n,
                "m": graph.m,
                "kmax": service.kmax,
                "weights": args.weights,
                "labels": args.labels,
            },
            indent=2,
        )
    )
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.bench.case_study import render_case_study, run_case_study

    if args.edges:
        from repro.graphs.io import ingest_edge_list

        graph, __ = ingest_edge_list(args.edges)
        panels = run_case_study(graph=graph)
    else:
        panels = run_case_study()
    print(render_case_study(panels))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.bench.verification import verify_solvers

    report = verify_solvers(instances=args.instances, base_seed=args.seed)
    print(report.render())
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "search": _cmd_search,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "update-edges": _cmd_update_edges,
        "ingest": _cmd_ingest,
        "snapshot": _cmd_snapshot,
        "index": _cmd_index,
        "datasets": _cmd_datasets,
        "bench": _cmd_bench,
        "casestudy": _cmd_casestudy,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
