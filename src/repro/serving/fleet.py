"""Multi-process serving fleet over one shared substrate.

``repro serve --fleet N`` forks N event-loop processes that all answer
on one port.  It is the server's only process-level scaling: each member
is one :class:`~repro.serving.http.ServingApp` with one solver thread.
The pieces, bottom-up:

* :class:`Replicator` — glues a :class:`~repro.serving.http.ServingApp`
  to a :mod:`~repro.serving.replog` log.  Mutations POSTed to *any*
  member are appended to the log first and then applied by replaying
  the appended record; a background tail task replays records the
  *other* members appended.  Every replica therefore absorbs the same
  mutation sequence through the same ``update_edges``/``update_weights``
  code paths, which keeps answers byte-identical across the fleet (and
  across warm standbys started with ``--follow``).
* :class:`SnapshotRefresher` — after every N applied mutations, rewrites
  the serving snapshot in place (write-new-then-rename, manifest last)
  with the absorbed ``replication_seq`` stamped in, so a restart tails
  the log from there instead of replaying history.
* :class:`Fleet` — the parent process: publishes the substrate once
  (:meth:`SharedSubstrate.publish`), forks the members, waits for their
  readiness reports, and tears everything down (SIGTERM → join → kill →
  unlink) on :meth:`Fleet.stop`.  Port sharing uses ``SO_REUSEPORT``
  when the platform has it; otherwise the parent runs a small
  round-robin TCP proxy in front of per-member ephemeral ports.

Memory model: the parent copies the arrays into shared memory exactly
once; each member attaches read-only views and builds a lazy-adjacency
graph over them, so per-member private RSS is bounded by Python itself
plus whatever per-vertex sets its own query mix touches — not by the
graph.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import threading
import time

import numpy as np

from repro.errors import ReproError
from repro.serving.replog import LogCursor, ReplicationLog, head_seq
from repro.serving.substrate import SharedSubstrate

__all__ = ["Fleet", "Replicator", "SnapshotRefresher"]

#: How often an idle member looks for foreign log records (seconds).
POLL_INTERVAL = 0.05

#: Age margin (seconds) a record must reach before post-refresh
#: compaction may drop it.  Restart safety never depends on this (a
#: member attaching after compaction starts from the snapshot that
#: already absorbed the dropped prefix); the margin exists for *running*
#: members, which read the log lock-free on a ~POLL_INTERVAL cadence —
#: two orders of magnitude of headroom over the poll window.
COMPACT_MIN_AGE = 5.0

#: How long Fleet.stop() waits for a SIGTERMed member before SIGKILL.
STOP_TIMEOUT = 15.0


class FleetError(RuntimeError):
    """A fleet failed to start or lost its members."""


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------
class Replicator:
    """Replays a replication log into one ServingApp, and feeds it.

    All graph mutations flow through here in fleet/follower mode:

    * :meth:`publish` (called by the app's POST handlers) appends the
      mutation to the log under the app's update lock, then applies
      every unapplied record — foreign stragglers first, then its own —
      strictly in seq order.
    * :meth:`start` spawns the tail task that does the same replay for
      records appended by *other* processes.

    A record that fails validation when replayed (e.g. an edge insert
    that lost a race with an identical insert on a sibling) is skipped —
    deterministically, by every replica, because they all validate the
    same payload against the same predecessor state.  The losing
    client's POST gets a 409.
    """

    def __init__(
        self,
        app,
        log_path,
        start_seq: int = 0,
        poll_interval: float = POLL_INTERVAL,
    ) -> None:
        self.app = app
        self.log = ReplicationLog(log_path)
        self.cursor = LogCursor(log_path, start_seq=start_seq)
        self._head = LogCursor(log_path, start_seq=start_seq)
        self.applied_seq = int(start_seq)
        self.apply_failures = 0
        self.poll_interval = poll_interval
        self.refresher: "SnapshotRefresher | None" = None
        self._task: "asyncio.Task | None" = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    async def _run(self) -> None:
        while True:
            async with self.app._update_lock:
                await self._sync_locked()
            await asyncio.sleep(self.poll_interval)

    # -- status --------------------------------------------------------
    def status(self) -> dict:
        """Replication position: ``{"applied_seq", "head_seq", "lag"}``.

        The head probe is an incremental cursor (it only reads bytes
        appended since the previous status call), so polling this from
        ``/v1/healthz`` stays O(new records), not O(log).
        """
        for _record in self._head.poll():
            pass
        head = max(self._head.seq, self.applied_seq)
        return {
            "applied_seq": self.applied_seq,
            "head_seq": head,
            "lag": max(0, head - self.applied_seq),
            "apply_failures": self.apply_failures,
        }

    # -- the write path ------------------------------------------------
    async def publish(self, op: str, payload: dict) -> dict:
        """Log one mutation, replay up to (and including) it, respond.

        The append happens under the app's update lock *after* catching
        up on foreign records, so the validation inside the replay runs
        against exactly the state every other replica will have when it
        reaches this seq.
        """
        from repro.serving.http import _HTTPError

        loop = asyncio.get_running_loop()
        async with self.app._update_lock:
            await self._sync_locked()
            record = await loop.run_in_executor(
                None, self.log.append, op, payload
            )
            response: "dict | None" = None
            conflict: "Exception | None" = None
            for pending in await loop.run_in_executor(None, self.cursor.poll):
                try:
                    result = await self._apply_record_locked(pending)
                except ReproError as exc:
                    self.apply_failures += 1
                    self.applied_seq = pending.seq
                    if pending.seq == record.seq:
                        # Deferred, not raised: the poll above already
                        # consumed every record in this batch, so bailing
                        # out mid-loop would drop a sibling's record that
                        # can never be re-polled — this replica would
                        # silently diverge from the rest of the fleet.
                        conflict = _HTTPError(
                            409,
                            "update conflicts with a concurrent mutation "
                            f"(seq {record.seq} skipped on every replica): "
                            f"{exc}",
                        )
                    continue
                self.applied_seq = pending.seq
                if pending.seq == record.seq:
                    response = result
            await self._maybe_refresh_locked()
            if conflict is not None:
                raise conflict
            if response is None:  # pragma: no cover — append is fsynced
                raise _HTTPError(
                    500, f"appended seq {record.seq} did not replay"
                )
            response["seq"] = record.seq
            return response

    # -- the replay path -----------------------------------------------
    async def _sync_locked(self) -> None:
        """Apply every unapplied foreign record; caller holds the lock."""
        loop = asyncio.get_running_loop()
        applied = False
        while True:
            records = await loop.run_in_executor(None, self.cursor.poll)
            if not records:
                break
            for record in records:
                try:
                    await self._apply_record_locked(record)
                except ReproError:
                    # Every replica validates the same payload against
                    # the same predecessor state, so every replica skips
                    # this record — divergence-free.
                    self.apply_failures += 1
                self.applied_seq = record.seq
                applied = True
        if applied:
            await self._maybe_refresh_locked()

    async def _apply_record_locked(self, record) -> dict:
        """Replay one record through the app's mutation paths."""
        loop = asyncio.get_running_loop()
        service = self.app.service
        if record.op == "update-weights":
            raw = record.payload.get("weights")
            if not isinstance(raw, list) or len(raw) != service.graph.n:
                raise ReproError(
                    f"replication seq {record.seq}: weights must be a "
                    f"list of {service.graph.n} numbers"
                )

            def _validated() -> np.ndarray:
                try:
                    array = np.asarray(raw, dtype=np.float64)
                    service.graph.with_weights(array)
                except (TypeError, ValueError) as exc:
                    raise ReproError(str(exc)) from exc
                return array

            candidate = await loop.run_in_executor(None, _validated)
            await self.app._apply_weights_locked(candidate)
            return {
                "status": "reweighted",
                "n": service.graph.n,
                "epoch": self.app._epoch,
                "invalidations": service.invalidations,
            }
        if record.op == "update-edges":
            from repro.graphs.delta import GraphDelta

            inserts, deletes = GraphDelta.validate(
                service.graph,
                record.payload.get("insert", ()),
                record.payload.get("delete", ()),
            )
            report = await self.app._apply_edges_locked(inserts, deletes)
            return {
                "status": "updated",
                "epoch": self.app._epoch,
                "kmax": service.kmax,
                **report.summary(),
            }
        raise ReproError(f"unknown replication op {record.op!r}")

    async def _maybe_refresh_locked(self) -> None:
        if self.refresher is not None:
            await self.refresher.maybe_refresh_locked(self.applied_seq)


class SnapshotRefresher:
    """Rewrites the serving snapshot after every N absorbed mutations.

    ``save_snapshot`` writes every array to a pid-suffixed temp file and
    renames, manifest last, so a reader (or a crash) mid-refresh sees
    either the old snapshot or the new one — never a torn mix; it also
    flocks the directory's ``.save.lock`` for the whole save, so two
    refreshers at different applied seqs (every fleet member runs one,
    and an operator may run ``repro snapshot refresh`` too) serialise
    instead of interleaving per-file renames, and a save that would
    regress the stamped seq is skipped.  The stamped ``replication_seq``
    is what lets the next cold start (or a ``--follow`` standby) skip
    the already-absorbed prefix of the log.

    When constructed with the replication ``log``, every successful
    refresh is followed by :meth:`ReplicationLog.compact` up to the seq
    the snapshot just made durable (with the :data:`COMPACT_MIN_AGE`
    margin for running readers), so the log stays proportional to the
    un-absorbed suffix instead of growing without bound.
    """

    def __init__(
        self,
        app,
        path,
        every: int,
        log: "ReplicationLog | None" = None,
        compact_min_age: float = COMPACT_MIN_AGE,
    ) -> None:
        if every < 1:
            raise ValueError(f"refresh interval must be >= 1, got {every}")
        self.app = app
        self.path = path
        self.every = int(every)
        self.log = log
        self.compact_min_age = float(compact_min_age)
        self.pending = 0
        self.last_applied = 0
        self.refreshes = 0
        self.last_seq = 0
        self.compacted_records = 0

    async def maybe_refresh_locked(self, applied_seq: int) -> None:
        """Count newly-absorbed seqs; refresh when the interval fills."""
        self.pending += max(0, applied_seq - self.last_applied)
        self.last_applied = max(self.last_applied, applied_seq)
        if self.pending < self.every:
            return
        from repro.serving.store import save_snapshot

        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None,
            lambda: save_snapshot(
                self.app.service, self.path, replication_seq=applied_seq
            ),
        )
        self.pending = 0
        self.refreshes += 1
        self.last_seq = applied_seq
        if self.log is not None:
            # Safe even when the save above was skipped as not-newer: the
            # manifest then already stamps a seq >= applied_seq, so every
            # record at or below it is durable in the snapshot.
            self.compacted_records += await loop.run_in_executor(
                None,
                lambda: self.log.compact(
                    applied_seq, min_age=self.compact_min_age
                ),
            )


def attach_replication(
    app,
    log_path,
    start_seq: int = 0,
    snapshot_path=None,
    refresh_every: int = 0,
    poll_interval: float = POLL_INTERVAL,
) -> Replicator:
    """Wire a Replicator (and optional refresher) onto a ServingApp.

    Shared by fleet members, ``repro serve --log``, and ``--follow``
    standbys; the caller still owns starting/stopping the tail task
    inside its event loop.
    """
    replicator = Replicator(
        app, log_path, start_seq=start_seq, poll_interval=poll_interval
    )
    if refresh_every > 0 and snapshot_path is not None:
        replicator.refresher = SnapshotRefresher(
            app, snapshot_path, refresh_every, log=replicator.log
        )
    app.replicator = replicator
    return replicator


# ----------------------------------------------------------------------
# Fleet members (child-process side)
# ----------------------------------------------------------------------
def _member_main(config: dict) -> None:
    """Entry point of one forked fleet member."""
    # Forked children inherit the parent's atexit bookkeeping, including
    # the owner registration for the substrate the PARENT published; an
    # exiting member must never unlink segments its siblings still map.
    from repro.serving import substrate as substrate_module

    substrate_module._LIVE_OWNERS.clear()

    from repro.serving.http import ServingApp

    substrate = SharedSubstrate.attach(config["descriptor"])
    service = substrate.build_service(cache_size=config["cache_size"])
    app = ServingApp(
        service,
        max_body_bytes=config["max_body_bytes"],
        max_queue_depth=config["max_queue_depth"],
    )
    app.member_index = config["index"]
    replicator = attach_replication(
        app,
        config["log_path"],
        start_seq=config["start_seq"],
        snapshot_path=config.get("snapshot_path"),
        refresh_every=config.get("refresh_every", 0),
    )
    ready_queue = config["ready_queue"]

    def _report_ready(server) -> None:
        port = server.sockets[0].getsockname()[1]
        ready_queue.put((config["index"], port, os.getpid()))

    async def _main() -> None:
        await replicator.start()
        try:
            await app.run(
                host=config["host"],
                port=config["port"],
                on_ready=_report_ready,
                reuse_port=config["reuse_port"],
                handle_signals=True,
                drain_timeout=config.get("drain_timeout", 10.0),
            )
        finally:
            await replicator.stop()

    try:
        asyncio.run(_main())
    finally:
        substrate.close()


# ----------------------------------------------------------------------
# Round-robin proxy (fallback when SO_REUSEPORT is unavailable)
# ----------------------------------------------------------------------
class _RoundRobinProxy:
    """Tiny stdlib TCP proxy: one public port, N backend ports.

    Connections are dealt round-robin; a dead backend (connection
    refused — e.g. a killed replica) is skipped and the next one tried,
    so the fleet keeps answering as long as one member lives.
    """

    def __init__(self, host: str, port: int, backends: list[int]) -> None:
        self.host = host
        self.port = port
        self.backends = backends
        self._next = 0
        self._thread: "threading.Thread | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._started = threading.Event()
        self._error: "BaseException | None" = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._runner, name="repro-fleet-proxy", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise FleetError("fleet proxy failed to start in time")
        if self._error is not None:
            raise FleetError(f"fleet proxy failed to bind: {self._error}")

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def _runner(self) -> None:
        async def _main() -> None:
            server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._started.set()
            try:
                await self._stop.wait()
            finally:
                server.close()
                await server.wait_closed()

        try:
            asyncio.run(_main())
        except BaseException as exc:  # pragma: no cover — surfaced in start
            self._error = exc
            self._started.set()

    async def _handle(self, client_reader, client_writer) -> None:
        upstream = None
        for _attempt in range(max(1, len(self.backends))):
            port = self.backends[self._next % len(self.backends)]
            self._next += 1
            try:
                upstream = await asyncio.open_connection(self.host, port)
                break
            except OSError:
                continue  # dead member — try the next one
        if upstream is None:
            client_writer.close()
            return
        up_reader, up_writer = upstream

        async def _pipe(reader, writer) -> None:
            try:
                while True:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    writer.write(chunk)
                    await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                with contextlib.suppress(Exception):
                    writer.close()

        await asyncio.gather(
            _pipe(client_reader, up_writer),
            _pipe(up_reader, client_writer),
            return_exceptions=True,
        )


# ----------------------------------------------------------------------
# Fleet (parent-process side)
# ----------------------------------------------------------------------
class Fleet:
    """Publish one substrate, fork N serving members, manage their lives.

    Usage::

        fleet = Fleet(service, members=4, log_path=tmp / "repl.log")
        fleet.start()          # blocks until every member answers
        ... requests against fleet.url ...
        fleet.stop()           # SIGTERM → join → SIGKILL → unlink

    ``mode`` is ``"reuseport"`` (kernel load-balancing, one shared
    port), ``"proxy"`` (parent round-robins to per-member ephemeral
    ports), or ``"auto"`` (reuseport when the platform supports it).

    ``members`` is deliberately *not* capped at the core count (unlike
    ``submit_many``'s CPU-bound shard pool, which clamps via
    :func:`repro.utils.parallel.cap_workers`): members are event-loop
    processes that spend most of their life parked in ``epoll``, the
    count is explicit operator configuration, and the replication tests
    legitimately run more members than a small CI box has cores.
    """

    def __init__(
        self,
        service,
        members: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        mode: str = "auto",
        log_path=None,
        start_seq: "int | None" = None,
        snapshot_path=None,
        refresh_every: int = 0,
        max_queue_depth: int = 0,
        max_body_bytes: int = 64 * 1024 * 1024,
        cache_size: int = 1024,
        drain_timeout: float = 10.0,
    ) -> None:
        if members < 1:
            raise FleetError(f"a fleet needs >= 1 member, got {members}")
        if mode not in ("auto", "reuseport", "proxy"):
            raise FleetError(f"unknown fleet mode {mode!r}")
        if log_path is None:
            raise FleetError("a fleet needs a replication log path")
        self.service = service
        self.members = int(members)
        self.host = host
        self.port = int(port)
        self.mode = self._resolve_mode(mode)
        self.log_path = log_path
        self.start_seq = start_seq
        self.snapshot_path = snapshot_path
        self.refresh_every = int(refresh_every)
        self.max_queue_depth = int(max_queue_depth)
        self.max_body_bytes = int(max_body_bytes)
        self.cache_size = int(cache_size)
        self.drain_timeout = float(drain_timeout)
        self.substrate: "SharedSubstrate | None" = None
        self.processes: list = []
        self.member_ports: list[int] = []
        self._proxy: "_RoundRobinProxy | None" = None

    @staticmethod
    def _resolve_mode(mode: str) -> str:
        if mode != "auto":
            return mode
        return "reuseport" if hasattr(socket, "SO_REUSEPORT") else "proxy"

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- startup -------------------------------------------------------
    def start(self, timeout: float = 120.0) -> None:
        """Publish, fork, and wait until every member reports ready."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        if self.start_seq is None:
            # The service state handed to us IS the log head: members
            # must not replay mutations the state already contains.
            self.start_seq = head_seq(self.log_path)
        self.substrate = SharedSubstrate.publish(self.service)
        ready_queue = context.Queue()
        reuseport = self.mode == "reuseport"
        reserved: "socket.socket | None" = None
        if reuseport and self.port == 0:
            reserved = _reserve_port(self.host)
            self.port = reserved.getsockname()[1]
        try:
            for index in range(self.members):
                config = {
                    "index": index,
                    "descriptor": self.substrate.descriptor(),
                    "host": self.host,
                    "port": self.port if reuseport else 0,
                    "reuse_port": reuseport,
                    "ready_queue": ready_queue,
                    "log_path": str(self.log_path),
                    "start_seq": self.start_seq,
                    "snapshot_path": (
                        str(self.snapshot_path)
                        if self.snapshot_path is not None
                        else None
                    ),
                    "refresh_every": self.refresh_every,
                    "max_queue_depth": self.max_queue_depth,
                    "max_body_bytes": self.max_body_bytes,
                    "cache_size": self.cache_size,
                    "drain_timeout": self.drain_timeout,
                }
                process = context.Process(
                    target=_member_main,
                    args=(config,),
                    name=f"repro-fleet-{index}",
                    daemon=False,
                )
                process.start()
                self.processes.append(process)
            ports: dict[int, int] = {}
            deadline = time.monotonic() + timeout
            while len(ports) < self.members:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FleetError(
                        f"only {len(ports)}/{self.members} members became "
                        f"ready within {timeout:.0f}s"
                    )
                try:
                    index, member_port, _pid = ready_queue.get(
                        timeout=min(remaining, 1.0)
                    )
                except Exception:
                    dead = [p for p in self.processes if not p.is_alive()]
                    if dead:
                        raise FleetError(
                            f"{len(dead)} member(s) exited during startup "
                            f"(exitcodes {[p.exitcode for p in dead]})"
                        )
                    continue
                ports[index] = member_port
            self.member_ports = [ports[i] for i in range(self.members)]
            if self.mode == "proxy":
                self._proxy = _RoundRobinProxy(
                    self.host, self.port, list(self.member_ports)
                )
                self._proxy.start()
                self.port = self._proxy.port
        except BaseException:
            self.stop()
            raise
        finally:
            if reserved is not None:
                reserved.close()

    # -- teardown ------------------------------------------------------
    def stop(self) -> None:
        """SIGTERM every member, reap them, then unlink the substrate.

        The unlink MUST come last: segments stay mapped (and usable) in
        any process that already attached, but a member still starting
        up would fail its attach if the names vanished early.
        """
        if self._proxy is not None:
            self._proxy.stop()
            self._proxy = None
        for process in self.processes:
            if process.is_alive():
                with contextlib.suppress(OSError):
                    os.kill(process.pid, signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT
        for process in self.processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for process in self.processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        self.processes = []
        if self.substrate is not None:
            self.substrate.unlink()
            self.substrate = None

    def __enter__(self) -> "Fleet":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def _reserve_port(host: str) -> socket.socket:
    """Bind (without listening) the first socket of a reuseport group.

    The caller keeps the returned socket open until every fleet member
    has bound the same port: closing it earlier would open a window in
    which an unrelated process could take the port and members would
    fail with EADDRINUSE.  A bound-but-not-listening TCP socket receives
    no connections, so holding it is free; forked members inherit the fd,
    which only extends the guarantee for as long as any member lives.
    """
    reserved = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        reserved.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        reserved.bind((host, 0))
    except BaseException:
        reserved.close()
        raise
    return reserved
