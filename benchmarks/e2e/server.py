"""Drive ``repro`` from outside: the CLI set-up steps, the server, HTTP.

Every program step runs in a child process started from the checkout's
``src/`` tree, as an operator would run it.  :class:`Server` always stops
its process -- SIGINT first (a traced server writes its spans then),
SIGKILL if it has not exited in time -- and waits for it.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
HOST = "127.0.0.1"
#: Communities precomputed per (k, aggregator) index level.
INDEX_DEPTH = 32
#: Longest any one request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0

_BANNER = re.compile(r"listening on http://[^:\s]+:(\d+)")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(*args: str) -> None:
    """One ``python -m repro ...`` step; raises with its output on failure."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} exited {done.returncode}:\n"
            f"{done.stdout}{done.stderr}"
        )


def proc_vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Connection:
    """One keep-alive HTTP/1.1 connection; a failure comes back as status 0.

    ``repro serve`` always answers with a ``Content-Length`` body, which is
    all this client reads.  It runs on the bench's single asyncio thread,
    so an open loop can keep many requests in flight without threads.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, body: bytes = b""):
        """``(status, body)`` of one request, or ``(0, b"")`` if it failed."""
        exchange = self._exchange(method, path, body)
        try:
            return await asyncio.wait_for(exchange, REQUEST_TIMEOUT_S)
        except (OSError, EOFError, IndexError, ValueError, asyncio.TimeoutError):
            self.close()  # the next request reconnects
            return 0, b""

    async def _exchange(self, method: str, path: str, body: bytes):
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                HOST, self.port
            )
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        status = int((await self._reader.readline()).split()[1])
        length = 0
        while (line := await self._reader.readline()) not in (b"\r\n", b"\n", b""):
            name, __, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._reader = self._writer = None


def request(port: int, method: str, path: str, body: bytes = b""):
    """One request on a fresh connection, from synchronous code."""

    async def once():
        connection = Connection(port)
        try:
            return await connection.request(method, path, body)
        finally:
            connection.close()

    return asyncio.run(once())


class Server:
    """A ``repro serve --port 0`` child; ``spans`` selects the traced launcher."""

    def __init__(self, snapshot, log: pathlib.Path, spans=None) -> None:
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(spans)]
        cmd += ["--snapshot", str(snapshot), "--host", HOST, "--port", "0"]
        self.log = log
        self.spans = spans
        self.port = 0
        with open(log, "w", encoding="utf-8") as out:
            self.proc = subprocess.Popen(
                cmd, env=child_env(), stdout=out, stderr=subprocess.STDOUT
            )

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the banner names the port and ``/v1/healthz`` is 200."""
        deadline = time.monotonic() + timeout
        while not self.port:
            match = _BANNER.search(self.log.read_text(encoding="utf-8"))
            if match:
                self.port = int(match.group(1))
            else:
                self._check_alive(deadline)
                time.sleep(0.005)
        while request(self.port, "GET", "/v1/healthz")[0] != 200:
            self._check_alive(deadline)
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(
                f"server did not come up:\n{self.log.read_text(encoding='utf-8')}"
            )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server(snapshot_dir: pathlib.Path, inputs, traced: bool, tag: str):
    """The operator's set-up: ``snapshot save``, ``index build``, ``serve``.

    Returns the ready server and each step's wall time in seconds.
    """
    shutil.rmtree(snapshot_dir, ignore_errors=True)
    started = time.perf_counter()
    run_cli(
        "snapshot",
        "save",
        "--edges",
        str(inputs.edges),
        "--weights",
        str(inputs.weights),
        "--out",
        str(snapshot_dir),
    )
    saved = time.perf_counter()
    run_cli(
        "index", "build", "--snapshot", str(snapshot_dir), "--depth", str(INDEX_DEPTH)
    )
    indexed = time.perf_counter()
    workdir = snapshot_dir.parent
    spans = workdir / f"spans-{tag}.json" if traced else None
    server = Server(snapshot_dir, workdir / f"serve-{tag}.log", spans)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    ready = time.perf_counter()
    return server, {
        "snapshot_save_s": saved - started,
        "index_build_s": indexed - saved,
        "serve_ready_s": ready - indexed,
        "setup_s": ready - started,
    }
