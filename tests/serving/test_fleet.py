"""The serving fleet: shared substrate, replication, and shutdown.

These tests fork real member processes (via :class:`repro.serving.fleet
.Fleet`) and talk to them over real sockets.  Proxy mode is used where a
test must aim requests at a *specific* member (reuseport routing is the
kernel's choice); a reuseport smoke test runs where the platform has it.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import time

import pytest

from repro.serving.fleet import Fleet, attach_replication
from repro.serving.http import ServingApp
from repro.serving.replog import ReplicationLog
from repro.serving.service import QueryService
from repro.serving.substrate import SEGMENT_PREFIX

QUERY = {"k": 2, "r": 2, "f": "sum"}


def _request(port: int, method: str, path: str, payload=None, timeout=30):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _shm_segments() -> set[str]:
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        }
    except FileNotFoundError:  # pragma: no cover — non-Linux
        return set()


def _wait_member_seq(port: int, seq: int, timeout: float = 20.0) -> dict:
    deadline = time.monotonic() + timeout
    status: dict = {}
    while time.monotonic() < deadline:
        _code, body = _request(port, "GET", "/v1/healthz")
        status = body.get("replication") or {}
        if status.get("applied_seq", -1) >= seq and status.get("lag") == 0:
            return body
        time.sleep(0.05)
    raise AssertionError(
        f"member :{port} never reached seq {seq}: {status}"
    )


@pytest.fixture
def proxy_fleet(figure1, tmp_path):
    fleet = Fleet(
        QueryService(figure1),
        members=2,
        mode="proxy",
        log_path=tmp_path / "repl.log",
    )
    fleet.start()
    try:
        yield fleet
    finally:
        fleet.stop()


def test_fleet_members_answer_identically(proxy_fleet):
    answers = {
        json.dumps(_request(port, "POST", "/v1/query", QUERY)[1], sort_keys=True)
        for port in proxy_fleet.member_ports
    }
    assert len(answers) == 1
    # And through the proxy itself.
    status, body = _request(proxy_fleet.port, "POST", "/v1/query", QUERY)
    assert status == 200
    assert json.dumps(body, sort_keys=True) in answers


def test_mutation_replicates_to_every_member(proxy_fleet):
    target, other = proxy_fleet.member_ports
    status, update = _request(
        target, "POST", "/v1/update-edges", {"insert": [[0, 7]]}
    )
    assert status == 200
    assert update["status"] == "updated"
    assert update["seq"] == 1
    _wait_member_seq(other, 1)
    post = {
        json.dumps(_request(port, "POST", "/v1/query", QUERY)[1], sort_keys=True)
        for port in proxy_fleet.member_ports
    }
    assert len(post) == 1


def test_kill_a_replica_siblings_keep_serving(proxy_fleet):
    victim = proxy_fleet.processes[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    # The proxy skips the dead backend; every request still answers.
    for _ in range(4):
        status, body = _request(proxy_fleet.port, "GET", "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
    status, _body = _request(proxy_fleet.port, "POST", "/v1/query", QUERY)
    assert status == 200


def test_sigterm_member_drains_and_exits_clean(proxy_fleet):
    member = proxy_fleet.processes[1]
    port = proxy_fleet.member_ports[1]
    # Park an idle keep-alive connection on the member: drain must close
    # it rather than wait forever (3.12+ wait_closed semantics).
    idle = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    idle.request("GET", "/v1/healthz")
    idle.getresponse().read()
    try:
        os.kill(member.pid, signal.SIGTERM)
        member.join(timeout=20)
        assert member.exitcode == 0
    finally:
        idle.close()


def test_healthz_carries_fleet_fields(proxy_fleet):
    for index, port in enumerate(proxy_fleet.member_ports):
        _status, body = _request(port, "GET", "/v1/healthz")
        assert body["member"] == index
        assert body["replication_lag"] == 0
        assert body["rss_bytes"] > 0
        assert body["epoch"] == 0
        _status, stats = _request(port, "GET", "/v1/stats")
        assert stats["replication"]["applied_seq"] == 0
        assert stats["rss_bytes"] > 0


def test_no_shm_leak_after_stop(figure1, tmp_path):
    before = _shm_segments()
    fleet = Fleet(
        QueryService(figure1),
        members=2,
        mode="proxy",
        log_path=tmp_path / "repl.log",
    )
    fleet.start()
    assert _shm_segments() - before  # the substrate is live
    fleet.stop()
    assert _shm_segments() - before == set()


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"), reason="no SO_REUSEPORT here"
)
def test_reuseport_mode_shares_one_port(figure1, tmp_path):
    fleet = Fleet(
        QueryService(figure1),
        members=2,
        mode="reuseport",
        log_path=tmp_path / "repl.log",
    )
    fleet.start()
    try:
        assert len(set(fleet.member_ports)) == 1
        assert fleet.member_ports[0] == fleet.port
        seen = set()
        for _ in range(8):
            status, body = _request(fleet.port, "GET", "/v1/healthz")
            assert status == 200
            seen.add(body["member"])
        assert seen  # at least one member answered; kernel picks which
    finally:
        fleet.stop()


def test_follower_replays_through_app_paths(figure1, tmp_path):
    """A standby's Replicator replays foreign records deterministically."""
    log = ReplicationLog(tmp_path / "repl.log")
    log.append("update-edges", {"insert": [[0, 7]]})
    log.append("update-weights", {"weights": [2.0] * figure1.n})
    log.append("update-edges", {"insert": [[0, 7]]})  # conflict: dup insert

    leader = QueryService(figure1)
    leader.update_edges(insert=[(0, 7)])
    leader.update_weights([2.0] * figure1.n)
    expected = leader.submit(QUERY)

    follower = ServingApp(QueryService(figure1))
    replicator = attach_replication(follower, tmp_path / "repl.log")

    async def _catch_up():
        async with follower._update_lock:
            await replicator._sync_locked()

    asyncio.run(_catch_up())
    assert replicator.applied_seq == 3
    assert replicator.apply_failures == 1  # the duplicate insert, skipped
    mirrored = follower.service.submit(QUERY)
    assert mirrored.values() == expected.values()
    assert [sorted(c.vertices) for c in mirrored] == [
        sorted(c.vertices) for c in expected
    ]
    follower.shutdown_executors()


def test_publish_conflict_keeps_interleaved_foreign_record(figure1, tmp_path):
    """A 409 on the caller's own record must not drop a sibling's record
    consumed in the same poll batch — the cursor can never re-read it,
    so bailing out mid-batch would leave this replica diverged forever."""
    from repro.serving.http import _HTTPError

    app = ServingApp(QueryService(figure1))
    replicator = attach_replication(app, tmp_path / "repl.log")
    sibling = ReplicationLog(tmp_path / "repl.log")
    own_append = replicator.log.append

    def _append_then_lose_the_race(op, payload):
        record = own_append(op, payload)
        # A sibling lands a valid mutation after our append and before
        # our poll, so one poll batch holds both records.
        sibling.append("update-weights", {"weights": [3.0] * figure1.n})
        return record

    replicator.log.append = _append_then_lose_the_race
    with pytest.raises(_HTTPError) as excinfo:
        # Edge (0, 1) already exists in figure1 → replay rejects it,
        # deterministically, on every replica.
        asyncio.run(replicator.publish("update-edges", {"insert": [[0, 1]]}))
    assert excinfo.value.status == 409
    assert replicator.apply_failures == 1
    assert replicator.applied_seq == 2  # the sibling's record was applied
    assert list(app.service.graph.weights) == [3.0] * figure1.n
    assert replicator.status()["lag"] == 0
    app.shutdown_executors()


def test_replication_conflict_status_line_reads_409_conflict(figure1, tmp_path):
    from repro.serving.http import run_server_in_thread

    app = ServingApp(QueryService(figure1))
    attach_replication(app, tmp_path / "repl.log")
    # Edge (0, 1) already exists in figure1: the logged record fails to
    # replay on every replica, and the publishing member answers 409.
    body = json.dumps({"insert": [[0, 1]]}).encode()
    request = (
        b"POST /v1/update-edges HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
    ) + body
    with run_server_in_thread(app) as base_url:
        host, port = base_url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
    status_line, __, rest = reply.partition(b"\r\n")
    assert status_line == b"HTTP/1.1 409 Conflict"
    assert json.loads(rest.partition(b"\r\n\r\n")[2])["error"]["code"] == "conflict"


def test_fleet_requires_log_and_members():
    from repro.serving.fleet import FleetError

    with pytest.raises(FleetError):
        Fleet(None, members=0, log_path="x")
    with pytest.raises(FleetError):
        Fleet(None, members=1, log_path=None)
    with pytest.raises(FleetError):
        Fleet(None, members=1, log_path="x", mode="carrier-pigeon")
