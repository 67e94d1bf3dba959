"""CI smoke for the serving fleet: the full lifecycle, end to end.

Drives the real CLI (``repro serve --fleet`` / ``--follow`` /
``snapshot refresh``) through one deployment story:

1. build a snapshot, start a 2-member fleet on it (shared substrate,
   replication log) plus a warm standby following the log;
2. mutate through the fleet; assert the standby catches up to lag 0 and
   answers byte-identically;
3. SIGKILL one member; assert the fleet keeps answering;
4. SIGTERM everything; assert clean exits (drained, exit code 0);
5. ``snapshot refresh`` absorbs the log into the snapshot (seq stamped);
6. assert **zero** ``repro-*`` segments remain in /dev/shm — a leaked
   segment is a failed teardown even if every request succeeded.

Exit code 0 on success; any assertion prints a diagnosis and exits 1.
Run locally with ``python tools/fleet_smoke.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))


def http(url: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def start_server(args: list[str], cwd: pathlib.Path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env=ENV, cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.time() + 120
    lines = []
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                break
            time.sleep(0.05)
            continue
        lines.append(line)
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            return process, match.group(1)
    process.kill()
    raise SystemExit(f"server never became ready:\n{''.join(lines)}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FLEET SMOKE FAILED: {message}")


def shm_segments() -> list[str]:
    try:
        return [
            name for name in os.listdir("/dev/shm")
            if name.startswith("repro-")
        ]
    except FileNotFoundError:
        return []


def main() -> int:
    # Diffed at the end: only segments created by THIS smoke count as
    # leaks (another process may legitimately hold a live substrate).
    preexisting = set(shm_segments())
    with tempfile.TemporaryDirectory() as tmp:
        cwd = pathlib.Path(tmp)
        snap = cwd / "snap"
        log = snap / "replication.log"

        subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "snapshot", "save",
                "--dataset", "email", "--out", str(snap),
            ],
            env=ENV, cwd=cwd, check=True, capture_output=True,
        )

        fleet, fleet_url = start_server(
            ["serve", "--snapshot", str(snap), "--fleet", "2", "--port", "0"],
            cwd,
        )
        follower, follower_url = start_server(
            ["serve", "--snapshot", str(snap), "--follow", str(log),
             "--port", "0"],
            cwd,
        )
        try:
            status, health = http(fleet_url + "/v1/healthz")
            check(status == 200 and health["status"] == "ok", f"fleet healthz {health}")
            check(health.get("replication_lag") == 0, f"fresh fleet has lag {health}")

            # 2. mutate through the fleet; the standby must catch up.
            status, update = http(
                fleet_url + "/v1/update-edges", {"insert": [[0, 700]]}
            )
            check(status == 200 and update["seq"] == 1, f"update failed {update}")
            deadline = time.time() + 30
            caught_up = False
            while time.time() < deadline:
                _s, fh = http(follower_url + "/v1/healthz")
                replication = fh.get("replication") or {}
                if replication.get("applied_seq") == 1 and fh["replication_lag"] == 0:
                    caught_up = True
                    break
                time.sleep(0.1)
            check(caught_up, "follower never caught up to seq 1")

            query = {"k": 4, "r": 3, "f": "sum"}
            _s, fleet_answer = http(fleet_url + "/v1/query", query)
            _s, standby_answer = http(follower_url + "/v1/query", query)
            check(
                fleet_answer == standby_answer,
                "standby answer diverged from fleet",
            )

            # 3. kill a replica; siblings must keep answering.
            members = [
                int(pid) for pid in
                subprocess.run(
                    ["pgrep", "-P", str(fleet.pid)],
                    capture_output=True, text=True,
                ).stdout.split()
            ]
            check(len(members) >= 2, f"expected >=2 member pids, got {members}")
            os.kill(members[0], signal.SIGKILL)
            time.sleep(0.5)
            survived = 0
            for _ in range(6):
                try:
                    status, _body = http(fleet_url + "/v1/healthz")
                    survived += status == 200
                except OSError:
                    pass
            check(survived >= 4, f"fleet unhealthy after member kill ({survived}/6)")
            status, _answer = http(fleet_url + "/v1/query", query)
            check(status == 200, "query failed after member kill")
        finally:
            # 4. graceful teardown.
            for process in (follower, fleet):
                if process.poll() is None:
                    process.send_signal(signal.SIGTERM)
            codes = [p.wait(timeout=60) for p in (follower, fleet)]
        check(codes == [0, 0], f"non-zero exits on SIGTERM: {codes}")

        # 5. refresh absorbs the log into the snapshot.
        refresh = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "snapshot", "refresh",
                "--snapshot", str(snap), "--log", str(log),
            ],
            env=ENV, cwd=cwd, capture_output=True, text=True,
        )
        check(refresh.returncode == 0, f"snapshot refresh failed: {refresh.stdout}{refresh.stderr}")
        manifest = json.loads((snap / "manifest.json").read_text())
        check(
            manifest.get("replication_seq") == 1,
            f"manifest seq {manifest.get('replication_seq')} != 1",
        )

    # 6. nothing left behind in /dev/shm.
    leaked = sorted(set(shm_segments()) - preexisting)
    check(not leaked, f"leaked /dev/shm segments: {leaked}")
    print("fleet smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
