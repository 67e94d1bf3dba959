"""Smoke test of the end-to-end benchmark at toy size.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs all three workloads on a 1500-vertex graph with one-second phases,
then checks that every end-to-end metric is printed with its unit, that
the answer checks pass, and that no server or child process outlives a
run -- a finished one, or one that failed half way.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
TOY_N = 1500
WORKLOADS = ("serve-zipf", "serve-rw", "solve-cold")


def bench(*args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--n", str(TOY_N), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env=None if env is None else {**os.environ, **env},
    )


def bench_processes() -> list[str]:
    """Command lines of live processes the bench starts."""
    markers = (str(BENCH_DIR / ".work"), "solve_child.py", "traced_serve.py")
    alive = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if any(marker in cmdline for marker in markers):
            alive.append(cmdline)
    return alive


@pytest.fixture(scope="module")
def toy_run() -> subprocess.CompletedProcess:
    return bench("--seconds", "1", "--seed", "3")


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import inputs
    import workloads

    return inputs, workloads


def test_every_workload_prints_every_metric_with_its_unit(toy_run, bench_modules):
    __, workloads = bench_modules
    assert toy_run.returncode == 0, toy_run.stdout + toy_run.stderr
    lines = toy_run.stdout.splitlines()
    result = json.loads(lines[-1])
    for workload in WORKLOADS:
        start = lines.index(f"== {workload}") + 1
        ends = [i for i in range(start, len(lines)) if lines[i].startswith("== ")]
        section = lines[start : ends[0] if ends else len(lines)]
        for name, unit in workloads.E2E:
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert any(
                line.split()[:1] == [name] and unit in line.split() for line in section
            ), f"{workload}: {name} not printed with {unit}"


def test_answer_checks_pass(toy_run):
    result = json.loads(toy_run.stdout.splitlines()[-1])
    assert result["correct"], toy_run.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert toy_run.stdout.count("checks ok") == len(WORKLOADS)


def test_no_process_outlives_a_run(toy_run):
    assert toy_run.returncode == 0
    assert bench_processes() == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_traced_run_reconciles_span_self_times(bench_modules, threads):
    """Also with the expansion pool on, whose kernel spans run on its own
    threads inside the main thread's solver calls."""
    __, workloads = bench_modules
    done = bench(
        "--workload",
        "solve-cold",
        "--seconds",
        "1",
        "--trace",
        env={"REPRO_EXPANSION_THREADS": threads},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"expansion_threads={threads}" in done.stdout.splitlines()[0]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    assert set(result["metrics"]) == {name for name, __ in workloads.LAYERS}
    assert abs(result["metrics"]["trace.self_time_frac"]["value"] - 1.0) <= 0.05
    spans = json.loads((BENCH_DIR / ".work/solve-cold/spans-solve.json").read_text())
    pooled = {span[5] for span in spans["spans"] if span[5] != "MainThread"}
    assert bool(pooled) == (threads != "1")
    assert bench_processes() == []


def test_servers_stop_when_a_run_fails(bench_modules, monkeypatch):
    inputs, workloads = bench_modules
    started = []
    real_start = workloads.start_server

    def spy(*args, **kwargs):
        server, timing = real_start(*args, **kwargs)
        started.append(server)
        return server, timing

    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(workloads, "start_server", spy)
    monkeypatch.setattr(workloads, "verify_keys", fail)
    workdir = BENCH_DIR / ".work" / "smoke-failure"
    toy = inputs.make_inputs(workdir / "inputs", TOY_N)
    with pytest.raises(RuntimeError, match="injected failure"):
        workloads.run_serve_zipf(toy, workdir, 0.2, 1, False)
    assert len(started) == workloads.SETUPS
    assert all(server.proc.poll() is not None for server in started)
    assert bench_processes() == []
