"""End-to-end benchmark of ``repro serve`` and the solver library.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--repeat N]

Run from the root of a checkout.  The bench writes its graph files, sets
the program up through its own CLI in child processes (or, for
solve-cold, calls the library in a child), drives it with traffic drawn
from the seed, checks the answers, and prints every metric by name with
its unit and sample count.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics, or with ``--trace`` the per-layer ones.  Without
``--workload`` all three workloads run in turn.  ``--repeat N`` reports
each metric's median, quartiles and min-max over N runs; with
``--trace`` it alternates untraced and traced runs and reports the
tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORK = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("serve-zipf", "serve-rw", "solve-cold")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=20.0, help="measured phase length"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="record spans and report per-layer metrics",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--n", type=int, default=None, help="graph vertices")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat must be >= 1 and --seconds > 0")
    return args


def commit() -> str:
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return probe.stdout.strip() if probe.returncode == 0 else "unknown"


def pin_to_one_cpu() -> tuple[int, int]:
    """Confine the bench, and every process it starts, to one CPU.

    Returns how many CPUs it could use and the one it kept.  On a shared
    2-vCPU host, each request handed between processes on two vCPUs waited
    for the host to wake the idle one.  On one CPU, cache hits were
    answered twice as fast and their latency spread a third as much
    between runs.
    """
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def header(inputs, args, cpus: int, cpu: int) -> str:
    from repro.kernels import kernel_backend
    from repro.utils.parallel import expansion_threads

    return (
        f"# e2e bench  commit={commit()}  graph={inputs.shape}  seed={args.seed}  "
        f"cpus={cpus}  pinned_to=cpu{cpu}  kernels={kernel_backend()}  "
        f"expansion_threads={expansion_threads()}  "
        f"python={platform.python_version()}  seconds={args.seconds:g}"
    )


def print_run(run, traced: bool) -> None:
    print(f"== {run.workload}{'  [traced]' if traced else ''}")
    for name, (value, unit, n) in {**run.metrics, **run.extra}.items():
        print(f"  {name:<24} {value:>12.4f} {unit:<6} n={n}")
    status = "ok" if not run.problems else f"{len(run.problems)} PROBLEM(S)"
    print(
        f"  answers_digest {run.digest}  checks {status}  "
        f"attempted={run.attempted} failed={run.failed} "
        f"fail_frac={run.failed / run.attempted:.4f}"
    )
    for problem in run.problems[:20]:
        print(f"  ! {problem}")
    if traced:
        for name, value in sorted(run.layers.items()):
            print(f"  {name:<40} {value:>12.4f}")


def summarize(name: str, values: list[float], unit: str) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"  {name:<24} {median:>12.4f} {unit}"
    q1, __, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return (
        f"  {name:<24} median {median:>11.4f} {unit:<6} q1 {q1:.4f} q3 {q3:.4f}  "
        f"min {min(values):.4f} max {max(values):.4f}  iqr/median {spread:.1%}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated bench still stops its servers: SystemExit unwinds them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpus, cpu = pin_to_one_cpu()

    from inputs import GRAPH_N, make_inputs
    from workloads import E2E, LAYERS, RUNNERS

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    shutil.rmtree(WORK, ignore_errors=True)
    inputs = make_inputs(WORK / "inputs", args.n or GRAPH_N)
    print(header(inputs, args, cpus, cpu))

    catalog = LAYERS if args.trace else E2E
    modes = [False, True] if args.trace and args.repeat > 1 else [bool(args.trace)]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        runs = {False: [], True: []}
        for __ in range(args.repeat):
            for traced in modes:
                workdir = WORK / name
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                run = RUNNERS[name](inputs, workdir, args.seconds, args.seed, traced)
                if traced:
                    for metric, __ in E2E:
                        run.layers[f"traced.{metric}"] = run.metrics[metric][0]
                print_run(run, traced)
                runs[traced].append(run)
                result["correct"] &= not run.problems
                result["attempted"] += run.attempted
                result["failed"] += run.failed
        digests = {run.digest for run in runs[False] + runs[True]}
        if len(digests) > 1:
            print(f"  ! answers_digest differs between runs: {sorted(digests)}")
            result["correct"] = False
        values = {
            traced: {
                metric: [
                    run.layers.get(metric, 0.0) if traced else run.metrics[metric][0]
                    for run in runs[traced]
                ]
                for metric, __ in (LAYERS if traced else E2E)
            }
            for traced in modes
        }
        if args.repeat > 1:
            for traced in modes:
                kind = "traced runs, per layer" if traced else "runs"
                print(f"-- {name}: {args.repeat} {kind}")
                for metric, unit in LAYERS if traced else E2E:
                    print(summarize(metric, values[traced][metric], unit))
        if args.trace and args.repeat > 1:
            print(f"-- {name}: tracing overhead, traced median - untraced median")
            for metric, unit in E2E:
                traced = statistics.median(r.metrics[metric][0] for r in runs[True])
                plain = statistics.median(r.metrics[metric][0] for r in runs[False])
                change = f"{(traced - plain) / plain:+.1%}"
                print(f"  {metric:<24} {traced - plain:>+12.4f} {unit:<6} ({change})")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in catalog:
            result["metrics"][prefix + metric] = {
                "value": statistics.median(values[bool(args.trace)][metric]),
                "unit": unit,
            }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
