"""Solver-level old-vs-new: end-to-end Algorithm 1/2 under both engines.

PR 1 benchmarked the substrate kernels; this file measures what the user
actually waits for — a whole ``sum_naive`` / ``tic_improved`` query — with
the expansion machinery on the reference set engine ("old": dict
adjacency, Python Tarjan, frozenset copies — selected by
:func:`repro.reference.set_engine`) versus the CSR engine of
:mod:`repro.influential.expansion_csr` ("new": component-local CSR, array
cascades, int32 member arrays).

``python benchmarks/bench_solvers.py`` runs the standalone comparison at
the paper's default parameters (r=5, eps=0.1, k=10) and writes
``BENCH_solver_expansion.json``: ``tic_improved`` (both the eps=0.1 Approx
and eps=0 Improve configurations) on a G(50k, 400k) random graph, and
``sum_naive`` on a smaller companion graph — Algorithm 1 expands *every*
vertex of every retained community, so the set engine needs hours at 50k;
the scaled-down instance keeps the old/new comparison honest and
affordable.  ``--ci`` shrinks everything for CI, which uploads the
report; the run exits 1 when the two engines disagree.  The speedup is
gated by the experiment grid's ``reference`` tier
(``repro bench grid``).  The pytest-benchmark entries below cover the
email stand-in, including ``min``/``max`` queries answered from the
community forest.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from contextlib import nullcontext

import pytest

from repro import reference
from repro.influential.api import top_r_communities
from repro.influential.improved import tic_improved
from repro.influential.naive_sum import sum_naive
from repro.reference import set_engine

DEFAULT_K = 10
DEFAULT_R = 5
DEFAULT_EPS = 0.1


# ----------------------------------------------------------------------
# pytest-benchmark entries (representative dataset, both engines)
# ----------------------------------------------------------------------
def _engine(name: str):
    """Scope for one engine: the reference set engine or production CSR."""
    return set_engine() if name == "set" else nullcontext()


def test_bench_tic_improved_set_engine(benchmark, email):
    benchmark.group = "solver-engines"
    with set_engine():
        result = benchmark(tic_improved, email, 4, DEFAULT_R, None, 0.1)
    assert len(result)


def test_bench_tic_improved_csr_engine(benchmark, email):
    benchmark.group = "solver-engines"
    email.csr
    result = benchmark(tic_improved, email, 4, DEFAULT_R, None, 0.1)
    assert len(result)


def test_bench_sum_naive_set_engine(benchmark, email):
    benchmark.group = "solver-engines"
    with set_engine():
        result = benchmark(sum_naive, email, 4, DEFAULT_R)
    assert len(result)


def test_bench_sum_naive_csr_engine(benchmark, email):
    benchmark.group = "solver-engines"
    email.csr
    result = benchmark(sum_naive, email, 4, DEFAULT_R)
    assert len(result)


def test_solver_engines_agree_on_email(email):
    csr_improved = tic_improved(email, 4, DEFAULT_R, eps=0.1)
    csr_naive = sum_naive(email, 4, DEFAULT_R)
    with set_engine():
        assert tic_improved(email, 4, DEFAULT_R, eps=0.1) == csr_improved
        assert sum_naive(email, 4, DEFAULT_R) == csr_naive


@pytest.mark.parametrize("f", ["min", "max"])
def test_bench_minmax_forest(benchmark, email, f):
    benchmark.group = "minmax-forest"
    email.csr
    result = benchmark(top_r_communities, email, 4, 10, f)
    family = reference.min_family if f == "min" else reference.max_family
    assert list(result) == sorted(family(email, 4))[:10]


# ----------------------------------------------------------------------
# Standalone old-vs-new comparison (the expansion engine's receipts)
# ----------------------------------------------------------------------
def _weighted_gnm(n: int, m: int, seed: int):
    from repro.graphs.generators.random_graphs import gnm_random_graph
    from repro.utils.rng import make_rng

    graph = gnm_random_graph(n, m, seed=seed)
    rng = make_rng(seed + 1)
    graph = graph.with_weights(rng.uniform(0.0, 100.0, graph.n))
    graph.csr  # warm: the flattening is once-per-topology, not per-query
    return graph


def _timed(fn, repeats: int, engine: str):
    times = []
    result = None
    for __ in range(repeats):
        with _engine(engine):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
    return min(times), result


def measure_solver_speedups(
    n: int = 50_000,
    m: int = 400_000,
    naive_n: int = 2_000,
    naive_m: int = 16_000,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    eps: float = DEFAULT_EPS,
    seed: int = 7,
    repeats: int = 1,
) -> dict:
    """End-to-end solver timings under both engines, as a JSON-ready dict.

    Each entry reports set seconds, csr seconds, the speedup, and whether
    the two engines returned identical result sets (they must).
    """
    large = _weighted_gnm(n, m, seed)
    small = _weighted_gnm(naive_n, naive_m, seed)
    report = {
        "benchmark": "solver_expansion_speedups",
        "parameters": {"k": k, "r": r, "eps": eps, "seed": seed},
        "graphs": {
            "tic_improved": {"model": "gnm", "n": large.n, "m": large.m},
            "sum_naive": {"model": "gnm", "n": small.n, "m": small.m},
        },
        "solvers": {},
    }
    cases = {
        "tic_improved_approx": lambda: tic_improved(large, k, r, eps=eps),
        "tic_improved_exact": lambda: tic_improved(large, k, r, eps=0.0),
        "sum_naive": lambda: sum_naive(small, k, r),
    }
    for name, solver in cases.items():
        csr_seconds, csr_result = _timed(solver, repeats, "csr")
        set_seconds, set_result = _timed(solver, repeats, "set")
        report["solvers"][name] = {
            "set_seconds": round(set_seconds, 4),
            "csr_seconds": round(csr_seconds, 4),
            "speedup": round(set_seconds / csr_seconds, 2),
            "results_agree": set_result == csr_result,
            "communities": len(csr_result),
        }
    return report


def correctness_failures(report: dict) -> list[str]:
    """Every way ``report`` shows a fast path disagreeing with its oracle."""
    return [
        f"{name}: set/csr results disagree"
        for name, entry in report["solvers"].items()
        if entry.get("results_agree") is not True
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--m", type=int, default=400_000)
    parser.add_argument("--naive-n", type=int, default=2_000)
    parser.add_argument("--naive-m", type=int, default=16_000)
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    parser.add_argument("--r", type=int, default=DEFAULT_R)
    parser.add_argument("--eps", type=float, default=DEFAULT_EPS)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--ci", action="store_true",
        help="shrunk graphs for the CI report and correctness check",
    )
    parser.add_argument(
        "--output", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_solver_expansion.json",
    )
    args = parser.parse_args()
    if args.ci:
        args.n, args.m = 8_000, 64_000
        args.naive_n, args.naive_m = 1_000, 8_000
    report = measure_solver_speedups(
        n=args.n, m=args.m, naive_n=args.naive_n, naive_m=args.naive_m,
        k=args.k, r=args.r, eps=args.eps, repeats=args.repeats,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    failures = correctness_failures(report)
    for failure in failures:
        print(f"::error::bench_solvers: {failure}")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
