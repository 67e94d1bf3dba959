"""Kernel-tier receipts: dispatched backend vs the pure-numpy fallback.

PR 8 ported the three hottest profile entries — the cascade peel, the
mask BFS behind component splits, the core-decomposition inner loop —
plus ``arc_supports`` to compiled Numba kernels (:mod:`repro.kernels`),
with the numpy implementations retained as an automatic fallback.  This
bench times each kernel twice on the same arrays: once through the
dispatch (whatever backend the process imported — ``numba`` with the
``[fast]`` extra installed, ``numpy`` otherwise) and once pinned to the
fallback.  On a Numba machine the ratio is the compiled speedup the PR
claims (>= 3x on the headline peel); on a fallback-only machine both
legs are the same code and every ratio sits at ~1.0 — the JSON records
``backend`` so a reader knows which regime it is looking at.

``python benchmarks/bench_kernels.py`` writes ``BENCH_kernels.json``;
``--ci`` shrinks the graph for CI, which uploads the report.  The run
exits 1 when a dispatched kernel disagrees with its numpy fallback.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro import kernels
from repro.core.kcore import connected_kcore_components
from repro.influential.expansion_csr import ComponentStructure, MemberArray
from repro.kernels import _numpy as fallback
from repro.reference import _articulation_vertices
from repro.utils.zobrist import ZobristHasher

DEFAULT_N = 200_000
DEFAULT_M = 1_600_000


# ----------------------------------------------------------------------
# pytest-benchmark entries (representative dataset, dispatched backend)
# ----------------------------------------------------------------------
def test_bench_core_numbers_kernel(benchmark, email):
    benchmark.group = "kernel-tier"
    csr = email.csr
    cores = benchmark(kernels.core_numbers, csr.indptr, csr.indices)
    assert cores.size == email.n


def test_bench_peel_kernel(benchmark, email):
    benchmark.group = "kernel-tier"
    csr = email.csr

    def peel():
        mask = np.ones(email.n, dtype=bool)
        degrees = csr.degrees().copy()
        kernels.peel_to_kcore(csr.indptr, csr.indices, mask, 10, degrees)
        return mask

    mask = benchmark(peel)
    assert mask.any()


def test_bench_components_kernel(benchmark, email):
    benchmark.group = "kernel-tier"
    csr = email.csr
    mask = np.ones(email.n, dtype=bool)
    pieces = benchmark(
        kernels.components_of_mask, csr.indptr, csr.indices, mask
    )
    assert sum(piece.size for piece in pieces) == email.n


def test_bench_articulation_mask(benchmark, email):
    """The expansion engine's articulation mask (a Tarjan–Vishkin test
    over the structure's spanning tree) on the largest 4-core component,
    checked vertex for vertex against the reference Tarjan walk."""
    benchmark.group = "kernel-tier"
    hasher = ZobristHasher(email.n)
    component = max(connected_kcore_components(email, range(email.n), 4), key=len)
    members = MemberArray.from_iterable(component, hasher)
    structure = ComponentStructure.build(email, members, 4, hasher)
    structure.tree  # built once, like a pooled structure's

    def mask():
        structure._articulation = None  # recompute the lazy mask
        return structure.articulation

    ours = benchmark(mask)
    local = structure.local
    adjacency = {i: set(local.neighbors(i).tolist()) for i in range(local.n)}
    assert set(np.flatnonzero(ours).tolist()) == _articulation_vertices(adjacency)


# ----------------------------------------------------------------------
# Standalone dispatch-vs-fallback comparison
# ----------------------------------------------------------------------
def _bench_graph(n: int, m: int, seed: int):
    from repro.graphs.generators.random_graphs import gnm_random_graph

    graph = gnm_random_graph(n, m, seed=seed)
    graph.csr  # flatten once, outside the timed region
    return graph


def _forward_arcs(csr):
    """The degree orientation ``edge_supports`` feeds to the kernel."""
    n = csr.n
    degree = csr.degrees()
    order = np.lexsort((np.arange(n), degree))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    keep = position[src] < position[csr.indices]
    fdst = csr.indices[keep]
    fptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n), out=fptr[1:])
    return fptr, fdst


def _timed(fn, repeats: int):
    times = []
    result = None
    for __ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def measure_kernel_speedups(
    n: int = DEFAULT_N,
    m: int = DEFAULT_M,
    k: int = 10,
    seed: int = 7,
    repeats: int = 3,
) -> dict:
    """Dispatch-vs-fallback timings per kernel, as a JSON-ready dict."""
    graph = _bench_graph(n, m, seed)
    csr = graph.csr
    fptr, fdst = _forward_arcs(csr)
    full_mask = np.ones(csr.n, dtype=bool)

    def run_peel(impl):
        mask = full_mask.copy()
        degrees = csr.degrees().copy()
        impl.peel_to_kcore(csr.indptr, csr.indices, mask, k, degrees)
        return mask

    cases = {
        "peel_to_kcore": run_peel,
        "components_of_mask": lambda impl: impl.components_of_mask(
            csr.indptr, csr.indices, full_mask
        ),
        "core_numbers": lambda impl: impl.core_numbers(
            csr.indptr, csr.indices
        ),
        "arc_supports": lambda impl: impl.arc_supports(fptr, fdst),
    }
    if kernels.NUMBA_AVAILABLE:
        # JIT warm-up outside the timed region (first call compiles; the
        # on-disk cache makes later processes skip this).
        for case in cases.values():
            case(kernels)
    report = {
        "benchmark": "kernel_tier",
        "backend": kernels.kernel_backend(),
        "parameters": {"k": k, "seed": seed, "repeats": repeats},
        "graph": {"model": "gnm", "n": graph.n, "m": graph.m},
        "kernels": {},
    }
    for name, case in cases.items():
        dispatch_seconds, dispatched = _timed(lambda: case(kernels), repeats)
        numpy_seconds, pure = _timed(lambda: case(fallback), repeats)
        if isinstance(dispatched, list):
            agree = len(dispatched) == len(pure) and all(
                np.array_equal(a, b) for a, b in zip(dispatched, pure)
            )
        else:
            agree = np.array_equal(dispatched, pure)
        report["kernels"][name] = {
            "numpy_seconds": round(numpy_seconds, 5),
            "dispatch_seconds": round(dispatch_seconds, 5),
            "speedup": round(numpy_seconds / dispatch_seconds, 2),
            "results_agree": bool(agree),
        }
    return report


def correctness_failures(report: dict) -> list[str]:
    """Every way ``report`` shows a fast path disagreeing with its oracle."""
    return [
        f"{name}: dispatch/fallback results disagree"
        for name, entry in report["kernels"].items()
        if entry.get("results_agree") is not True
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--m", type=int, default=DEFAULT_M)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--ci", action="store_true",
        help="shrunk graph for the CI report and correctness check",
    )
    parser.add_argument(
        "--output", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_kernels.json",
    )
    args = parser.parse_args()
    if args.ci:
        args.n, args.m = 50_000, 400_000
    report = measure_kernel_speedups(
        n=args.n, m=args.m, k=args.k, repeats=args.repeats
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    failures = correctness_failures(report)
    for failure in failures:
        print(f"::error::bench_kernels: {failure}")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
