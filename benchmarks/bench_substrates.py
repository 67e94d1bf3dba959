"""Substrate ablation — not a paper figure, but engineering due diligence:
where does solver time go?  Core decomposition, PageRank, component
splitting and the expansion fast path are each measured in isolation.

The ``*_set`` / ``*_csr`` benchmark pairs compare the reference set
implementations (:mod:`repro.reference`, and the worklist peel behind
``kcore_of_subset``'s small-subset branch) with the production CSR
kernels on the same dataset; ``python benchmarks/bench_substrates.py``
runs the standalone old-vs-new comparison on a 50k-vertex random graph
and writes the measured speedups to ``BENCH_csr_backend.json``.
"""

from __future__ import annotations


from repro import reference
from repro.aggregators.summation import Sum
from repro.centrality.pagerank import pagerank
from repro.core.decomposition import core_decomposition
from repro.core.kcore import (
    connected_kcore_components,
    kcore_of_subset,
    kcore_worklist,
)
from repro.reference import ExpansionContext
from repro.truss.decomposition import edge_supports
from repro.utils.zobrist import ZobristHasher

#: Per kernel, the reference set implementation and the production one.
SET_KERNELS = {
    "core_decomposition": reference.core_decomposition,
    "kcore_of_subset": lambda graph, k: kcore_worklist(
        graph, set(range(graph.n)), k
    ),
    "edge_supports": reference.edge_supports,
}
CSR_KERNELS = {
    "core_decomposition": core_decomposition,
    "kcore_of_subset": lambda graph, k: kcore_of_subset(
        graph, range(graph.n), k
    ),
    "edge_supports": edge_supports,
}


def test_bench_core_decomposition(benchmark, email):
    benchmark.group = "substrate"
    cores = benchmark(core_decomposition, email)
    assert len(cores) == email.n


def test_bench_core_decomposition_set(benchmark, email):
    benchmark.group = "substrate-engines"
    cores = benchmark(SET_KERNELS["core_decomposition"], email)
    assert len(cores) == email.n


def test_bench_core_decomposition_csr(benchmark, email):
    benchmark.group = "substrate-engines"
    email.csr  # warm the cache: construction is once-per-graph, not per-call
    cores = benchmark(CSR_KERNELS["core_decomposition"], email)
    assert len(cores) == email.n


def test_bench_kcore_of_subset_set(benchmark, email):
    benchmark.group = "substrate-engines"
    core = benchmark(SET_KERNELS["kcore_of_subset"], email, 4)
    assert core


def test_bench_kcore_of_subset_csr(benchmark, email):
    benchmark.group = "substrate-engines"
    email.csr
    core = benchmark(CSR_KERNELS["kcore_of_subset"], email, 4)
    assert core


def test_bench_edge_supports_set(benchmark, email):
    benchmark.group = "substrate-engines"
    supports = benchmark(SET_KERNELS["edge_supports"], email)
    assert len(supports) == email.m


def test_bench_edge_supports_csr(benchmark, email):
    benchmark.group = "substrate-engines"
    email.csr
    supports = benchmark(CSR_KERNELS["edge_supports"], email)
    assert len(supports) == email.m


def test_engines_agree_on_email(email):
    import numpy as np

    assert np.array_equal(
        SET_KERNELS["core_decomposition"](email),
        CSR_KERNELS["core_decomposition"](email),
    )
    assert SET_KERNELS["kcore_of_subset"](email, 4) == (
        CSR_KERNELS["kcore_of_subset"](email, 4)
    )


def test_bench_pagerank(benchmark, email):
    benchmark.group = "substrate"
    ranks = benchmark(pagerank, email)
    assert abs(ranks.sum() - 1.0) < 1e-8


def test_bench_kcore_components(benchmark, email):
    benchmark.group = "substrate"
    comps = benchmark(connected_kcore_components, email, range(email.n), 4)
    assert comps


def test_bench_expansion_context_build(benchmark, email):
    benchmark.group = "substrate-expansion"
    component = frozenset(
        max(connected_kcore_components(email, range(email.n), 4), key=len)
    )
    value = Sum().value(email, component)
    hasher = ZobristHasher(email.n)
    ctx = benchmark(
        ExpansionContext, email, component, 4, Sum(), value, hasher
    )
    assert ctx.component == component


def test_bench_expansion_children(benchmark, email):
    benchmark.group = "substrate-expansion"
    component = frozenset(
        max(connected_kcore_components(email, range(email.n), 4), key=len)
    )
    value = Sum().value(email, component)
    ctx = ExpansionContext(email, component, 4, Sum(), value, ZobristHasher(email.n))
    vertices = sorted(component)[:50]

    def expand_fifty():
        total = 0
        for v in vertices:
            total += len(ctx.children_after_removal(v))
        return total

    produced = benchmark(expand_fifty)
    assert produced >= 0


def test_fast_path_is_common(email):
    """The articulation fast path should cover a healthy share of removals
    (that is what makes Algorithm 2 affordable at stand-in scale)."""
    component = frozenset(
        max(connected_kcore_components(email, range(email.n), 4), key=len)
    )
    ctx = ExpansionContext(
        email, component, 4, Sum(), Sum().value(email, component),
        ZobristHasher(email.n),
    )
    fast = 0
    for v in component:
        weak = [u for u in ctx.local_adj[v] if ctx.degree[u] == 4]
        if not weak and v not in ctx.articulation:
            fast += 1
    assert fast / len(component) > 0.2


# ----------------------------------------------------------------------
# Standalone old-vs-new comparison (the CSR refactor's receipts)
# ----------------------------------------------------------------------
def measure_backend_speedups(
    n: int = 50_000, m: int = 400_000, seed: int = 7, repeats: int = 3
) -> dict:
    """Time every rewritten kernel, reference set implementation against
    CSR, on one G(n, m) graph.

    Returns a JSON-ready report; kernel times are best-of-``repeats``.
    The CSR flattening cost is reported separately (it is paid once per
    graph, while the kernels run per query).
    """
    import time

    import numpy as np

    from repro.graphs.generators.random_graphs import gnm_random_graph

    def best_of(fn):
        times = []
        for __ in range(repeats):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        return min(times), result

    graph = gnm_random_graph(n, m, seed=seed)
    build_start = time.perf_counter()
    graph.csr
    csr_build_seconds = time.perf_counter() - build_start

    args = {
        "core_decomposition": (),
        "kcore_of_subset": (10,),
        "edge_supports": (),
    }
    report = {
        "benchmark": "csr_backend_speedups",
        "graph": {"model": "gnm", "n": graph.n, "m": graph.m, "seed": seed},
        "csr_build_seconds": round(csr_build_seconds, 4),
        "kernels": {},
    }
    for name, extra in args.items():
        set_seconds, set_result = best_of(
            lambda: SET_KERNELS[name](graph, *extra)
        )
        csr_seconds, csr_result = best_of(
            lambda: CSR_KERNELS[name](graph, *extra)
        )
        if isinstance(set_result, dict) or isinstance(set_result, set):
            agree = set_result == csr_result
        else:
            agree = bool(np.array_equal(set_result, csr_result))
        report["kernels"][name] = {
            "set_seconds": round(set_seconds, 4),
            "csr_seconds": round(csr_seconds, 4),
            "speedup": round(set_seconds / csr_seconds, 2),
            "results_agree": agree,
        }
    return report


def main() -> None:
    import json
    import pathlib

    report = measure_backend_speedups()
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_csr_backend.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
