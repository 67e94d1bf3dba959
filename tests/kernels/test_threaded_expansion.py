"""Thread-safety of shared expansion state and threaded-expand parity.

A :class:`ComponentStructure` is documented as immutable-after-build and
shareable across any number of concurrent contexts, and the threaded
``expand`` path is documented as byte-identical to the sequential one.
Both claims are load-bearing (the serving engine pool and the expansion
thread pool rely on them), so both are pinned here under Hypothesis.
"""

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregators.registry import get_aggregator
from repro.core.kcore import connected_kcore_components
from repro.graphs.builder import graph_from_edges
from repro.influential.expansion import expansion_context, members_frozenset
from repro.utils import parallel
from repro.utils.zobrist import ZobristHasher


@st.composite
def weighted_graphs(draw, min_n=4, max_n=16, max_edges=48):
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=max_edges)
    )
    weights = draw(st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n))
    return graph_from_edges(edges, weights=weights, n=n)


def _flatten(children):
    return [
        (members_frozenset(child.vertices), child.value, child.key)
        for child in children
    ]


@given(weighted_graphs(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_concurrent_children_match_sequential(graph, k):
    """N threads hammering ``children_after_removal`` against one shared
    ComponentStructure produce exactly the sequential answers — including
    through the lazily initialised articulation mask, which every thread
    races to compute on its first cascade."""
    aggregator = get_aggregator("sum")
    hasher = ZobristHasher(graph.n)
    for component in connected_kcore_components(graph, range(graph.n), k):
        value = aggregator.value(graph, frozenset(component))
        ctx = expansion_context(
            graph, frozenset(component), k, aggregator, value, hasher
        )
        vertices = sorted(component)
        expected = {}
        for vertex in vertices:
            expected[vertex] = _flatten(ctx.children_after_removal(vertex))
        # Fresh context so the articulation mask is recomputed under
        # contention rather than inherited from the sequential pass.
        shared = expansion_context(
            graph, frozenset(component), k, aggregator, value, hasher
        )
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = {
                vertex: pool.submit(shared.children_after_removal, vertex)
                for vertex in vertices
                for __ in range(2)  # duplicate submissions raise contention
            }
            for vertex, future in futures.items():
                assert _flatten(future.result()) == expected[vertex], vertex


@given(weighted_graphs(), st.integers(1, 3), st.floats(0.0, 0.99))
@settings(max_examples=30, deadline=None)
def test_threaded_expand_matches_sequential(graph, k, rel_floor):
    """``expand`` with the thread pool forced on emits the byte-identical
    child sequence (same order, values, keys) as the sequential path,
    with and without a live floor."""
    aggregator = get_aggregator("sum")
    hasher = ZobristHasher(graph.n)
    for component in connected_kcore_components(graph, range(graph.n), k):
        value = aggregator.value(graph, frozenset(component))
        floor = rel_floor * value
        for use_floor in (False, True):
            sequential = _run_with_threads(
                graph, component, k, aggregator, value, hasher,
                floor if use_floor else None, threads=0,
            )
            threaded = _run_with_threads(
                graph, component, k, aggregator, value, hasher,
                floor if use_floor else None, threads=2,
            )
            assert threaded == sequential, (k, use_floor)


@contextlib.contextmanager
def _pinned_threads(threads):
    """Pin REPRO_EXPANSION_THREADS for the duration of one expansion."""
    env_var = parallel.EXPANSION_THREADS_ENV_VAR
    previous = os.environ.get(env_var)
    os.environ[env_var] = str(threads)
    try:
        yield
    finally:
        if previous is None:
            del os.environ[env_var]
        else:
            os.environ[env_var] = previous


def _run_with_threads(
    graph, component, k, aggregator, value, hasher, floor, threads
):
    """Expand one component with REPRO_EXPANSION_THREADS pinned."""
    with _pinned_threads(threads):
        ctx = expansion_context(
            graph, frozenset(component), k, aggregator, value, hasher
        )
        iterator = ctx.expand() if floor is None else ctx.expand(floor)
        return _flatten(iterator)


@given(weighted_graphs(min_n=6), st.integers(1, 2))
@settings(max_examples=15, deadline=None)
def test_threaded_expand_abandoned_generator(graph, k):
    """Abandoning a threaded expand mid-stream (the solver's early-exit
    pattern) must not wedge the shared pool or leak state into the next
    expansion."""
    aggregator = get_aggregator("sum")
    hasher = ZobristHasher(graph.n)
    for component in connected_kcore_components(graph, range(graph.n), k):
        value = aggregator.value(graph, frozenset(component))
        full = _run_with_threads(
            graph, component, k, aggregator, value, hasher, None, threads=0
        )
        with _pinned_threads(2):
            ctx = expansion_context(
                graph, frozenset(component), k, aggregator, value, hasher
            )
            iterator = ctx.expand()
            taken = []
            for child in iterator:
                taken.append(
                    (members_frozenset(child.vertices), child.value, child.key)
                )
                if len(taken) >= 2:
                    break
            iterator.close()
            again = _flatten(
                expansion_context(
                    graph, frozenset(component), k, aggregator, value,
                    hasher,
                ).expand()
            )
        assert taken == full[: len(taken)]
        assert again == full
