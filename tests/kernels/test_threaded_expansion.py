"""Thread-safety of shared expansion state and threaded-expand parity.

A :class:`ComponentStructure` is documented as immutable-after-build and
shareable across any number of concurrent contexts, and the threaded
``expand`` path is documented as byte-identical to the sequential one.
Both claims are load-bearing (the serving engine pool and the expansion
thread pool rely on them), so both are pinned here under Hypothesis.
"""

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregators.registry import get_aggregator
from repro.core.kcore import connected_kcore_components
from repro.graphs.builder import graph_from_edges
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.influential import expansion_csr
from repro.influential.api import top_r_communities
from repro.influential.expansion import expansion_context, members_frozenset
from repro.influential.expansion_csr import CSRExpansionContext
from repro.influential.improved import tic_improved
from repro.serving.engine_pool import ExpansionEnginePool
from repro.utils import parallel
from repro.utils.counters import counting
from repro.utils.rng import make_rng
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


def test_threaded_expand_builds_each_tree_once_on_caller(monkeypatch):
    """The lazy spanning tree is resolved on the dispatching thread: with
    two expansion threads every pooled structure's tree is built exactly
    once, never on a worker, and the answers equal the sequential run's."""
    base = gnm_random_graph(200, 1600, seed=5)
    graph = base.with_weights(make_rng(6).uniform(0.1, 30.0, base.n))

    def solve(threads):
        monkeypatch.setenv(parallel.EXPANSION_THREADS_ENV_VAR, str(threads))
        result = top_r_communities(
            graph, k=8, r=32, f="sum", method="improved",
            engine_pool=ExpansionEnginePool(graph),
        )
        return [(tuple(sorted(c.vertices)), c.value.hex()) for c in result]

    sequential = solve(0)
    caller = threading.get_ident()
    builds = []
    threaded = []
    build_tree = expansion_csr._spanning_tree
    original_threaded = CSRExpansionContext._expand_threaded

    def spy_build(local):
        builds.append((local, threading.get_ident()))
        return build_tree(local)

    def spy_threaded(self, *args):
        threaded.append(len(self.members))
        yield from original_threaded(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(expansion_csr, "_spanning_tree", spy_build)
        patch.setattr(CSRExpansionContext, "_expand_threaded", spy_threaded)
        assert solve(2) == sequential
    assert threaded, "fixture must exercise the threaded replay"
    assert builds and all(ident == caller for __, ident in builds)
    # ``builds`` keeps every local CSR alive, so ids cannot be recycled.
    assert len({id(local) for local, __ in builds}) == len(builds)


def test_threaded_expand_counts_what_it_yields(monkeypatch):
    """``candidates`` and ``pruned`` are counted on the consuming thread,
    so one ``tic_improved`` call (which expands with ``rank=r``, the
    certified floor) records the same counts with and without expansion
    threads: speculative children are not counted, and a removal the
    live floor skips after its speculation ran is counted as pruned
    exactly as on the sequential path."""
    base = gnm_random_graph(200, 1600, seed=5)
    graph = base.with_weights(make_rng(6).uniform(0.1, 30.0, base.n))

    def counts():
        with counting() as tally:
            tic_improved(graph, 8, 32)
        return tally["candidates"], tally["pruned"]

    monkeypatch.delenv(parallel.EXPANSION_THREADS_ENV_VAR, raising=False)
    sequential = counts()
    assert min(sequential) > 0
    threaded = []
    original_threaded = CSRExpansionContext._expand_threaded

    def spy_threaded(self, *args):
        threaded.append(len(self.members))
        yield from original_threaded(self, *args)

    monkeypatch.setenv(parallel.EXPANSION_THREADS_ENV_VAR, "2")
    monkeypatch.setattr(CSRExpansionContext, "_expand_threaded", spy_threaded)
    assert counts() == sequential
    assert threaded, "fixture must exercise the threaded replay"


def test_closing_expand_closes_its_threaded_replay_first(monkeypatch):
    """Closing ``expand`` early closes its threaded replay, whose
    ``finally`` cancels queued speculation, before ``expand`` itself
    finishes: not whenever the replay happens to be freed."""
    base = gnm_random_graph(200, 1600, seed=5)
    graph = base.with_weights(make_rng(6).uniform(0.1, 30.0, base.n))
    aggregator = get_aggregator("sum")
    hasher = ZobristHasher(graph.n)
    events = []
    replays = []
    original_threaded = CSRExpansionContext._expand_threaded

    def replay(self, *args):
        try:
            yield from original_threaded(self, *args)
        finally:
            events.append("replay closed")

    def spy_threaded(self, *args):
        # Holding the replay here means freeing it cannot be what closes it.
        replays.append(replay(self, *args))
        return replays[-1]

    monkeypatch.setenv(parallel.EXPANSION_THREADS_ENV_VAR, "2")
    monkeypatch.setattr(CSRExpansionContext, "_expand_threaded", spy_threaded)
    monkeypatch.setattr(expansion_csr, "count", lambda name, n: events.append(name))
    (component,) = connected_kcore_components(graph, range(graph.n), 8)
    value = aggregator.value(graph, frozenset(component))
    iterator = expansion_context(
        graph, frozenset(component), 8, aggregator, value, hasher
    ).expand()
    next(iterator)
    iterator.close()
    assert events == ["replay closed", "candidates"]


def test_expansion_stays_sequential_unless_threads_are_set(monkeypatch):
    env_var = parallel.EXPANSION_THREADS_ENV_VAR
    monkeypatch.delenv(env_var, raising=False)
    assert parallel.expansion_threads() == 1
    assert parallel.expansion_executor() == (None, 0)
    for raw, threads in (("", 1), ("0", 1), ("1", 1), ("junk", 1), ("3", 3)):
        monkeypatch.setenv(env_var, raw)
        assert parallel.expansion_threads() == threads
