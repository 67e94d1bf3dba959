"""The engine pool builds structures only for pops that can still place.

TIC-IMPROVED's Line-13 bound (``f(H) > f(Lr)``, Corollary 2) often rules
out every removal of a popped community once the candidate list holds
``r`` values.  The CSR expansion engine applies that bound as a value
prefilter *before* it resolves the community's structure, so such a
"dead" pop must not ask the pool for one — and the answers must not move.
"""

import threading

import numpy as np
import pytest

from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.influential.api import top_r_communities
from repro.influential.expansion_csr import CSRExpansionContext
from repro.reference import set_engine
from repro.serving.engine_pool import ExpansionEnginePool
from repro.utils import parallel
from repro.utils.rng import make_rng

DEPTH = 32
K = 8


@pytest.fixture(scope="module")
def graph():
    # One 200-vertex seed component at k=8 and spread-out weights: the
    # depth-32 capture pops a mix of communities with and without a
    # removal that clears the bound.
    base = gnm_random_graph(200, 1600, seed=5)
    return base.with_weights(make_rng(6).uniform(0.1, 30.0, base.n))


def _fingerprint(result):
    return [
        (tuple(sorted(community.vertices)), community.value.hex())
        for community in result
    ]


@pytest.mark.parametrize("threads", [0, 2])
@pytest.mark.parametrize("f", ["sum", "sum-surplus(1)"])
def test_dead_pops_build_no_structure(graph, monkeypatch, threads, f):
    monkeypatch.setenv(parallel.EXPANSION_THREADS_ENV_VAR, str(threads))
    pool = ExpansionEnginePool(graph)
    caller = threading.get_ident()
    pops = []
    threaded = []

    original_expand = CSRExpansionContext.expand
    original_threaded = CSRExpansionContext._expand_threaded
    original_structure_for = ExpansionEnginePool.structure_for
    alpha = 1.0 if f.startswith("sum-surplus") else 0.0

    def spy_expand(self, floor=float("-inf")):
        start = floor() if callable(floor) else floor
        losses = self.graph.weights[self.members.ids] + alpha
        eligible = bool(np.any(self.parent_value - losses >= start))
        before = pool.structure_misses
        try:
            yield from original_expand(self, floor)
        finally:
            misses = pool.structure_misses - before
            pops.append((len(self.members), eligible, misses))

    def spy_threaded(self, *args):
        threaded.append(len(self.members))
        yield from original_threaded(self, *args)

    def spy_structure_for(self, members, k):
        # The pool is not thread-safe: a worker thread must never be the
        # one resolving a lazy structure.
        assert threading.get_ident() == caller
        return original_structure_for(self, members, k)

    with monkeypatch.context() as patch:
        patch.setattr(CSRExpansionContext, "expand", spy_expand)
        patch.setattr(CSRExpansionContext, "_expand_threaded", spy_threaded)
        patch.setattr(ExpansionEnginePool, "structure_for", spy_structure_for)
        pooled = top_r_communities(
            graph, k=K, r=DEPTH, f=f, method="improved", engine_pool=pool,
        )

    assert pops[0][0] == graph.n  # the first pop is the whole seed
    eligible = [pop for pop in pops if pop[1]]
    dead = [pop for pop in pops if not pop[1]]
    assert eligible and dead, "fixture must pop both kinds"
    # One miss per pop that can still place, none for a dead pop.
    assert all(misses == (1 if live else 0) for __, live, misses in pops)
    assert pool.structure_misses == len(eligible)
    if threads:
        assert threaded, "fixture must exercise the threaded replay"

    expected = _fingerprint(pooled)
    poolless = top_r_communities(graph, k=K, r=DEPTH, f=f, method="improved")
    with set_engine():
        oracle = top_r_communities(graph, k=K, r=DEPTH, f=f, method="improved")
    assert len(expected) == DEPTH
    assert _fingerprint(poolless) == expected
    assert _fingerprint(oracle) == expected
