"""The engine pool builds structures only for pops that can still place.

TIC-IMPROVED's Line-13 bound (``f(H) > f(Lr)``, Corollary 2) often rules
out every removal of a popped community once the candidate list holds
``r`` values.  The CSR expansion engine applies that bound as a value
prefilter *before* it resolves the community's structure, so such a
"dead" pop must not ask the pool for one — and the answers must not move.

The structures' lazily built spanning trees ride the same cache: one
build per pooled structure across queries, kept by ``reweight``, and
dropped together with any structure an edge write invalidates.
"""

import threading

import numpy as np
import pytest

from repro.graphs.delta import GraphDelta
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.influential import expansion_csr
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

    def spy_expand(self, floor=float("-inf"), rank=None):
        start = floor() if callable(floor) else floor
        losses = self.graph.weights[self.members.ids] + alpha
        eligible = bool(np.any(self.parent_value - losses >= start))
        before = pool.structure_misses
        try:
            yield from original_expand(self, floor, rank)
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


def _spy_tree_builds(patch):
    """Record every spanning-tree build as ``id(local) -> (local, tree)``
    (holding ``local`` keeps its id from being recycled)."""
    builds = {}
    build_tree = expansion_csr._spanning_tree

    def spy(local):
        assert id(local) not in builds, "tree built twice for one structure"
        tree = build_tree(local)
        builds[id(local)] = (local, tree)
        return tree

    patch.setattr(expansion_csr, "_spanning_tree", spy)
    return builds


def _pooled(pool):
    """Every structure the pool holds: pinned seeds plus the LRU."""
    seeds = [
        structure
        for state in pool._per_k.values()
        for structure in state.structures
        if structure is not None
    ]
    return seeds + list(pool._structures.values())


def _solve(graph, pool):
    return _fingerprint(
        top_r_communities(
            graph, k=K, r=DEPTH, f="sum", method="improved", engine_pool=pool,
        )
    )


def test_tree_built_once_per_pooled_structure(graph, monkeypatch):
    pool = ExpansionEnginePool(graph)
    with monkeypatch.context() as patch:
        builds = _spy_tree_builds(patch)
        first = _solve(graph, pool)
        after_first = len(builds)
        assert _solve(graph, pool) == first
    assert after_first, "fixture must cascade"
    # The repeat query pops the same communities: every tree is reused.
    assert len(builds) == after_first


def test_reweight_keeps_trees(graph, monkeypatch):
    pool = ExpansionEnginePool(graph)
    reweighted = graph.with_weights(make_rng(7).uniform(0.1, 30.0, graph.n))
    with monkeypatch.context() as patch:
        builds = _spy_tree_builds(patch)
        _solve(graph, pool)
        trees = {id(s): s.tree for s in _pooled(pool) if id(s.local) in builds}
        assert trees
        pool.reweight(reweighted)
        kept = [s.tree is trees[id(s)] for s in _pooled(pool) if id(s) in trees]
        assert kept and all(kept)
        assert _solve(reweighted, pool) == _solve(reweighted, None)


def test_edge_write_drops_stale_trees(graph):
    """Deleting a tree edge of the seed's spanning tree must drop the seed
    structure and its tree; every tree the pool serves afterwards spans
    the post-write graph with edges that still exist."""
    pool = ExpansionEnginePool(graph)
    _solve(graph, pool)
    (seed_members,) = pool.seed_members(K)
    seed = pool.structure_for(seed_members, K)
    tree = seed.tree
    child = int(np.flatnonzero(tree.parent != np.arange(len(seed_members)))[0])
    ids = seed_members.ids
    edge = (int(ids[child]), int(ids[tree.parent[child]]))
    report = GraphDelta(graph, core_numbers=pool.core_numbers).apply(
        delete=[edge]
    )
    pool.apply_update(
        report.graph,
        report.core_numbers,
        report.max_affected_core,
        report.inserted + report.deleted,
    )
    assert all(structure is not seed for structure in _pooled(pool))
    assert _solve(report.graph, pool) == _solve(report.graph, None)
    adjacency = report.graph.adjacency
    # Reading ``tree`` builds any missing one fresh; a stale tree kept
    # across the write would name the deleted edge or another gone one.
    for structure in _pooled(pool):
        tree = structure.tree
        members = structure.members.ids.tolist()
        for v, p in enumerate(tree.parent.tolist()):
            assert v == p or members[p] in adjacency[members[v]]
