"""High-level query API: one entry point, paper-faithful dispatch.

:func:`top_r_communities` routes a query to the right algorithm the way
the paper's Table I and Sections IV-V lay it out:

===================  ==================  =====================================
problem              aggregation          algorithm
===================  ==================  =====================================
unconstrained        min / max            laminar community forest (top r)
unconstrained        sum / sum-surplus    Algorithm 2 (exact at eps=0)
unconstrained        avg / densities      Algorithm 4 with s = |V| (heuristic)
size-constrained     any                  Algorithm 4 (greedy or random)
size-constrained     any (tiny graphs)    Algorithm 3 via ``method="exact"``
===================  ==================  =====================================

Non-overlapping (TONIC) requests use the disjoint-component shortcut for
size-proportional aggregators, greedy disjoint selection over the whole
forest for min/max, and accept-and-remove local search otherwise.

Parameter names are the paper's symbols (see ``docs/API.md`` for the
full mapping): ``k`` is the degree constraint of the connected-k-core
community model (Definition 2), ``r`` the number of communities
returned, ``f`` the aggregation function f ∈ {sum, avg, min, max,
sum-surplus_α, weight-density_β, balanced-density} applied to the
member weights, ``s`` the optional size cap |H| <= s of Problem 3,
``eps`` the ε of Algorithm 2's (1−ε)-approximate pruned search (ε = 0
is exact), and ``non_overlapping`` the TONIC variant (Problem 2).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.aggregators.base import Aggregator
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.influential.community import Community
from repro.influential.constraints import LabelPredicate, matching_mask
from repro.influential.exact import tic_exact
from repro.influential.improved import tic_improved
from repro.influential.local_search import local_search
from repro.influential.minmax_solvers import (
    max_communities,
    min_communities,
    top_r_max,
    top_r_min,
)
from repro.influential.naive_sum import sum_naive
from repro.influential.nonoverlap import (
    greedy_disjoint,
    tonic_sum_unconstrained,
)
from repro.influential.results import ResultSet
from repro.influential.spec import ProblemSpec

#: Recognised ``method`` values.
METHODS = ("auto", "naive", "improved", "approx", "exact", "local", "bruteforce")


def top_r_communities(
    graph: Graph,
    k: int,
    r: int,
    f: "str | Aggregator" = "sum",
    s: int | None = None,
    method: str = "auto",
    eps: float = 0.0,
    non_overlapping: bool = False,
    greedy: bool = True,
    seed_order: str | None = None,
    rng_seed: int | None = None,
    engine_pool=None,
    labels=None,
) -> ResultSet:
    """Find the top-r (non-overlapping) (size-constrained) communities.

    Parameters mirror the paper: degree constraint ``k``, output count
    ``r``, aggregation function ``f`` (name or instance), optional size
    constraint ``s``, approximation ratio ``eps`` (only used by the
    Approx method), ``non_overlapping`` for Problem 2, and ``greedy``
    selecting the local-search variant.  ``method`` forces a specific
    algorithm; ``"auto"`` follows the dispatch table above.

    Degenerate-but-well-posed queries return empty result sets rather
    than raising: a graph with no vertices, or ``k >= |V|`` (no induced
    subgraph can reach minimum degree k), short-circuit to an empty
    :class:`ResultSet` before any solver runs.  Malformed *specs* (k or r
    below 1, infeasible or oversized ``s`` on a non-degenerate graph,
    unknown methods) still raise.

    ``engine_pool`` optionally carries a
    :class:`~repro.serving.engine_pool.ExpansionEnginePool` of shared
    expansion state (seed components, relabelled local CSRs, Zobrist
    tables); :class:`~repro.serving.service.QueryService` threads one
    through every query it serves.  Pools are pure caches — results are
    byte-identical with or without one.

    ``labels`` optionally constrains the answer to communities whose
    members *all* match a label predicate (a
    :class:`~repro.influential.constraints.LabelPredicate`, or any wire
    shape its ``from_json`` accepts: ``"x"``, ``["a", "b"]``,
    ``{"eq"|"any"|"prefix": ...}``).  The constrained problem equals the
    unconstrained one on the induced subgraph of matching vertices —
    expansion-family solvers prune at the seed-component filter without
    materialising it; every other route solves on the materialised
    subgraph and maps ids back.  Requires a labeled graph
    (:class:`~repro.errors.SpecError` otherwise).
    """
    spec = ProblemSpec.create(
        k, r, f, s, non_overlapping, labels=LabelPredicate.from_json(labels)
    )
    if method not in METHODS:
        raise SolverError(f"unknown method {method!r}; expected one of {METHODS}")
    if spec.label_constrained and graph.labels is None and graph.n > 0:
        # Fail loudly before the degenerate-query short-circuits: asking a
        # label-constrained question of an unlabeled graph is a caller
        # error, not an empty answer.
        matching_mask(graph, spec.labels)
    if spec.infeasible_for(graph):
        # Empty/singleton graphs and k >= |V|: no community can exist, so
        # every solver's answer is the empty set — return it well-formed
        # instead of bouncing serving traffic with an exception.
        return ResultSet(())
    spec.validate_for(graph)
    if (
        engine_pool is not None
        and method == "auto"
        and k > engine_pool.kmax
        # Parameters that only a *solver* validates must keep failing
        # identically with or without a pool, so any value a dispatch
        # target could reject falls through to the normal path (and
        # raises there, exactly as a cold call would).
        and 0.0 <= eps < 1.0
        and seed_order in (None, "id", "weight", "shuffled")
    ):
        # The pool's cached core decomposition proves no k-core exists;
        # every auto-dispatch family (constrained or not — the
        # constrained k-core is a subset) returns empty on such queries.
        return ResultSet(())
    if spec.label_constrained:
        return _dispatch_constrained(
            graph, spec, method, eps, greedy, seed_order, rng_seed,
            engine_pool,
        )
    return _dispatch(
        graph, spec, method, eps, greedy, seed_order, rng_seed, engine_pool
    )


def _dispatch(
    graph: Graph,
    spec: ProblemSpec,
    method: str,
    eps: float,
    greedy: bool,
    seed_order: str | None,
    rng_seed: int | None,
    engine_pool=None,
) -> ResultSet:
    aggregator = spec.f
    k, r, s = spec.k, spec.r, spec.s
    non_overlapping = spec.non_overlapping

    if method == "bruteforce":
        from repro.influential.bruteforce import (
            bruteforce_top_r,
            bruteforce_top_r_nonoverlapping,
        )

        if non_overlapping:
            return bruteforce_top_r_nonoverlapping(graph, k, r, aggregator, s)
        return bruteforce_top_r(graph, k, r, aggregator, s)

    if method == "exact":
        if non_overlapping:
            raise SolverError("TIC-EXACT does not implement the TONIC variant")
        bound = spec.effective_size_bound(graph)
        return tic_exact(graph, k, r, bound, aggregator)

    if method == "naive":
        if non_overlapping:
            return tonic_sum_unconstrained(graph, k, r, aggregator)
        if spec.size_constrained:
            raise SolverError("Algorithm 1 solves the size-unconstrained problem")
        return sum_naive(graph, k, r, aggregator, engine_pool=engine_pool)

    if method == "improved" or method == "approx":
        if non_overlapping:
            return tonic_sum_unconstrained(graph, k, r, aggregator)
        if spec.size_constrained:
            raise SolverError("Algorithm 2 solves the size-unconstrained problem")
        use_eps = eps if method == "approx" else 0.0
        return tic_improved(
            graph, k, r, aggregator, eps=use_eps, engine_pool=engine_pool
        )

    if method == "local":
        bound = spec.effective_size_bound(graph)
        return local_search(
            graph, k, r, bound, aggregator,
            greedy=greedy, non_overlapping=non_overlapping,
            seed_order=seed_order, rng_seed=rng_seed,
        )

    return _auto_dispatch(
        graph, spec, eps, greedy, seed_order, rng_seed, engine_pool
    )


def _dispatch_constrained(
    graph: Graph,
    spec: ProblemSpec,
    method: str,
    eps: float,
    greedy: bool,
    seed_order: str | None,
    rng_seed: int | None,
    engine_pool=None,
) -> ResultSet:
    """Label-constrained dispatch: seed pushdown or induced-subgraph solve.

    The "all members match" semantics makes the constrained query equal
    to the unconstrained query on ``G[matching]``.  Two routes realise
    that:

    * **Seed pushdown** (expansion solvers — Algorithms 1/2 and their
      auto-dispatch use): seed the lattice from the k-core components of
      ``G[matching]`` on the *original* graph.  Expansion is
      component-local, so every descendant keeps the invariant; no ids
      are remapped and the shared engine pool serves structures as for
      unconstrained traffic.
    * **Induced-subgraph fallback** (min/max peels, local search, exact,
      brute force, TONIC): materialise ``G[matching]`` — the remap is
      monotone, so float-summation order and tie-breaks are preserved —
      solve unconstrained, and map member ids back.

    Both routes produce identical answers (the remap argument above);
    which one runs is a pure performance decision.
    """
    aggregator = spec.f
    predicate = spec.labels

    pushdown = (
        not spec.non_overlapping
        and not spec.size_constrained
        and (
            method in ("naive", "improved", "approx")
            or (
                method == "auto"
                and aggregator.decreases_under_removal
                and not aggregator.is_node_dominated
            )
        )
    )
    if pushdown:
        if method == "naive":
            return sum_naive(
                graph, spec.k, spec.r, aggregator,
                engine_pool=engine_pool, labels=predicate,
            )
        use_eps = eps if method in ("approx", "auto") else 0.0
        return tic_improved(
            graph, spec.k, spec.r, aggregator, eps=use_eps,
            engine_pool=engine_pool, labels=predicate,
        )

    from repro.graphs.views import induced_subgraph

    matching = [int(v) for v in np.flatnonzero(matching_mask(graph, predicate))]
    subgraph, __ = induced_subgraph(graph, matching)
    inner = replace(spec, labels=None)
    if inner.infeasible_for(subgraph):
        return ResultSet(())
    result = _dispatch(
        subgraph, inner, method, eps, greedy, seed_order, rng_seed, None
    )
    # induced_subgraph numbers new ids by sorted original id, so
    # ``matching[new_id]`` inverts the mapping; the remap being monotone,
    # re-sorting in ResultSet reproduces the subgraph ranking exactly.
    return ResultSet(
        Community(
            frozenset(matching[v] for v in community.vertices),
            community.value,
            community.aggregator,
            community.k,
        )
        for community in result
    )


def _auto_dispatch(
    graph: Graph,
    spec: ProblemSpec,
    eps: float,
    greedy: bool,
    seed_order: str | None,
    rng_seed: int | None,
    engine_pool=None,
) -> ResultSet:
    aggregator, k, r = spec.f, spec.k, spec.r

    if not spec.size_constrained:
        if aggregator.is_node_dominated:
            if aggregator.name == "min":
                if spec.non_overlapping:
                    return greedy_disjoint(min_communities(graph, k), r)
                return top_r_min(graph, k, r)
            if spec.non_overlapping:
                return greedy_disjoint(max_communities(graph, k), r)
            return top_r_max(graph, k, r)
        if aggregator.decreases_under_removal:
            if spec.non_overlapping:
                return tonic_sum_unconstrained(graph, k, r, aggregator)
            return tic_improved(
                graph, k, r, aggregator, eps=eps, engine_pool=engine_pool
            )
        # NP-hard unconstrained (avg, densities): the paper's recourse is
        # local search with s = |V| (Sections III/V).

    bound = spec.effective_size_bound(graph)
    return local_search(
        graph, k, r, bound, aggregator,
        greedy=greedy, non_overlapping=spec.non_overlapping,
        seed_order=seed_order, rng_seed=rng_seed,
    )


def top_r_many(
    graph: "Graph | None",
    queries,
    cache_size: int = 1024,
    service=None,
    snapshot=None,
) -> "list[ResultSet]":
    """Answer a batch of queries over one graph with shared serving state.

    ``queries`` is an iterable of
    :class:`~repro.serving.query.InfluentialQuery` (or mappings accepted
    by :meth:`~repro.serving.query.InfluentialQuery.create`).  A transient
    :class:`~repro.serving.service.QueryService` is stood up around
    ``graph`` — CSR warmed, decompositions cached, one expansion-engine
    pool, an LRU result cache of ``cache_size`` — and the batch is
    answered in submission order.  Results are byte-identical to calling
    :func:`top_r_communities` per query; long-lived callers should hold a
    :class:`~repro.serving.service.QueryService` themselves so the caches
    survive across batches.

    Two alternatives to ``graph`` skip the cold construction cost:
    ``service=`` answers through an existing
    :class:`~repro.serving.service.QueryService` (its caches persist for
    the caller), and ``snapshot=`` stands the service up from a snapshot
    directory written by :func:`repro.serving.store.save_snapshot` —
    mmapped arrays, no decomposition recomputed.  Exactly one of
    ``graph``/``service``/``snapshot`` must be given.
    """
    from repro.serving.service import QueryService

    sources = sum(x is not None for x in (graph, service, snapshot))
    if sources != 1:
        raise SolverError(
            "top_r_many needs exactly one of graph=, service= or snapshot="
        )
    if service is None:
        if snapshot is not None:
            from repro.serving.store import load_service

            service = load_service(snapshot, cache_size=cache_size)
        else:
            service = QueryService(graph, cache_size=cache_size)
    return service.submit_many(queries)
