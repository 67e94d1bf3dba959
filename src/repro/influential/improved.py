"""Algorithm 2 — TIC-IMPROVED (paper Section IV.A, Theorem 6).

Best-first refinement of Algorithm 1.  A max-heap ``L`` of candidate
communities is seeded with the k-core components; each round pops the
community with the largest influence value ``Lmax``, confirms it, and
expands it by deleting one vertex at a time and re-coring (Lines 11-19).
Three prunings keep the frontier small:

* children are discarded unless they reach the value of the current r-th
  best candidate (Line 13's ``f(H) > f(Lr)``), sound by Corollary 2;
* at ``eps = 0``, each batch also certifies its own floor: the removals
  that neither cascade nor split have children whose exact values are
  known before any child is built, and they are ``r`` distinct
  communities once there are ``r`` of them, so a removal whose best
  possible child falls below the r-th largest of those values is dropped
  before it peels (``expand(..., rank=r)``; the reference engine ignores
  ``rank``, so ``set_engine()`` runs the un-floored algorithm);
* with ``eps > 0``, any child whose value reaches the lower bound
  ``LB = (1 - eps) * f(Lmax)`` is *confirmed immediately* (Lines 16-17)
  instead of waiting to be popped, trading exactness for fewer rounds.
  The search stops at the r-th confirmation, mid-batch: the rest of the
  batch cannot change ``results[:r]``.

At ``eps = 0`` this is the paper's "Improve" configuration and is exact:
the popped maximum always dominates every unexplored candidate because
values only decrease along expansion (Corollary 2).  For ``eps > 0`` the
output satisfies Definition 8: the r-th reported value is at least
``(1 - eps)`` times the exact r-th value (Theorem 6).  Children are
de-duplicated with an incremental Zobrist hash — different deletion orders
frequently regenerate the same community — and generated through the
batched ``expand`` pass of the engine
(:func:`repro.influential.expansion.expansion_context`): the Line 13 bound
at the start of the batch is handed to the engine as a vectorised
prefilter, and the evolving bound is still re-checked per child.
Candidates stay in the engine's native representation (sorted int32
arrays, see :mod:`repro.influential.expansion_csr`) until the result
boundary.

Complexity: O(r * n * (n + m)) as analysed in the paper.
"""

from __future__ import annotations

from repro.aggregators.base import Aggregator
from repro.aggregators.registry import get_aggregator
from repro.aggregators.summation import Sum
from repro.core.kcore import connected_kcore_components
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.influential.community import Community
from repro.influential.expansion import (
    ChildCandidate,
    expansion_context,
    seed_candidates,
)
from repro.influential.results import ResultSet
from repro.utils.heaps import LazyMaxHeap
from repro.utils.topr import TopR
from repro.utils.zobrist import CommunityDeduper, ZobristHasher


def tic_improved(
    graph: Graph,
    k: int,
    r: int,
    f: "str | Aggregator | None" = None,
    eps: float = 0.0,
    engine_pool=None,
    labels=None,
) -> ResultSet:
    """Top-r size-unconstrained communities via best-first search.

    ``eps = 0`` gives the exact "Improve" variant; ``eps > 0`` the
    "Approx" variant with the Theorem 6 guarantee (paper default 0.1).
    ``engine_pool`` may carry a
    :class:`~repro.serving.engine_pool.ExpansionEnginePool` sharing seed
    components, expansion structures and the Zobrist table across queries
    (a pure cache — results are unchanged).
    ``labels`` (a :class:`~repro.influential.constraints.LabelPredicate`)
    restricts the search to all-members-match communities by seeding from
    the constrained k-core — expansion is component-local, so the whole
    lattice inherits the constraint (see
    :func:`~repro.influential.expansion.seed_candidates`).
    """
    aggregator = get_aggregator(f) if f is not None else Sum()
    if not aggregator.decreases_under_removal:
        raise SolverError(
            f"Algorithm 2 requires an aggregator that decreases under vertex "
            f"removal (Corollary 2); {aggregator.name!r} does not — use local "
            f"search instead (Remark 1)"
        )
    if k < 1 or r < 1:
        raise SolverError(f"need k >= 1 and r >= 1, got k={k}, r={r}")
    if not 0.0 <= eps < 1.0:
        raise SolverError(f"approximation ratio eps must be in [0, 1), got {eps}")

    # Lines 1-2: seed the candidate heap with the k-core components.
    # Heap payloads carry (representation, value, zobrist_key) so
    # expansion contexts can derive child values/keys incrementally.
    frontier: LazyMaxHeap[ChildCandidate] = LazyMaxHeap()
    hasher = (
        engine_pool.hasher if engine_pool is not None
        else ZobristHasher(graph.n)
    )
    seen = CommunityDeduper(hasher)
    # `candidate_top` tracks the r best candidate values ever generated;
    # its threshold is the paper's f(Lr) pruning bound (Line 13).
    candidate_top: TopR[float] = TopR(r, key=lambda v: v)
    for seed in seed_candidates(
        graph, k, aggregator, hasher, engine_pool, labels=labels
    ):
        seen.add(seed.vertices, seed.key)
        frontier.push(seed.value, seed)
        candidate_top.offer(seed.value)

    results: list[ChildCandidate] = []
    confirmed: set[object] = set()
    rank = r if eps == 0.0 else None

    while frontier and len(results) < r:
        value, lmax = frontier.pop()  # Line 8: best candidate
        if lmax.vertices not in confirmed:
            confirmed.add(lmax.vertices)
            results.append(lmax)
            if len(results) >= r:
                break
        lower_bound = (1.0 - eps) * value  # Line 9

        # Lines 11-19: expand Lmax by single-vertex deletions, batched.
        # The engine prefilters removals against the Line 13 bound: the
        # bound as of batch start feeds the vectorised prefilter, and the
        # live bound (candidate_top.threshold tightens as children are
        # offered) is re-read per removal; the evolving bound is still
        # applied per child below.  At eps = 0 the engine also certifies
        # a floor from the batch's own non-cascading removals (rank=r);
        # at eps > 0 children below the r-th value may still be confirmed
        # early (Lines 16-17), so no such floor applies.
        context = expansion_context(
            graph, lmax.vertices, k, aggregator, value, hasher,
            lmax.key, pool=engine_pool,
        )
        prune_at = candidate_top.threshold()
        for child in context.expand(candidate_top.threshold, rank=rank):
            # Line 13: prune strictly-dominated children — strictly
            # below the r-th candidate value they can never place.
            if candidate_top.is_full and child.value < prune_at:
                continue
            if not seen.add(child.vertices, child.key):
                continue
            candidate_top.offer(child.value)
            prune_at = candidate_top.threshold()
            # Lines 16-17: eps-confirmation of near-maximal children.
            if (
                eps > 0.0
                and child.value >= lower_bound
                and child.vertices not in confirmed
            ):
                confirmed.add(child.vertices)
                results.append(child)
                if len(results) >= r:
                    # results[:r] is final: the rest of the batch cannot
                    # change the answer.
                    break
            frontier.push(child.value, child)
    return ResultSet(
        candidate.to_community(aggregator.name, k)
        for candidate in results[:r]
    )


def peel_below_average(
    graph: Graph,
    k: int,
    r: int,
    max_rounds: int = 64,
) -> ResultSet:
    """Extension heuristic for the (NP-hard) unconstrained avg problem.

    Not part of the paper's algorithm suite (its future-work section notes
    the unconstrained NP-hard cases are open); included as a documented
    extension: repeatedly delete the vertex with the lowest weight from
    the current best component while the average improves, re-coring after
    each deletion, and keep the best r intermediate components seen.

    Component weight sums are carried incrementally down the peel: the
    current community's sum is inherited from the child sum computed when
    it was selected, so each round sums each fresh child exactly once
    instead of re-walking the current community and the winning child.
    """
    from repro.aggregators.average import Average

    aggregator = Average()
    top: TopR[Community] = TopR(r, key=lambda c: c.value)
    seen: set[frozenset[int]] = set()
    components = connected_kcore_components(graph, range(graph.n), k)
    weights = graph.weights
    for component in components:
        current = set(component)
        current_sum = sum(float(weights[v]) for v in sorted(current))
        for __ in range(max_rounds):
            average = current_sum / len(current)
            vertices = frozenset(current)
            if vertices not in seen:
                seen.add(vertices)
                top.offer(Community(vertices, average, aggregator.name, k))
            if len(current) <= k + 1:
                break
            lightest = min(current, key=lambda v: (weights[v], v))
            candidate = set(current)
            candidate.discard(lightest)
            children = connected_kcore_components(graph, candidate, k)
            if not children:
                break
            # Follow the child with the best average; each child is summed
            # once and the winner's sum seeds the next round.
            best_child: set[int] | None = None
            best_sum = 0.0
            best_average = float("-inf")
            for child in children:
                child_sum = sum(float(weights[v]) for v in sorted(child))
                child_average = child_sum / len(child)
                if child_average > best_average:
                    best_child, best_sum = child, child_sum
                    best_average = child_average
            if best_child is None or best_average <= average:
                break
            current, current_sum = set(best_child), best_sum
    return ResultSet(top.ranked())
