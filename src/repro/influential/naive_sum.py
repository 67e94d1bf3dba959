"""Algorithm 1 — SUM-NAIVE (paper Section IV.A).

The baseline polynomial algorithm for the size-unconstrained top-r problem
under size-proportional aggregators (sum, sum-surplus):

1. compute the disjoint connected components of the maximal k-core — these
   are the best candidates (Lines 1-2);
2. repeatedly try to delete each vertex from every current top-r community
   containing it, re-core the remainder, and merge the resulting components
   back into the top-r list (Lines 3-10).

Correctness rests on Corollary 2: under sum (non-negative weights) every
removal strictly lowers the value, so a community outside the current
top-r can be pruned together with all its subgraphs (Theorem 5).  The
paper writes the outer loop as a single pass ``for i <- 1 to |V|`` over an
evolving list; we run that pass to a fixpoint — once a full sweep changes
nothing, no candidate generated from any retained community can enter the
top-r, which is exactly the Theorem 5 argument (DESIGN.md Section 5).  The
vertex/community loops are interchanged (equivalent per sweep) so each
community's expansion context is built once, and children are generated
through the batched ``expand`` pass of the flat-array engine
(:func:`repro.influential.expansion.expansion_context`).  Candidate
communities stay in the engine's native representation (sorted int32
arrays) until the result boundary.

Complexity: O(n * r * (n + m)) per sweep, as analysed in the paper — the
point of this baseline is to lose to Algorithm 2, which expands only the
communities that can still influence the answer.
"""

from __future__ import annotations

from repro.aggregators.base import Aggregator
from repro.aggregators.registry import get_aggregator
from repro.aggregators.summation import Sum
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.influential.expansion import (
    ChildCandidate,
    expansion_context,
    seed_candidates,
)
from repro.influential.results import ResultSet
from repro.utils.topr import TopR
from repro.utils.zobrist import CommunityDeduper, ZobristHasher


def sum_naive(
    graph: Graph,
    k: int,
    r: int,
    f: "str | Aggregator | None" = None,
    max_sweeps: int | None = None,
    engine_pool=None,
    labels=None,
) -> ResultSet:
    """Top-r size-unconstrained k-influential communities (Algorithm 1).

    ``f`` defaults to sum; any decreasing-under-removal aggregator works
    (the paper's Discussion paragraph names sum-surplus).  ``max_sweeps``
    caps the fixpoint iteration for diagnostics; None runs to convergence.
    ``engine_pool`` may carry a
    :class:`~repro.serving.engine_pool.ExpansionEnginePool` sharing seed
    components, expansion structures and the Zobrist table across queries
    (a pure cache — results are unchanged).
    ``labels`` restricts the search to all-members-match communities by
    seeding from the constrained k-core (see
    :func:`~repro.influential.expansion.seed_candidates`).
    """
    aggregator = get_aggregator(f) if f is not None else Sum()
    if not aggregator.decreases_under_removal:
        raise SolverError(
            f"Algorithm 1 requires an aggregator that decreases under vertex "
            f"removal (Corollary 2); {aggregator.name!r} does not — use local "
            f"search instead (Remark 1)"
        )
    if k < 1 or r < 1:
        raise SolverError(f"need k >= 1 and r >= 1, got k={k}, r={r}")

    # Lines 1-2: components of the maximal k-core, kept as a top-r list.
    # Candidates carry (representation, value, key) so expansion contexts
    # can derive child values and Zobrist keys incrementally.
    top: TopR[ChildCandidate] = TopR(r, key=lambda c: c.value)
    hasher = (
        engine_pool.hasher if engine_pool is not None
        else ZobristHasher(graph.n)
    )
    seen = CommunityDeduper(hasher)
    for seed in seed_candidates(
        graph, k, aggregator, hasher, engine_pool, labels=labels
    ):
        seen.add(seed.vertices, seed.key)
        top.offer(seed)

    # Lines 3-10, iterated to a fixpoint.  Each sweep expands every vertex
    # of every retained community exactly once — the naive full scan.
    expanded: set[object] = set()
    sweeps = 0
    changed = True
    while changed and (max_sweeps is None or sweeps < max_sweeps):
        changed = False
        sweeps += 1
        for candidate in top.ranked():
            if candidate.vertices in expanded:
                continue
            expanded.add(candidate.vertices)
            context = expansion_context(
                graph, candidate.vertices, k, aggregator,
                candidate.value, hasher, candidate.key, pool=engine_pool,
            )
            for child in context.expand():
                if not seen.add(child.vertices, child.key):
                    continue
                if top.offer(child):
                    changed = True
    return ResultSet(
        candidate.to_community(aggregator.name, k)
        for candidate in top.ranked()
    )
