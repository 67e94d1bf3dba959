"""Algorithm 4 — LOCAL SEARCH (paper Section V.B).

The heuristic for the NP-hard size-constrained problems (and, with
``s = |V|``, for the NP-hard unconstrained ones like avg):

1. restrict to the maximal k-core (Line 1);
2. for every surviving seed vertex, collect its ``s`` nearest neighbours
   by BFS — expanding to 2-hop and beyond when the immediate
   neighbourhood is too small (Line 4, and the paper's footnote);
3. greedy mode sorts that neighbourhood by descending weight (Lines 5-6);
   random mode keeps BFS discovery order;
4. a per-aggregator strategy turns the ordered set into candidate
   communities and merges them into the running top-r (Line 7);
5. return the top-r sorted by value (Lines 8-9).

The non-overlapping variant (for Problem 2 / TONIC) removes each accepted
community from the graph before continuing, exactly as the paper's
"Non-overlapping" paragraph prescribes; seeds are then visited heaviest
first so high-value regions are claimed before their vertices can be
absorbed by weaker neighbours.

Complexity: O(n * k * s^2) per the paper (plus O(s log s) sorting per seed
in greedy mode); Remark 2's caveat — local search works when the result
community's diameter is small — carries over unchanged.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.aggregators.base import Aggregator
from repro.aggregators.registry import get_aggregator
from repro.core.kcore import maximal_kcore
from repro.errors import SolverError
from repro.graphs.csr import membership_mask
from repro.graphs.graph import Graph
from repro.influential.community import Community
from repro.influential.results import ResultSet
from repro.influential.strategies import strategy_for
from repro.utils.rng import make_rng
from repro.utils.topr import TopR


def s_nearest_neighbors(
    graph: Graph,
    seed: int,
    s: int,
    within: set[int],
    within_mask: np.ndarray | None = None,
) -> list[int]:
    """The first ``s`` vertices (seed included) in BFS order from ``seed``.

    Traversal is restricted to ``within`` (the alive k-core).  Neighbour
    visits are sorted so the "random" strategy is still deterministic for
    a fixed graph — the randomness the paper contrasts with greedy is the
    *absence of weight sorting*, not nondeterminism.

    ``within_mask`` is the boolean array equivalent of ``within`` (built
    here when not supplied; :func:`local_search` keeps one per query): the
    per-vertex restriction is one vectorised filter of the already-sorted
    CSR neighbour run.
    """
    if within_mask is None:
        within_mask = membership_mask(graph.n, within)
    csr = graph.csr
    order = [seed]
    seen = {seed}
    queue = deque([seed])
    while queue and len(order) < s:
        u = queue.popleft()
        neigh = csr.neighbors(u)
        for v in neigh[within_mask[neigh]].tolist():
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
                if len(order) >= s:
                    break
    return order


def _ordered_seeds(
    graph: Graph, alive: set[int], seed_order: str, rng_seed: int | None
) -> list[int]:
    seeds = sorted(alive)
    if seed_order == "weight":
        weights = graph.weights
        seeds.sort(key=lambda v: (-weights[v], v))
    elif seed_order == "shuffled":
        rng = make_rng(rng_seed)
        permutation = rng.permutation(len(seeds))
        seeds = [seeds[i] for i in permutation]
    elif seed_order != "id":
        raise SolverError(f"unknown seed_order {seed_order!r}")
    return seeds


def local_search(
    graph: Graph,
    k: int,
    r: int,
    s: int,
    f: "str | Aggregator",
    greedy: bool = True,
    non_overlapping: bool = False,
    seed_order: str | None = None,
    rng_seed: int | None = None,
) -> ResultSet:
    """Top-r size-constrained k-influential communities (Algorithm 4).

    ``greedy`` selects the paper's Greedy variant (descending-weight sort
    of each seed neighbourhood) versus Random (BFS order).  ``seed_order``
    controls the outer loop: ``"id"`` is the paper's ``i = 1..|V|`` and
    the default for TIC; ``"weight"`` visits heavy seeds first and is the
    default for TONIC; ``"shuffled"`` randomises with ``rng_seed``.
    """
    aggregator = get_aggregator(f)
    if k < 1 or r < 1:
        raise SolverError(f"need k >= 1 and r >= 1, got k={k}, r={r}")
    if s < k + 1:
        raise SolverError(
            f"size bound s={s} cannot hold a k-core (needs >= {k + 1})"
        )
    if seed_order is None:
        seed_order = "weight" if non_overlapping else "id"

    alive = maximal_kcore(graph, k)  # Line 1
    seeds = _ordered_seeds(graph, alive, seed_order, rng_seed)
    strategy = strategy_for(graph, k, s, aggregator, greedy)
    weights = graph.weights

    if non_overlapping:
        return _tonic_local_search(
            graph, k, r, s, alive, seeds, strategy, greedy
        )

    alive_mask = membership_mask(graph.n, alive)
    top: TopR[Community] = TopR(r, key=lambda c: c.value)
    for seed in seeds:  # Lines 2-7
        if seed not in alive:  # Line 3: "if vi is not removed"
            continue
        neighbourhood = s_nearest_neighbors(
            graph, seed, s, alive, alive_mask
        )  # Line 4
        if len(neighbourhood) <= k:
            continue
        if greedy:  # Lines 5-6
            neighbourhood.sort(key=lambda v: (-weights[v], v))
        strategy.offer_candidates(neighbourhood, top)  # Line 7
    return ResultSet(top.ranked())  # Lines 8-9


def _tonic_local_search(
    graph: Graph,
    k: int,
    r: int,
    s: int,
    alive: set[int],
    seeds: list[int],
    strategy,
    greedy: bool,
) -> ResultSet:
    """Non-overlapping variant: accept-and-remove, then keep the best r.

    Each accepted community permanently claims its vertices ("we could
    remove each k-influential community once it is obtained").  Because
    acceptance is final, candidates are taken unconditionally (fresh
    single-slot accumulator per seed) rather than threshold-filtered, and
    quality comes from the heavy-seeds-first visiting order.
    """
    from repro.core.kcore import kcore_of_subset

    weights = graph.weights
    accepted: list[Community] = []
    alive_mask = membership_mask(graph.n, alive)
    for seed in seeds:
        if seed not in alive:
            continue
        # Re-core the survivors around this seed: removals may have left
        # vertices below degree k which must not join candidates.
        neighbourhood = s_nearest_neighbors(graph, seed, s, alive, alive_mask)
        if len(neighbourhood) <= k:
            continue
        if greedy:
            neighbourhood.sort(key=lambda v: (-weights[v], v))
        slot: TopR[Community] = TopR(1, key=lambda c: c.value)
        strategy.offer_candidates(neighbourhood, slot)
        if len(slot):
            community = slot.best()
            accepted.append(community)
            alive -= community.vertices
            alive.intersection_update(kcore_of_subset(graph, alive, k))
            alive_mask = membership_mask(graph.n, alive)
    return ResultSet(sorted(accepted)[:r])
