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

Different seeds often build the same prefix, so the running top-r is
offered each vertex set at most once (see :class:`DistinctTopR`): a
result never lists one community twice, and may hold fewer than r.

The non-overlapping variant (for Problem 2 / TONIC) removes each accepted
community from the graph before continuing, exactly as the paper's
"Non-overlapping" paragraph prescribes; seeds are then visited heaviest
first so high-value regions are claimed before their vertices can be
absorbed by weaker neighbours.

Complexity: the paper states O(n * k * s^2).  Here each seed costs a BFS
that stops as soon as it holds ``s`` vertices, even part-way through a
popped hub's neighbour list, over alive neighbour lists that one
vectorised filter of the CSR builds per query (the TIC k-core never
shrinks; TONIC patches the lists of the neighbours of each removal);
an O(s log s) sort in greedy mode; and the strategy's prefix sweep,
which is O(s) values plus set intersections only for the prefixes it
actually decides (see :mod:`repro.influential.strategies`).  Remark 2's
caveat — local search works when the result community's diameter is
small — carries over unchanged.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
    here when not supplied).
    """
    if within_mask is None:
        within_mask = membership_mask(graph.n, within)
    return _bfs_order(seed, s, _alive_neighbours(graph, within_mask))


def _alive_neighbours(graph: Graph, alive: np.ndarray) -> list[list[int]]:
    """Each alive vertex's alive neighbours, ascending, indexed by vertex
    (other vertices get empty lists): one vectorised filter of the CSR
    arcs with both ends alive, cut back into per-vertex runs."""
    csr = graph.csr
    indptr, indices = csr.indptr, csr.indices
    keep = alive[indices] & np.repeat(alive, np.diff(indptr))
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    bounds = kept_before[indptr].tolist()
    arcs = indices[keep].tolist()
    return [arcs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _bfs_order(seed: int, s: int, neighbours: Sequence[list[int]]) -> list[int]:
    order = [seed]
    if s <= 1:
        return order
    seen = {seed}
    for u in order:  # order doubles as the BFS queue
        for v in neighbours[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
                if len(order) == s:  # stop mid-list: the rest is not needed
                    return order
    return order


def _weight_ranks(graph: Graph) -> list[int]:
    """Each vertex's place in the (-weight, id) order: sorting by it is the
    greedy mode's descending-weight sort with ties broken by id."""
    ids = np.arange(graph.n)
    ranks = np.empty(graph.n, dtype=np.int64)
    ranks[np.lexsort((ids, -graph.weights))] = ids
    return ranks.tolist()


class DistinctTopR(TopR[Community]):
    """The running top-r of Algorithm 4: each vertex set is offered once.

    :class:`TopR` keeps whatever it is given, and two seeds whose
    neighbourhoods share a prefix offer the same community.  Dropping a
    repeat is exact: its first offer was either admitted or rejected at
    a threshold that can only have risen since, so a second offer could
    only duplicate an answer, never change which sets are kept.
    """

    __slots__ = ("_offered",)

    def __init__(self, r: int) -> None:
        super().__init__(r, key=lambda c: c.value)
        self._offered: set[frozenset[int]] = set()

    def offer(self, item: Community) -> bool:
        """Submit ``item`` unless its vertex set was offered before."""
        if item.vertices in self._offered:
            return False
        self._offered.add(item.vertices)
        return super().offer(item)


def _ordered_seeds(
    alive: set[int],
    seed_order: str,
    rng_seed: int | None,
    ranks: list[int] | None,
) -> list[int]:
    seeds = sorted(alive)
    if seed_order == "weight":
        seeds.sort(key=ranks.__getitem__)
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
    ranks = _weight_ranks(graph) if greedy or seed_order == "weight" else None
    seeds = _ordered_seeds(alive, seed_order, rng_seed, ranks)
    strategy = strategy_for(graph, k, s, aggregator, greedy)
    sort_key = ranks.__getitem__ if greedy else None

    if non_overlapping:
        return _tonic_local_search(
            graph, k, r, s, alive, seeds, strategy, sort_key
        )

    # The k-core never shrinks here, so each vertex's alive neighbours are
    # read off the CSR once per query and reused by every later BFS.
    neighbours = _alive_neighbours(graph, membership_mask(graph.n, alive))

    top = DistinctTopR(r)
    for seed in seeds:  # Lines 2-7
        if seed not in alive:  # Line 3: "if vi is not removed"
            continue
        neighbourhood = _bfs_order(seed, s, neighbours)  # Line 4
        if len(neighbourhood) <= k:
            continue
        if sort_key is not None:  # Lines 5-6
            neighbourhood.sort(key=sort_key)
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
    sort_key: Callable[[int], int] | None,
) -> ResultSet:
    """Non-overlapping variant: accept-and-remove, then keep the best r.

    Each accepted community permanently claims its vertices ("we could
    remove each k-influential community once it is obtained").  Because
    acceptance is final, candidates are taken unconditionally (fresh
    single-slot accumulator per seed) rather than threshold-filtered, and
    quality comes from the heavy-seeds-first visiting order.
    """
    from repro.core.kcore import kcore_of_subset

    accepted: list[Community] = []
    neighbours = _alive_neighbours(graph, membership_mask(graph.n, alive))
    for seed in seeds:
        if seed not in alive:
            continue
        neighbourhood = _bfs_order(seed, s, neighbours)
        if len(neighbourhood) <= k:
            continue
        if sort_key is not None:
            neighbourhood.sort(key=sort_key)
        slot: TopR[Community] = TopR(1, key=lambda c: c.value)
        strategy.offer_candidates(neighbourhood, slot)
        if len(slot):
            community = slot.best()
            accepted.append(community)
            # Re-core the survivors: removals may have left vertices below
            # degree k, which must not join later candidates.
            survivors = kcore_of_subset(graph, alive - community.vertices, k)
            removed, alive = alive - survivors, survivors
            # Drop the removed vertices from their surviving neighbours'
            # lists; a removed vertex's own list is never read again.
            touched = {u for v in removed for u in neighbours[v]} & alive
            for u in touched:
                neighbours[u] = [v for v in neighbours[u] if v in alive]
    return ResultSet(sorted(accepted)[:r])
