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

:func:`capture_offers` runs the same seed loop once with no threshold
and records each seed's offer at every threshold; its
:class:`OfferLog` answers any r by replay, bit for bit what
:func:`local_search` returns (the index serves Problem 3 from these).

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

import math
from typing import Iterator, Sequence

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


#: The seed orders Algorithm 4's outer loop accepts (None picks the
#: variant's default).
SEED_ORDERS = ("id", "weight", "shuffled")


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

    The answer may hold fewer than r communities even when more exist.
    Each seed offers at most one community, and seeds whose
    neighbourhoods sort to the same block offer the same one, which the
    running top-r keeps once (:class:`DistinctTopR`).  In greedy mode
    with ``s`` at least a component's size, every seed of that component
    sorts the whole component into one block, so the component yields
    one answer.  That is Algorithm 4 plus the distinct-answer rule, not
    a defect.
    """
    aggregator = _checked(f, k, r, s)
    search = _Search(
        graph, k, s, aggregator, greedy, non_overlapping, seed_order, rng_seed
    )
    if non_overlapping:
        return ResultSet(search.accepted()[:r])
    top = DistinctTopR(r)
    offer = search.strategy.offer_candidates
    for block in search.blocks():  # Lines 2-7
        offer(block, top)
    return ResultSet(top.ranked())  # Lines 8-9


def _checked(f: "str | Aggregator", k: int, r: int, s: int) -> Aggregator:
    aggregator = get_aggregator(f)
    if k < 1 or r < 1:
        raise SolverError(f"need k >= 1 and r >= 1, got k={k}, r={r}")
    if s < k + 1:
        raise SolverError(
            f"size bound s={s} cannot hold a k-core (needs >= {k + 1})"
        )
    return aggregator


class _Search:
    """One Algorithm 4 run's fixed parts: the k-core (Line 1), the seed
    order, the strategy and the greedy sort key, shared by
    :func:`local_search` and :func:`capture_offers`."""

    __slots__ = (
        "graph", "k", "s", "alive", "seeds", "strategy", "sort_key",
        "neighbours",
    )

    def __init__(
        self,
        graph: Graph,
        k: int,
        s: int,
        aggregator: Aggregator,
        greedy: bool,
        non_overlapping: bool,
        seed_order: str | None,
        rng_seed: int | None,
    ) -> None:
        if seed_order is None:
            seed_order = "weight" if non_overlapping else "id"
        self.graph, self.k, self.s = graph, k, s
        self.alive = maximal_kcore(graph, k)  # Line 1
        ranks = _weight_ranks(graph) if greedy or seed_order == "weight" else None
        self.seeds = _ordered_seeds(self.alive, seed_order, rng_seed, ranks)
        self.strategy = strategy_for(graph, k, s, aggregator, greedy)
        self.sort_key = ranks.__getitem__ if greedy else None
        # Each alive vertex's alive neighbours, read off the CSR once per
        # query and reused by every BFS; only TONIC's removals patch them.
        self.neighbours = _alive_neighbours(
            graph, membership_mask(graph.n, self.alive)
        )

    def blocks(self) -> Iterator[list[int]]:
        """Lines 2-6: each seed's ordered neighbourhood, in seed order,
        skipping removed seeds and neighbourhoods too small to hold a
        k-core.  TONIC removes vertices between blocks
        (:meth:`accepted`), so each block reads the alive set and the
        neighbour lists as they stand."""
        k, s, sort_key, neighbours = self.k, self.s, self.sort_key, self.neighbours
        for seed in self.seeds:
            if seed not in self.alive:  # Line 3: "if vi is not removed"
                continue
            neighbourhood = _bfs_order(seed, s, neighbours)  # Line 4
            if len(neighbourhood) <= k:
                continue
            if sort_key is not None:  # Lines 5-6
                neighbourhood.sort(key=sort_key)
            yield neighbourhood

    def accepted(self) -> list[Community]:
        """Non-overlapping variant: accept-and-remove, best first.

        Each accepted community permanently claims its vertices ("we
        could remove each k-influential community once it is obtained").
        Because acceptance is final, candidates are taken unconditionally
        (fresh single-slot accumulator per seed) rather than
        threshold-filtered, and quality comes from the heavy-seeds-first
        visiting order.  Nothing here depends on r: the answer for any r
        is the first r of this list.
        """
        from repro.core.kcore import kcore_of_subset

        accepted: list[Community] = []
        neighbours = self.neighbours
        for block in self.blocks():
            slot: TopR[Community] = TopR(1, key=lambda c: c.value)
            self.strategy.offer_candidates(block, slot)
            if len(slot):
                community = slot.best()
                accepted.append(community)
                # Re-core the survivors: removals may have left vertices
                # below degree k, which must not join later candidates.
                alive = self.alive
                survivors = kcore_of_subset(
                    self.graph, alive - community.vertices, self.k
                )
                removed, self.alive = alive - survivors, survivors
                # Drop the removed vertices from their surviving
                # neighbours' lists; a removed vertex's own list is never
                # read again.
                touched = {u for v in removed for u in neighbours[v]} & survivors
                for u in touched:
                    neighbours[u] = [v for v in neighbours[u] if v in survivors]
        return sorted(accepted)


def capture_offers(
    graph: Graph,
    k: int,
    s: int,
    f: "str | Aggregator",
    greedy: bool = True,
    non_overlapping: bool = False,
    seed_order: str | None = None,
    rng_seed: int | None = None,
) -> "OfferLog":
    """One threshold-free Algorithm 4 pass, replayable for any r.

    Takes :func:`local_search`'s arguments but r, and returns an
    :class:`OfferLog` whose ``answer(r)`` equals ``local_search(...,
    r, ...)`` for every r: the same sets, value bits and order.
    """
    aggregator = _checked(f, k, 1, s)
    search = _Search(
        graph, k, s, aggregator, greedy, non_overlapping, seed_order, rng_seed
    )
    if non_overlapping:
        return OfferLog((), tuple(search.accepted()))
    strategy = search.strategy
    make = strategy._make
    # Per vertex set: the highest value of a first step offering it (an
    # unconditional one) and the first Community built for it.
    covered: dict[frozenset[int], float] = {}
    shared: dict[frozenset[int], Community] = {}
    records = []
    for block in search.blocks():
        steps = []
        for position, (value, length) in enumerate(strategy.capture(block)):
            vertices = frozenset(block[:length])
            if covered.get(vertices, -math.inf) >= value:
                steps.append((value, None))  # offers a repeat: a no-op
                continue
            if position == 0:
                covered[vertices] = value
            # The value sums the members in the frozenset's iteration
            # order, which can differ between prefix orders: share only
            # an identical value.
            community = make(block[:length])
            twin = shared.setdefault(vertices, community)
            if _same_bits(twin.value, community.value):
                community = twin
            steps.append((value, community))
        while steps and steps[-1][1] is None:
            steps.pop()  # a trailing no-op offers nothing at any threshold
        if steps:
            records.append(tuple(steps))
    return OfferLog(tuple(records), None)


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class OfferLog:
    """Algorithm 4's offers for every threshold, from one capture.

    A TIC run visits the seeds in a fixed order, and each seed offers at
    most one community, chosen by the threshold it meets
    (``top.threshold()`` at that seed).  ``records`` holds, per seed
    that can offer anything, its strategy's steps
    (:meth:`~repro.influential.strategies.Strategy.capture`): ``(value,
    community)`` pairs with rising values, where at threshold T the seed
    offers the community of the first step whose value is above T.
    :meth:`answer` offers them to a fresh :class:`DistinctTopR` with the
    solver's own comparisons, so it reproduces the solver bit for bit
    with no assumption about how answers for different r relate.

    A step whose vertex set an earlier seed's first step offers at a
    value at least as high is kept as a no-op (community None): the
    threshold only rises, so whenever the later step is reached the
    earlier seed offered that set, and :class:`DistinctTopR` drops
    repeats.  No-op steps at the end of a record, and records left
    empty, are dropped.  Communities are shared per vertex set and value.

    A TONIC run's accepted list does not depend on r, so ``ranked``
    holds it sorted and ``answer(r)`` slices it.
    """

    __slots__ = ("records", "ranked")

    def __init__(
        self,
        records: tuple[tuple[tuple[float, "Community | None"], ...], ...],
        ranked: "tuple[Community, ...] | None",
    ) -> None:
        self.records = records
        self.ranked = ranked

    def answer(self, r: int) -> ResultSet:
        """What ``local_search`` returns for ``r``."""
        if r < 1:
            raise SolverError(f"need r >= 1, got r={r}")
        if self.ranked is not None:
            return ResultSet(self.ranked[:r])
        top = DistinctTopR(r)
        for steps in self.records:
            threshold = top.threshold()
            for value, community in steps:
                if value > threshold:
                    if community is not None:
                        top.offer(community)
                    break
        return ResultSet(top.ranked())
