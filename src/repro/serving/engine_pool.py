"""Shared expansion-engine state for many queries over one graph.

The CSR expansion engine of :mod:`repro.influential.expansion_csr` pays,
per popped community that has at least one removal surviving the Line-13
value prefilter, one relabelling of the community against the global CSR
(plus degrees, the cascade predicate, and — lazily — the BFS spanning
tree and the articulation vertices read off it; the tree also lets a
cascade skip its component BFS); a pop the bound rules out entirely never
asks the pool at all.  Within a single query the solvers already build
that state at most once per community; across a *served batch* the same
communities are popped again and again — every query at degree
constraint ``k`` starts from the identical maximal-k-core components, and
queries differing only in ``r``/``eps``/aggregator re-walk largely the
same lattice.

:class:`ExpansionEnginePool` hoists the query-independent half of the
engine (:class:`~repro.influential.expansion_csr.ComponentStructure`) into
shared state keyed by ``(k, members)``:

* the **core decomposition** of the graph is computed once and every
  per-k seed split is one threshold + component pass over it (no per-query
  full-graph peel), also giving an O(1) ``kmax`` for the "k above the max
  core number" fast path;
* **seed components** are held per k (they are the roots of every
  expansion at that k and the largest structures), along with a
  vertex→seed ownership map; per-k state is itself LRU-bounded
  (``k_state_capacity``) so a k-sweeping workload cannot pin O(n)
  arrays for every distinct k forever;
* **popped sub-communities** go through an LRU: on a miss, the structure
  is built *inside its seed component* via
  :meth:`~repro.influential.expansion_csr.ComponentStructure.substructure`
  — a relabelling against the component-local CSR instead of the whole
  graph;
* one **Zobrist table** (:class:`~repro.utils.zobrist.ZobristHasher`) is
  shared by every query the pool serves, so member keys — and therefore
  structure-cache hits — line up across queries.

Weight updates do not invalidate any of this topology-derived state:
:meth:`reweight` re-gathers the per-structure weight slices in place.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core.decomposition import core_decomposition
from repro.graphs.graph import Graph
from repro.influential.expansion_csr import ComponentStructure, MemberArray
from repro.serving.cache import LRUCache
from repro.utils.zobrist import ZobristHasher

__all__ = ["ExpansionEnginePool"]


class _PerKState:
    """Seeds of one degree constraint: components, structures, ownership.

    ``owner`` (vertex -> seed index, -1 outside every seed) is an O(n)
    array, so it is ``None`` for ks with no seeds at all — those share one
    empty state instead of pinning 8n bytes per distinct above-kmax k.
    """

    __slots__ = ("seeds", "seed_index", "structures", "owner")

    def __init__(
        self, seeds: list[MemberArray], owner: np.ndarray | None
    ) -> None:
        self.seeds = seeds
        self.seed_index = {members: i for i, members in enumerate(seeds)}
        self.structures: list[ComponentStructure | None] = [None] * len(seeds)
        self.owner = owner


class ExpansionEnginePool:
    """Per-(graph, k) expansion-engine state shared across queries.

    Solvers take the pool through their ``engine_pool=`` keyword (threaded
    from :func:`repro.influential.api.top_r_communities` and owned by
    :class:`repro.serving.service.QueryService`).  The pool is a pure
    cache: with or without it, solver outputs are byte-identical — the
    oracle and property suites under ``tests/serving`` hold it to that.

    Not thread-safe; each fleet member owns its own service and pool
    instead of sharing a locked one.
    """

    __slots__ = (
        "graph",
        "hasher",
        "_cores",
        "_per_k",
        "_k_state_capacity",
        "_empty_state",
        "_structures",
        "_constrained_seeds",
        "structure_hits",
        "structure_misses",
    )

    def __init__(
        self,
        graph: Graph,
        hasher: ZobristHasher | None = None,
        capacity: int = 1024,
        k_state_capacity: int = 32,
        core_numbers: np.ndarray | None = None,
    ) -> None:
        if k_state_capacity < 1:
            raise ValueError(
                f"k_state_capacity must be >= 1, got {k_state_capacity}"
            )
        self.graph = graph
        self.hasher = hasher if hasher is not None else ZobristHasher(graph.n)
        if len(self.hasher) != graph.n:
            raise ValueError(
                f"hasher covers {len(self.hasher)} vertices, graph has {graph.n}"
            )
        if core_numbers is not None and core_numbers.shape != (graph.n,):
            raise ValueError(
                f"core_numbers shape {core_numbers.shape} does not match "
                f"{graph.n} vertices"
            )
        # A precomputed decomposition (a loaded snapshot, typically) seeds
        # the cache: the pool then never peels the full graph at all.
        self._cores: np.ndarray | None = core_numbers
        # LRU over per-k seed state: each non-empty entry pins an O(n)
        # ownership array plus the k's seed structures, the dominant
        # memory of a long-lived pool — a k-sweeping workload must not
        # accumulate one forever per distinct k.
        self._per_k: OrderedDict[int, _PerKState] = OrderedDict()
        self._k_state_capacity = k_state_capacity
        self._empty_state: _PerKState | None = None
        self._structures = LRUCache(capacity)
        # Constrained-seed lists per (k, label predicate): one masked peel
        # each, so the cache is small and cheap to refill — it is cleared
        # wholesale on any topology change (see apply_update).
        self._constrained_seeds = LRUCache(64)
        self.structure_hits = 0
        self.structure_misses = 0

    # ------------------------------------------------------------------
    # Cached decomposition
    # ------------------------------------------------------------------
    @property
    def core_numbers(self) -> np.ndarray:
        """Core number of every vertex (computed once per pool)."""
        if self._cores is None:
            self._cores = core_decomposition(self.graph)
        return self._cores

    @property
    def kmax(self) -> int:
        """The graph's maximum core number (0 for the empty graph)."""
        cores = self.core_numbers
        return int(cores.max()) if cores.size else 0

    def core_level_sizes(self) -> np.ndarray:
        """``sizes[k]``: vertices in the maximal k-core, for k in 0..kmax.

        One bincount plus a suffix sum over the cached decomposition —
        no per-k seed state is built or pinned.  ``sizes[0] == n``; the
        index layer and its CLI/bench report level coverage from this.
        """
        cores = self.core_numbers
        if not cores.size:
            return np.zeros(1, dtype=np.int64)
        counts = np.bincount(cores, minlength=self.kmax + 1)
        return counts[::-1].cumsum()[::-1]

    # ------------------------------------------------------------------
    # Seeds
    # ------------------------------------------------------------------
    def _state_for(self, k: int) -> _PerKState:
        state = self._per_k.get(k)
        if state is not None:
            self._per_k.move_to_end(k)
            return state
        mask = self.core_numbers >= k
        if not mask.any():
            # No seeds at this k (k > kmax, or an empty graph): one shared
            # empty state serves every such k — a workload probing many
            # distinct oversized ks must not grow the pool.
            state = self._empty_state
            if state is None:
                state = self._empty_state = _PerKState([], None)
            self._per_k[k] = state
            while len(self._per_k) > self._k_state_capacity:
                self._per_k.popitem(last=False)
            return state
        seeds: list[MemberArray] = []
        owner = np.full(self.graph.n, -1, dtype=np.int64)
        # components_of_mask emits by smallest member over sorted id
        # arrays — the exact contract of connected_kcore_components, so
        # pool-served seeds match the per-query peel bit for bit.
        for index, component in enumerate(
            self.graph.csr.components_of_mask(mask)
        ):
            owner[component] = index
            ids = component
            if ids.size == 0 or ids[-1] <= np.iinfo(np.int32).max:
                ids = ids.astype(np.int32)
            seeds.append(MemberArray(ids, self.hasher.hash_members(ids)))
        state = _PerKState(seeds, owner)
        self._per_k[k] = state
        while len(self._per_k) > self._k_state_capacity:
            self._per_k.popitem(last=False)
        return state

    def seed_members(self, k: int) -> list[MemberArray]:
        """The maximal k-core components, smallest member first."""
        return list(self._state_for(k).seeds)

    def constrained_seed_members(self, k: int, predicate) -> list[MemberArray]:
        """Seeds of the label-constrained lattice at constraint ``k``: the
        components of the maximal k-core of ``G[matching]``.

        The peel starts from ``matching ∩ {core >= k}`` — the constrained
        k-core is contained in both, so intersecting first only shrinks
        the work, never the fixpoint — and runs on the *global* CSR, so no
        vertex ids are remapped and the resulting seeds share the pool's
        structure LRU with unconstrained queries at the same k.
        """
        from repro.influential.constraints import matching_mask

        key = (k, predicate)
        cached = self._constrained_seeds.get(key)
        if cached is not None:
            return list(cached)
        mask = matching_mask(self.graph, predicate) & (self.core_numbers >= k)
        seeds: list[MemberArray] = []
        if mask.any():
            self.graph.csr.peel_to_kcore(mask, k)
            for component in self.graph.csr.components_of_mask(mask):
                ids = component
                if ids.size == 0 or ids[-1] <= np.iinfo(np.int32).max:
                    ids = ids.astype(np.int32)
                seeds.append(MemberArray(ids, self.hasher.hash_members(ids)))
        self._constrained_seeds.put(key, tuple(seeds))
        return list(seeds)

    def _seed_structure(self, state: _PerKState, index: int, k: int):
        structure = state.structures[index]
        if structure is None:
            self.structure_misses += 1
            structure = ComponentStructure.build(
                self.graph, state.seeds[index], k, self.hasher
            )
            state.structures[index] = structure
        else:
            self.structure_hits += 1
        return structure

    # ------------------------------------------------------------------
    # Structure lookup (the expansion_context hook)
    # ------------------------------------------------------------------
    def structure_for(self, members, k: int) -> ComponentStructure:
        """The (possibly cached) structure of ``members`` at constraint k.

        Seeds are pinned per k; anything else goes through the LRU and is
        built inside its owning seed component on a miss.
        """
        members = MemberArray.from_iterable(members, self.hasher)
        state = self._state_for(k)
        seed_index = state.seed_index.get(members)
        if seed_index is not None:
            return self._seed_structure(state, seed_index, k)
        cached = self._structures.get((k, members))
        if cached is not None:
            self.structure_hits += 1
            return cached
        self.structure_misses += 1
        root = -1
        if len(members) and state.owner is not None:
            root = int(state.owner[int(members.ids[0])])
        if root >= 0:
            structure = self._seed_structure(state, root, k).substructure(
                members, k
            )
        else:
            structure = ComponentStructure.build(
                self.graph, members, k, self.hasher
            )
        self._structures.put((k, members), structure)
        return structure

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def apply_update(
        self,
        graph: Graph,
        core_numbers: np.ndarray,
        max_affected_core: int,
        changed_edges: tuple[tuple[int, int], ...],
    ) -> int:
        """Absorb an edge-update delta, dropping only what it invalidates.

        ``graph``/``core_numbers`` are the post-delta graph and its
        repaired decomposition (see :class:`repro.graphs.delta.GraphDelta`);
        ``max_affected_core`` is the delta's locality bound: every k above
        it has an identical maximal k-core, so its per-k seed state —
        components, ownership array, pinned seed structures — survives
        verbatim.  States at ``k <= max_affected_core`` are dropped
        (partitions can merge or split there) and lazily rebuilt from the
        new core numbers; LRU-cached sub-community structures are dropped
        only when an applied edge has both endpoints inside their member
        set, because a structure encodes nothing beyond the topology
        induced on its members.  Returns how many cached structures were
        dropped.
        """
        from repro.serving.updates import structure_survives

        if graph.n != self.graph.n:
            raise ValueError(
                "apply_update expects a graph with the same vertex set; "
                "use a fresh pool for a different graph"
            )
        if core_numbers.shape != (graph.n,):
            raise ValueError(
                f"core_numbers shape {core_numbers.shape} does not match "
                f"{graph.n} vertices"
            )
        self.graph = graph
        self._cores = core_numbers
        # Constrained seeds are peeled inside the *induced* subgraph of a
        # predicate's matching set, whose core structure has its own (finer)
        # locality; rather than prove a per-entry bound, drop them all —
        # each entry is one masked peel to rebuild.
        self._constrained_seeds.clear()
        dropped = 0
        for k in [k for k in self._per_k if k <= max_affected_core]:
            state = self._per_k.pop(k)
            if state is not self._empty_state:
                dropped += sum(
                    1 for structure in state.structures if structure is not None
                )
        dropped += self._structures.invalidate_where(
            lambda key: not structure_survives(key[1].ids, changed_edges)
        )
        return dropped

    def reweight(self, graph: Graph) -> None:
        """Point the pool at a re-weighted twin of its graph.

        ``graph`` must share the topology (``with_weights`` derivation);
        every cached structure re-gathers its weight slice in place —
        local CSRs, degrees, spanning trees, the articulation masks read off
        them and Zobrist tokens are all weight-independent and survive
        untouched.
        """
        if graph.n != self.graph.n or graph.m != self.graph.m:
            raise ValueError(
                "reweight expects a graph with identical topology; use a "
                "fresh pool for a different graph"
            )
        self.graph = graph
        weights = graph.weights
        for state in self._per_k.values():
            for structure in state.structures:
                if structure is not None:
                    structure.reweight(weights)
        for structure in self._structures.values():
            structure.reweight(weights)

    def clear(self) -> None:
        """Drop every cached seed, structure and decomposition."""
        self._cores = None
        self._per_k.clear()
        self._empty_state = None
        self._structures.clear()
        self._constrained_seeds.clear()

    def stats(self) -> dict[str, object]:
        """Cache counters, JSON-ready (feeds the service's stats)."""
        return {
            "structure_lru": self._structures.stats(),
            "structure_hits": self.structure_hits,
            "structure_misses": self.structure_misses,
            "constrained_seed_entries": len(self._constrained_seeds),
            "ks_seeded": sorted(
                k for k, state in self._per_k.items() if state.seeds
            ),
        }

    def __repr__(self) -> str:
        return (
            f"ExpansionEnginePool(n={self.graph.n}, ks={sorted(self._per_k)}, "
            f"structures={len(self._structures)})"
        )
