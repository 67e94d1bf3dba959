"""CSR-native expansion engine: the search-lattice hot loop on flat arrays.

Algorithms 1 (SUM-NAIVE) and 2 (TIC-IMPROVED) spend their time generating
the children of a popped community ``C`` — the connected k-core components
of ``C \\ {v}`` for each ``v`` (Alg. 1 Lines 4-7, Alg. 2 Lines 11-13).  The
reference :class:`repro.reference.ExpansionContext` does this over
dict/set structures; this module is the vectorised rewrite.  A
popped component is relabelled into the dense local id space ``0..c-1``
only if at least one removal survives the Line-13 value prefilter — the
prefilter reads the member weights straight from the graph, so a pop the
bound already rules out returns without building any structure — and
every per-removal operation then runs over numpy arrays.

Mapping from the paper's pseudocode to the arrays held here
(``i`` is the local id of the removed vertex ``v = members.ids[i]``):

=====================================  ====================================
pseudocode step                        array operation
=====================================  ====================================
"for each vertex v in C"               ``np.flatnonzero(eligible)`` — the
(Alg. 1 L4, Alg. 2 L11)                value prefilter of ``expand`` is one
                                       vectorised comparison instead of a
                                       per-vertex Python check
"compute the k-core of C - {v}"        fast path: no neighbour of ``i`` has
(Alg. 1 L5, Alg. 2 L12's re-core)      induced degree k (``has_weak``) and
                                       ``i`` is not an articulation vertex
                                       (``articulation``, a vectorised
                                       Tarjan–Vishkin test over the
                                       spanning tree ``tree``) — the
                                       child is literally
                                       ``np.delete(ids, i)``;
                                       slow path: mask-peel cascade via
                                       :meth:`CSRAdjacency.peel_to_kcore`
                                       on the component-local CSR
"split into connected components"      fast path: the structure's BFS
(Alg. 1 L5, Alg. 2 L12)                spanning tree (``tree``) proves the
                                       survivors still connected from the
                                       removed vertices' neighbourhoods
                                       alone (:func:`repro.kernels.
                                       certify_connected`) — the single
                                       child is the survivor set; slow
                                       path, when that proof declines:
                                       :meth:`CSRAdjacency.components_of_
                                       mask` frontier BFS over local ids
"f(H) for each child H"                sum family: ``parent_value`` minus
(Alg. 1 L6, Alg. 2 L13's f(H))         the removed weights, accumulated in
                                       ascending id order by the shared
                                       ``removal_loss`` helper so values
                                       are bit-identical to the set engine
duplicate detection                    Zobrist keys carried incrementally:
(Alg. 2's candidate list L)            ``parent_key ^ xor(tokens[removed])``

Candidate communities stay sorted int32 :class:`MemberArray` instances all
the way through the solver frontier; the frozenset-backed
:class:`~repro.influential.community.Community` is only materialised at
the result boundary (``ChildCandidate.to_community``).  On a G(50k, 400k)
random graph this engine is the difference between seconds and minutes per
query — see ``benchmarks/bench_solvers.py`` / ``BENCH_solver_expansion.json``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro import kernels
from repro.aggregators.base import Aggregator
from repro.graphs.csr import CSRAdjacency
from repro.graphs.graph import Graph
from repro.influential.expansion import (
    ChildCandidate,
    removal_loss,
    sum_alpha_of,
)
from repro.utils.counters import count
from repro.utils.parallel import expansion_executor
from repro.utils.zobrist import ZobristHasher

__all__ = [
    "MemberArray",
    "ComponentStructure",
    "CSRExpansionContext",
    "SpanningTree",
]


class MemberArray:
    """A candidate community as a sorted int32 global-id array.

    Hash is the community's Zobrist key (consistent with equality: equal
    vertex sets always hash identically under one hasher; colliding keys
    are resolved by exact array comparison), so instances drop into the
    same dicts/sets/dedupers the reference set engine uses for frozensets.
    """

    __slots__ = ("ids", "key")

    def __init__(self, ids: np.ndarray, key: int) -> None:
        self.ids = ids
        self.key = key

    @classmethod
    def from_iterable(
        cls, vertices: Iterable[int], hasher: ZobristHasher
    ) -> "MemberArray":
        """Sorted id array plus from-scratch Zobrist key."""
        if isinstance(vertices, MemberArray):
            return vertices
        ids = np.fromiter(vertices, dtype=np.int64)
        ids.sort()
        if ids.size == 0 or ids[-1] <= np.iinfo(np.int32).max:
            ids = ids.astype(np.int32)
        return cls(ids, hasher.hash_members(ids))

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __hash__(self) -> int:
        return self.key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemberArray):
            return NotImplemented
        return self.ids.size == other.ids.size and bool(
            np.array_equal(self.ids, other.ids)
        )

    def to_frozenset(self) -> frozenset[int]:
        """Boundary conversion to the frozenset representation."""
        return frozenset(self.ids.tolist())

    def __repr__(self) -> str:
        return f"MemberArray(size={self.ids.size}, key={self.key:#x})"


class SpanningTree(NamedTuple):
    """A rooted spanning tree over a component's local ids.

    ``parent[root] == root``; ``tin`` is a preorder numbering and ``tout``
    is ``tin`` plus the subtree size, so ``y`` lies in ``t``'s subtree
    exactly when ``tin[t] <= tin[y] < tout[t]``.  All three arrays use
    the local CSR's index dtype.
    """

    parent: np.ndarray
    tin: np.ndarray
    tout: np.ndarray


class ComponentStructure:
    """Query-independent expansion state of one candidate community.

    Everything a :class:`CSRExpansionContext` derives from the *topology*
    (and the per-graph weight/token arrays) lives here: the component-local
    CSR, induced degrees, the ``has_weak`` cascade predicate, the lazily
    computed BFS spanning tree and the articulation mask read off it (the
    tree also lets a cascade prove its survivors connected without a
    component BFS), plus the gathered member weights and Zobrist tokens.
    None of it depends on the aggregator, the parent value, or the query's
    ``r``/``eps`` — which is what makes a structure safe to cache and
    share across queries.  A structure is only valid for the ``k`` it was
    built with (``has_weak`` thresholds at exactly ``k``); the
    serving-layer engine pool keys its cache by ``(k, members)``.

    ``substructure`` relabels a community that lives *inside* this one
    against the component-local CSR instead of the global graph: pops that
    share a maximal k-core component never pay the global gather (or its
    O(n) membership heuristics) again.
    """

    __slots__ = (
        "members",
        "local",
        "degree",
        "local_weights",
        "local_tokens",
        "has_weak",
        "_articulation",
        "_tree",
    )

    def __init__(
        self,
        members: MemberArray,
        local: CSRAdjacency,
        degree: np.ndarray,
        local_weights: np.ndarray,
        local_tokens: np.ndarray,
        has_weak: np.ndarray,
    ) -> None:
        self.members = members
        self.local = local
        self.degree = degree
        self.local_weights = local_weights
        self.local_tokens = local_tokens
        self.has_weak = has_weak
        # The articulation mask and the spanning tree it is read off are
        # computed lazily: value-pruned expansions (the steady state of
        # Algorithm 2) never need either.
        self._articulation: np.ndarray | None = None
        self._tree: SpanningTree | None = None

    @classmethod
    def build(
        cls, graph: Graph, members: MemberArray, k: int, hasher: ZobristHasher
    ) -> "ComponentStructure":
        """Structure of ``members`` relabelled against the global CSR."""
        ids64 = members.ids.astype(np.int64)
        local = graph.csr.induced_local(ids64)
        return cls._finish(
            members, local, k, graph.weights[ids64], hasher.tokens[ids64]
        )

    @classmethod
    def _finish(
        cls,
        members: MemberArray,
        local: CSRAdjacency,
        k: int,
        local_weights: np.ndarray,
        local_tokens: np.ndarray,
    ) -> "ComponentStructure":
        degree = local.degrees()
        # One vectorised pass computes, for every vertex, whether any
        # neighbour sits at induced degree exactly k (= removal cascades).
        c = len(members)
        owners = np.repeat(np.arange(c, dtype=np.int64), np.diff(local.indptr))
        weak_edge = degree[local.indices] == k
        has_weak = np.bincount(owners[weak_edge], minlength=c) > 0
        return cls(members, local, degree, local_weights, local_tokens, has_weak)

    def substructure(self, members: MemberArray, k: int) -> "ComponentStructure":
        """Structure of a community contained in this one.

        ``members`` must be a subset of ``self.members``; both are sorted,
        so one monotone searchsorted maps global ids to positions inside
        this component and the induced CSR is built from the (much
        smaller) component-local arrays.
        """
        pos = np.searchsorted(self.members.ids, members.ids).astype(np.int64)
        if pos.size and (
            pos[-1] >= self.members.ids.size
            or not np.array_equal(self.members.ids[pos], members.ids)
        ):
            raise ValueError(
                "substructure members are not a subset of the component"
            )
        local = self.local.induced_local(pos)
        return self._finish(
            members, local, k, self.local_weights[pos], self.local_tokens[pos]
        )

    def reweight(self, weights: np.ndarray) -> None:
        """Re-gather member weights after a ``with_weights``-style update.

        Topology, tokens, degrees, articulation and the spanning tree are
        weight-independent, so a cached structure survives a weight update
        at the cost of one fancy-indexing gather.
        """
        self.local_weights = weights[self.members.ids.astype(np.int64)]

    @property
    def articulation(self) -> np.ndarray:
        """Boolean mask over local ids: True at articulation vertices."""
        if self._articulation is None:
            self._articulation = _articulation_mask(self.local, self.tree)
        return self._articulation

    @property
    def tree(self) -> SpanningTree:
        """BFS spanning tree of the (connected) local graph."""
        if self._tree is None:
            self._tree = _spanning_tree(self.local)
        return self._tree

    def __repr__(self) -> str:
        return (
            f"ComponentStructure(size={len(self.members)}, "
            f"m={self.local.m})"
        )


class CSRExpansionContext:
    """Per-component expansion state over a component-local CSR.

    The drop-in array twin of
    :class:`repro.reference.ExpansionContext`: same
    constructor shape, same ``expand`` / ``children_after_removal`` /
    ``min_removal_loss`` surface, children carrying identical values and
    Zobrist keys — the property suite holds the two in lockstep.

    The query-independent arrays live in a :class:`ComponentStructure`,
    resolved lazily on first use: from ``pool`` (an
    :class:`~repro.serving.engine_pool.ExpansionEnginePool`, which caches
    it across queries) when one is given, else by relabelling against the
    global CSR.  :meth:`expand` prefilters removals before touching the
    structure, so a pop whose removals all fail the value bound never
    builds one.  The context never mutates the structure's arrays, so one
    structure can back any number of concurrent contexts.
    """

    __slots__ = (
        "graph",
        "k",
        "members",
        "aggregator",
        "parent_value",
        "parent_key",
        "hasher",
        "_structure",
        "_pool",
        "_sum_alpha",
    )

    def __init__(
        self,
        graph: Graph,
        members,
        k: int,
        aggregator: Aggregator,
        parent_value: float,
        hasher: ZobristHasher,
        parent_key: int | None = None,
        pool=None,
    ) -> None:
        self.graph = graph
        self.k = k
        self.members = MemberArray.from_iterable(members, hasher)
        self.aggregator = aggregator
        self.parent_value = parent_value
        self.hasher = hasher
        self.parent_key = (
            parent_key if parent_key is not None else self.members.key
        )
        self._structure: ComponentStructure | None = None
        self._pool = pool
        self._sum_alpha = sum_alpha_of(aggregator)

    @property
    def structure(self) -> ComponentStructure:
        """The component's :class:`ComponentStructure`, built on first use.

        The engine pool is not thread-safe: callers that hand work to
        threads resolve this on the dispatching thread first.
        """
        structure = self._structure
        if structure is None:
            if self._pool is not None:
                structure = self._pool.structure_for(self.members, self.k)
            else:
                structure = ComponentStructure.build(
                    self.graph, self.members, self.k, self.hasher
                )
            self._structure = structure
        return structure

    # ------------------------------------------------------------------
    # Solver surface (global vertex ids, mirroring ExpansionContext)
    # ------------------------------------------------------------------
    @property
    def component(self) -> frozenset[int]:
        """Frozenset view of the component (debug/test convenience)."""
        return self.members.to_frozenset()

    @property
    def local(self) -> CSRAdjacency:
        """The component-local CSR (local id ``i`` = ``members.ids[i]``)."""
        return self.structure.local

    @property
    def degree(self) -> np.ndarray:
        """Induced degree per local id."""
        return self.structure.degree

    @property
    def local_weights(self) -> np.ndarray:
        """Member weights gathered into local id order."""
        return self.structure.local_weights

    @property
    def local_tokens(self) -> np.ndarray:
        """Member Zobrist tokens gathered into local id order."""
        return self.structure.local_tokens

    @property
    def has_weak(self) -> np.ndarray:
        """True at local ids whose removal cascades (a degree-k neighbour)."""
        return self.structure.has_weak

    @property
    def articulation(self) -> np.ndarray:
        """Boolean mask over local ids: True at articulation vertices."""
        return self.structure.articulation

    def min_removal_loss(self, v: int) -> float:
        """Lower bound on ``f(component) - f(child)`` for removals of ``v``
        (same contract and arithmetic as the set engine)."""
        if self._sum_alpha is None:
            return 0.0
        return float(self.graph.weights[v]) + self._sum_alpha

    def children_after_removal(self, v: int) -> list[ChildCandidate]:
        """Connected k-core components of ``component - {v}`` with values."""
        ids = self.members.ids
        i = int(np.searchsorted(ids, v))
        if i >= ids.size or ids[i] != v:
            raise KeyError(f"vertex {v} is not in the component")
        if not self.has_weak[i] and not self.articulation[i]:
            if ids.size - 1 <= self.k:
                return []
            return [self._fast_child(i)]
        return self._cascade_children(i)

    def expand(
        self, floor=float("-inf"), rank: int | None = None
    ) -> Iterator[ChildCandidate]:
        """All children of the component in one batched pass.

        Vertex order and per-child output order match the set engine's
        ``expand`` exactly, including the float-or-callable ``floor``
        contract (a callable floor must be non-decreasing across calls —
        see the reference engine's docstring).  The initial prefilter, child
        values and child keys for fast-path removals are computed as
        whole-component vectors up front; a callable floor is then
        re-read per surviving removal (one scalar comparison) so a
        threshold that tightens mid-batch keeps pruning — only removals
        that clear the live bound materialise arrays.  The prefilter reads
        member weights from the graph, so the component's structure is
        only resolved once some removal survives it.

        ``rank`` (sum family only; ignored otherwise) certifies a floor
        from the batch itself: the removals that neither cascade nor split
        each yield exactly one child, ``C - {v}``, whose value
        ``(parent - w[v]) - alpha`` is known before it is built.  Those are
        distinct communities, so a child below the ``rank``-th largest of
        those values can never place among the top ``rank``, and neither
        can its descendants.  Every removal whose own fast value — an upper
        bound on all its children's values — falls below that certified
        value is dropped before it peels.  The comparison uses the child
        value expression and is non-strict, so the certifying removals and
        ties at the ``rank``-th value always survive.  The output is an
        in-order subsequence of the ``rank=None`` output; a caller passing
        ``rank`` must not need children that cannot reach its top ``rank``
        (Algorithm 2 at ``eps = 0``).

        When the process-wide expansion pool is active
        (``REPRO_EXPANSION_THREADS`` above 1 — see
        :func:`repro.utils.parallel.expansion_executor`) and the batch
        carries more than one cascading removal, the per-removal child
        computations are dispatched to threads speculatively and replayed
        here in the original order, with the live floor applied at yield
        time — the emitted sequence is byte-identical to the sequential
        path; a floor that tightens mid-batch merely turns some
        already-computed children into discarded speculation.

        The children yielded are counted here, on the consuming thread,
        as ``candidates`` (:mod:`repro.utils.counters`), and the removals
        any value floor skipped — the prefilter, the certified floor and
        the live floor — as ``pruned``, one flush per call: both paths
        count exactly what they yield and skip.
        """
        ids = self.members.ids
        c = ids.size
        if c == 0:
            return
        floor_now = floor if callable(floor) else (lambda: floor)
        parent_value = self.parent_value
        yielded = 0
        pruned = 0
        threaded = None
        try:
            if self._sum_alpha is not None:
                # Vectorised twin of the per-vertex min_removal_loss
                # prefilter, over the same float64 weights the structure
                # would gather.
                losses = self.graph.weights[ids] + self._sum_alpha
            else:
                # No cheap bound: any removal may keep the parent's value.
                losses = np.zeros(c)
            eligible = np.flatnonzero(parent_value - losses >= floor_now())
            pruned = c - eligible.size
            if eligible.size == 0:
                return
            # Resolve the structure and its lazy articulation mask (which
            # builds the spanning tree cascades read) here, on the calling
            # thread, before any work is dispatched to threads.
            structure = self.structure
            cascades = structure.has_weak | structure.articulation
            small = c - 1 <= self.k
            if rank is not None and self._sum_alpha is not None and not small:
                kept = self._certified(eligible, rank, cascades)
                pruned += eligible.size - kept.size
                eligible = kept
            loss_list = losses[eligible].tolist()
            executor, window = expansion_executor()
            if executor is not None and np.count_nonzero(cascades[eligible]) >= 2:
                threaded = self._expand_threaded(
                    eligible.tolist(), small, executor, window
                )
            for pos, i in enumerate(eligible.tolist()):
                if threaded is not None:
                    # The replay hands back removal ``pos``'s children;
                    # the live floor is read at the same point of the
                    # sequence as on the sequential path.
                    children = next(threaded)
                if parent_value - loss_list[pos] < floor_now():
                    pruned += 1
                    continue
                if threaded is None:
                    children = self._children_of_removal(i, small)
                for child in children:
                    yielded += 1
                    yield child
        finally:
            if threaded is not None:
                # Closing early cancels its queued speculation now, not
                # whenever the inner generator happens to be freed.
                threaded.close()
            count("candidates", yielded)
            if pruned:
                count("pruned", pruned)

    def _certified(
        self, eligible: np.ndarray, rank: int, cascades: np.ndarray
    ) -> np.ndarray:
        """The ``eligible`` removals that can still reach the top ``rank``
        against the floor the batch's fast removals certify.

        ``cascades`` marks the local ids whose removal peels or splits.
        Each other removal's child value is ``(parent - w[v]) - alpha``,
        the :meth:`_fast_child` arithmetic, bit for bit; with fewer than
        ``rank`` such removals nothing is certified and every removal is
        kept.
        """
        bounds = (
            self.parent_value - self.structure.local_weights[eligible]
        ) - self._sum_alpha
        fast = bounds[~cascades[eligible]]
        if fast.size < rank:
            return eligible
        certified = np.partition(fast, fast.size - rank)[fast.size - rank]
        return eligible[bounds >= certified]

    def _children_of_removal(self, i: int, small: bool) -> list[ChildCandidate]:
        """Children of removing local id ``i`` — the unit of threaded work.

        Reads only immutable structure arrays and allocates fresh
        scratch, so any number of these may run concurrently against one
        :class:`ComponentStructure` (the caller forces ``articulation``
        before dispatch, and that builds ``tree`` too, so the lazy inits
        never race).
        """
        if self.has_weak[i] or self.articulation[i]:
            return self._cascade_children(i)
        if small:
            return []
        return [self._fast_child(i)]

    def _expand_threaded(
        self,
        eligible: list[int],
        small: bool,
        executor,
        window: int,
    ) -> Iterator[list[ChildCandidate]]:
        """Speculative threaded expansion with in-order replay.

        A sliding window of at most ``window`` removals runs ahead on the
        pool; each removal's children are handed back strictly in
        submission order, so :meth:`expand` evaluates the live floor at
        the same point of the consumption sequence as the sequential path
        — identical output, with the pruned removals' work wasted rather
        than skipped (bounded by the window).  Threads overlap only where
        numpy releases the GIL inside the kernels' array operations.
        """
        pending: deque = deque()
        submitted = 0
        try:
            while submitted < len(eligible) or pending:
                while submitted < len(eligible) and len(pending) < window:
                    i = eligible[submitted]
                    pending.append(
                        executor.submit(self._children_of_removal, i, small)
                    )
                    submitted += 1
                yield pending.popleft().result()
        finally:
            # An abandoned or floor-terminated generator must not leave
            # speculative work queued behind it on the shared pool.
            for future in pending:
                future.cancel()

    # ------------------------------------------------------------------
    # Child construction
    # ------------------------------------------------------------------
    def _fast_child(self, i: int) -> ChildCandidate:
        """No cascade, still connected: the child is ``C`` minus one id."""
        ids = self.members.ids
        key = self.parent_key ^ int(self.local_tokens[i])
        child = MemberArray(np.delete(ids, i), key)
        if self._sum_alpha is None:
            # Ascending member order, like the set engine's _value_of, so
            # the float summation sequence (and result) is identical.
            value = self.aggregator.value(self.graph, child.ids.tolist())
        else:
            # Same expression shape as the set engine's _value_of:
            # (parent - lost) - alpha * |removed|, with |removed| = 1.
            lost = float(self.local_weights[i])
            value = self.parent_value - lost - self._sum_alpha * 1
        return ChildCandidate(child, value, key)

    def _cascade_children(self, i: int) -> list[ChildCandidate]:
        """Localised cascade peel plus survivor split, all on local ids.

        The split asks the spanning-tree certificate first: when it proves
        the survivors connected, the one child is the survivor set — what
        the component BFS would return — and the BFS runs only when the
        certificate declines.
        """
        structure, k = self.structure, self.k
        local = structure.local
        c = self.members.ids.size
        mask = np.ones(c, dtype=bool)
        mask[i] = False
        degrees = structure.degree.copy()
        degrees[local.neighbors(i)] -= 1
        local.peel_to_kcore(mask, k, degrees=degrees)
        survivors = np.flatnonzero(mask)
        if survivors.size <= k:
            return []
        removed_all = np.flatnonzero(~mask)
        tree = structure.tree
        if kernels.certify_connected(
            local.indptr,
            local.indices,
            tree.parent,
            tree.tin,
            tree.tout,
            mask,
            removed_all,
        ):
            pieces = [survivors]
        else:
            pieces = local.components_of_mask(mask)
        ids = self.members.ids
        children = []
        for piece in pieces:
            if len(pieces) == 1:
                piece_removed = removed_all
            else:
                complement = np.ones(c, dtype=bool)
                complement[piece] = False
                piece_removed = np.flatnonzero(complement)
            removed_global = ids[piece_removed]
            key = self.hasher.toggle_many(self.parent_key, removed_global)
            child = MemberArray(ids[piece], key)
            if self._sum_alpha is None:
                value = self.aggregator.value(self.graph, child.ids.tolist())
            else:
                lost = removal_loss(self.graph.weights, removed_global)
                value = (
                    self.parent_value
                    - lost
                    - self._sum_alpha * len(piece_removed)
                )
            children.append(ChildCandidate(child, value, key))
        return children


def _spanning_tree(local: CSRAdjacency) -> SpanningTree:
    """BFS spanning tree of ``local`` rooted at its max-degree vertex.

    Level-synchronous: each level gathers the frontier's neighbour runs at
    once and every newly reached vertex takes its first gathered owner as
    parent.  Subtree sizes then accumulate bottom-up level by level, and
    preorder numbers are handed out top-down — siblings, grouped by
    parent, take consecutive blocks right after their parent's number.
    ``local`` must be connected and non-empty, as every structure's is: a
    structure holds one connected k-core component.  Anything else raises
    :class:`ValueError` (the articulation mask reads this tree, so the
    precondition is checked, not asserted).
    """
    c = local.n
    if c == 0:
        raise ValueError("spanning tree needs a non-empty local graph")
    root = int(np.argmax(local.degrees()))
    parent = np.full(c, -1, dtype=np.int64)
    parent[root] = root
    frontier = np.asarray([root], dtype=np.int64)
    levels = []
    while True:
        neigh, owners, __ = local.gather_full(frontier)
        fresh = parent[neigh] < 0
        frontier, first = np.unique(neigh[fresh], return_index=True)
        if frontier.size == 0:
            break
        frontier = frontier.astype(np.int64)
        parent[frontier] = owners[fresh][first]
        levels.append(frontier)
    unreached = int(np.count_nonzero(parent < 0))
    if unreached:
        raise ValueError(
            f"spanning tree needs a connected local graph: {unreached} of "
            f"{c} vertices are unreachable from the root"
        )
    size = np.ones(c, dtype=np.int64)
    for level in reversed(levels):
        np.add.at(size, parent[level], size[level])
    tin = np.zeros(c, dtype=np.int64)
    for level in levels:
        level = level[np.argsort(parent[level], kind="stable")]
        up = parent[level]
        # Exclusive running size within each parent's group of children.
        before = np.cumsum(size[level]) - size[level]
        group = np.flatnonzero(np.r_[True, up[1:] != up[:-1]])
        starts = np.repeat(before[group], np.diff(np.r_[group, level.size]))
        tin[level] = tin[up] + 1 + before - starts
    dtype = local.indices.dtype
    return SpanningTree(
        parent.astype(dtype), tin.astype(dtype), (tin + size).astype(dtype)
    )


def _articulation_mask(local: CSRAdjacency, tree: SpanningTree) -> np.ndarray:
    """Articulation vertices of the connected ``local`` graph, as a mask.

    Tarjan & Vishkin's biconnectivity test, which works on any rooted
    spanning tree.  Each tree edge is named by its child vertex; two tree
    edges lie in one block (biconnected component) exactly when a chain
    of these joins links them:

    1. a non-tree edge ``{u, w}`` with neither endpoint an ancestor of the
       other joins edge ``u`` and edge ``w``;
    2. a child ``w`` of a non-root ``p`` joins edge ``p`` when some
       neighbour of ``w``'s subtree lies outside ``p``'s subtree:
       ``low[w] < tin[p]`` or ``high[w] >= tout[p]``, where ``low``/
       ``high`` are the min/max preorder number adjacent to the subtree.

    ``v`` is an articulation vertex iff its own edge and its children's
    edges fall into two or more blocks.  Every step is a whole-graph
    array operation.
    """
    c = local.n
    if c <= 2:
        return np.zeros(c, dtype=bool)
    indptr, indices = local.indptr, local.indices
    parent, tin, tout = tree
    vertices = np.arange(c)
    # Per-vertex bounds (every vertex of a connected graph has a
    # neighbour, so no reduceat run is empty), then per-subtree bounds as
    # range reductions over the preorder.  Tree neighbours are harmless:
    # the parent of ``w`` sits at ``tin[p]``, inside both tests' bounds.
    reached = tin[indices]
    at = np.empty(c, dtype=np.int64)
    at[tin] = vertices
    low = _subtree_reduce(
        np.minimum, np.minimum.reduceat(reached, indptr[:-1])[at], tin, tout
    )
    high = _subtree_reduce(
        np.maximum, np.maximum.reduceat(reached, indptr[:-1])[at], tin, tout
    )
    # Rule 1, over each edge's arc out of its earlier endpoint in
    # preorder: that endpoint is an ancestor of the other iff the other
    # lies inside its subtree.
    degree = np.diff(indptr)
    cross = (np.repeat(tin, degree) < reached) & (reached >= np.repeat(tout, degree))
    u = np.repeat(vertices, degree)[cross]
    w = indices[cross]
    # Rule 2, over the children of non-root vertices.
    is_root = parent == vertices
    child = np.flatnonzero(~is_root & ~is_root[parent])
    up = parent[child]
    escapes = (low[child] < tin[up]) | (high[child] >= tout[up])
    block = _min_labels(
        c,
        np.concatenate([u, child[escapes]]),
        np.concatenate([w, up[escapes]]),
    )
    articulation = np.zeros(c, dtype=bool)
    articulation[up[block[child] != block[up]]] = True
    root_children = block[np.flatnonzero(~is_root & is_root[parent])]
    articulation[is_root] = root_children.min() != root_children.max()
    return articulation


def _subtree_reduce(
    ufunc: np.ufunc, values: np.ndarray, tin: np.ndarray, tout: np.ndarray
) -> np.ndarray:
    """``ufunc``-reduction of ``values[tin[v]:tout[v]]`` for every ``v``.

    A sparse table over the preorder: row ``j`` holds the reductions of
    every window of length ``2**j``, and each (non-empty) range is the
    union of two overlapping windows — O(c log c) work however deep the
    tree is.
    """
    c = values.size
    table = np.empty((c.bit_length(), c), dtype=values.dtype)
    table[0] = values
    span = 1
    for row in range(1, table.shape[0]):
        prev = table[row - 1, : c - span + 1]
        table[row, : c - 2 * span + 1] = ufunc(prev[:-span], prev[span:])
        span *= 2
    row = np.frexp(tout - tin)[1] - 1
    return ufunc(table[row, tin], table[row, tout - (1 << row)])


def _min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component labels of the pairs ``(a[i], b[i])`` over ``n``.

    Min-label hooking: each pair hooks its larger root under its smaller
    one, pointer jumping then flattens every vertex onto its root, and
    the pairs are rewritten onto their roots, dropping those already
    joined.  Labels only ever decrease, so the hooks form a forest and
    each vertex ends labelled with its component's smallest id.
    """
    label = np.arange(n, dtype=np.int64)
    while a.size:
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        a, b = label[a], label[b]
        apart = a != b
        a, b = a[apart], b[apart]
    return label
