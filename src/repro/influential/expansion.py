"""Fast single-vertex expansion of candidate communities.

Algorithms 1 and 2 share one hot operation: given a connected k-core
component ``C``, compute the connected k-core components of ``C \\ {v}``
for every ``v`` (the "children" of ``C`` in the search lattice).  Done
naively this is O(|C| * (|C| + |E(C)|)) per expansion because each child
re-cores and re-splits from scratch.

:class:`ExpansionContext` precomputes, once per component:

* the component-local adjacency (children are always subsets of ``C``, so
  the global graph never needs to be consulted again);
* induced degrees;
* the articulation vertices of ``G[C]`` (iterative Tarjan).

Then most removals take the fast path: if no neighbour of ``v`` has
induced degree exactly k (nothing cascades) and ``v`` is not an
articulation vertex (the remainder stays connected), the single child is
literally ``C - {v}`` — one C-level set copy instead of a Python BFS.
Otherwise a localised cascade runs on a copied degree map and only then is
the survivor set split by BFS.

Influence values and Zobrist hashes are carried *incrementally*: a child's
value is the parent's minus the removed weight (sum family) and its hash is
the parent's XORed with the removed tokens, so neither costs a walk over
the child.  ``min_removal_loss`` additionally gives solvers a lower bound
on the value lost by deleting a vertex, letting them skip generating
children that cannot beat the current pruning threshold.

This module is the *set engine* and the shared vocabulary
(:class:`ChildCandidate`, the value/representation helpers, the
:func:`expansion_context` factory).  Its array twin is
:mod:`repro.influential.expansion_csr`, which runs the same lattice
expansion over a component-local CSR; the factory picks between them via
the ``backend=`` switch, and the parity property suite keeps the two
bit-identical — the set engine is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.aggregators.base import Aggregator
from repro.graphs.backend import resolve_backend
from repro.graphs.graph import Graph
from repro.influential.community import Community
from repro.utils.zobrist import ZobristHasher


def sum_alpha_of(aggregator: Aggregator) -> float | None:
    """Per-vertex surcharge of a sum-family aggregator, or None.

    ``0.0`` for plain sum, the aggregator's alpha for sum-surplus, None for
    everything else (no cheap incremental value update exists).
    """
    if aggregator.name == "sum":
        return 0.0
    if aggregator.name.startswith("sum-surplus"):
        return float(getattr(aggregator, "alpha", 0.0))
    return None


def removal_loss(weights, removed_sorted) -> float:
    """Total weight of ``removed_sorted`` by sequential accumulation in
    ascending vertex order.

    Both expansion backends compute child values through this one helper so
    the floating-point rounding — and therefore every downstream value
    comparison and result set — is bit-identical across backends.
    """
    total = 0.0
    for u in removed_sorted:
        total += float(weights[u])
    return total


def members_frozenset(members) -> frozenset[int]:
    """Plain-int frozenset view of either community representation
    (``frozenset`` from the set backend, ``MemberArray`` from the CSR
    backend)."""
    if isinstance(members, frozenset):
        return members
    return members.to_frozenset()


@dataclass(frozen=True)
class ChildCandidate:
    """One expansion product: vertex set, influence value, Zobrist hash.

    ``vertices`` is a ``frozenset`` under the set backend and a sorted
    int32 :class:`~repro.influential.expansion_csr.MemberArray` under the
    CSR backend; both are hashable and equality-comparable, so solvers
    treat them uniformly and only convert at the result boundary via
    :meth:`to_community`.
    """

    vertices: "frozenset[int] | object"
    value: float
    key: int

    def to_community(self, aggregator_name: str, k: int) -> Community:
        """The frozenset-backed result object (the boundary conversion)."""
        return Community(
            members_frozenset(self.vertices), self.value, aggregator_name, k
        )


class ExpansionContext:
    """Per-component state for fast child generation.

    ``parent_value`` is ``f(component)`` and ``parent_key`` its Zobrist
    hash; both are updated incrementally into every child.
    """

    __slots__ = (
        "graph",
        "k",
        "component",
        "aggregator",
        "parent_value",
        "parent_key",
        "hasher",
        "local_adj",
        "degree",
        "articulation",
        "weights",
        "_sum_alpha",
    )

    def __init__(
        self,
        graph: Graph,
        component: frozenset[int],
        k: int,
        aggregator: Aggregator,
        parent_value: float,
        hasher: ZobristHasher,
        parent_key: int | None = None,
    ) -> None:
        self.graph = graph
        self.k = k
        self.component = component
        self.aggregator = aggregator
        self.parent_value = parent_value
        self.hasher = hasher
        self.parent_key = (
            parent_key if parent_key is not None else hasher.hash_set(component)
        )
        adj = graph.adjacency
        self.local_adj = {v: adj[v] & component for v in component}
        self.degree = {v: len(neigh) for v, neigh in self.local_adj.items()}
        self.articulation = _articulation_vertices(self.local_adj)
        self.weights = graph.weights
        # Sum-family detection for incremental values: alpha is the
        # per-vertex surcharge (0 for plain sum, None for non-sum-family).
        self._sum_alpha = sum_alpha_of(aggregator)

    def min_removal_loss(self, v: int) -> float:
        """A lower bound on ``f(component) - f(child)`` over all children
        produced by removing ``v``.

        For the sum family the loss is at least the removed vertex's own
        contribution; for other aggregators no cheap bound exists (return
        0, i.e. never skip).
        """
        if self._sum_alpha is None:
            return 0.0
        return float(self.weights[v]) + self._sum_alpha

    def _value_of(self, child: frozenset[int], removed: set[int]) -> float:
        """Child influence value, incrementally for the sum family.

        Non-incremental evaluation walks the members in ascending id order
        (not frozenset order) so both engines sum in the same sequence and
        return bit-identical floats.
        """
        if self._sum_alpha is None:
            return self.aggregator.value(self.graph, sorted(child))
        lost = removal_loss(self.weights, sorted(removed))
        return self.parent_value - lost - self._sum_alpha * len(removed)

    def _key_of(self, removed: set[int]) -> int:
        """Child Zobrist key: parent key XOR removed tokens."""
        key = self.parent_key
        hasher = self.hasher
        for u in removed:
            key = hasher.toggle(key, u)
        return key

    def expand(self, floor=float("-inf")) -> Iterator[ChildCandidate]:
        """All children of the component, one removal at a time.

        Vertices are visited in ascending id order; per vertex, children
        come out in the order of :meth:`children_after_removal`.  ``floor``
        is a value prefilter: removals whose cheapest possible child
        (:meth:`min_removal_loss`) already falls below it generate nothing.
        It may be a float or a zero-argument callable (e.g. the bound
        method ``TopR.threshold``) — a callable is re-read per removal, so
        a threshold that tightens while children are consumed keeps
        pruning mid-batch.  A callable floor must be non-decreasing across
        calls (pruning bounds only tighten): the CSR engine prefilters the
        whole batch against the first reading, so a floor that later
        *dropped* would prune differently there.  The floor is
        conservative either way; callers must still re-check each child
        against their current bound.
        """
        floor_now = floor if callable(floor) else (lambda: floor)
        parent_value = self.parent_value
        for v in sorted(self.component):
            if parent_value - self.min_removal_loss(v) < floor_now():
                continue
            yield from self.children_after_removal(v)

    def children_after_removal(self, v: int) -> list[ChildCandidate]:
        """Connected k-core components of ``component - {v}`` with values."""
        component, k = self.component, self.k
        weak = [u for u in self.local_adj[v] if self.degree[u] == k]
        if not weak and v not in self.articulation:
            # Fast path: no cascade, still connected.
            if len(component) - 1 <= k:
                return []
            child = component - {v}
            removed = {v}
            return [
                ChildCandidate(child, self._value_of(child, removed),
                               self._key_of(removed))
            ]
        # Slow path: localised cascade on a copied degree map.
        degree = self.degree.copy()
        removed = {v}
        stack = [v]
        local_adj = self.local_adj
        while stack:
            x = stack.pop()
            for u in local_adj[x]:
                if u in removed:
                    continue
                degree[u] -= 1
                if degree[u] < k:
                    removed.add(u)
                    stack.append(u)
        survivors = component - removed
        if len(survivors) <= k:
            return []
        pieces = _split_components(local_adj, survivors)
        children = []
        for piece in pieces:
            piece_removed = removed if len(pieces) == 1 else set(component - piece)
            children.append(
                ChildCandidate(
                    piece,
                    self._value_of(piece, piece_removed),
                    self._key_of(piece_removed),
                )
            )
        return children


def community_members(
    vertices: Iterable[int], hasher: ZobristHasher, backend: str = "auto"
) -> tuple[object, int]:
    """Backend-appropriate community representation plus its Zobrist key.

    ``frozenset`` under the set backend, a sorted int32
    :class:`~repro.influential.expansion_csr.MemberArray` under CSR.  Both
    are hashable with Zobrist-consistent keys, so solver bookkeeping
    (dedupers, confirmed sets, expansion maps) is representation-agnostic.
    """
    if resolve_backend(backend) == "csr":
        from repro.influential.expansion_csr import MemberArray

        members = MemberArray.from_iterable(vertices, hasher)
        return members, members.key
    members = frozenset(vertices)
    return members, hasher.hash_set(members)


def expansion_context(
    graph: Graph,
    members,
    k: int,
    aggregator: Aggregator,
    parent_value: float,
    hasher: ZobristHasher,
    parent_key: int | None = None,
    backend: str = "auto",
    pool=None,
):
    """Build the expansion engine for ``members`` on the resolved backend.

    ``members`` may be either representation; it is normalised to what the
    chosen engine expects, so solvers can hand over whatever they carry.
    Returns :class:`ExpansionContext` (set) or
    :class:`~repro.influential.expansion_csr.CSRExpansionContext` (csr);
    the two expose the same ``expand`` / ``children_after_removal`` /
    ``min_removal_loss`` surface and produce bit-identical children.

    ``pool`` may carry a
    :class:`~repro.serving.engine_pool.ExpansionEnginePool`: on the CSR
    backend the pool supplies (and caches across queries) the
    query-independent :class:`~repro.influential.expansion_csr
    .ComponentStructure`, so repeated pops of the same community — within
    one query or across a served batch — skip the relabelling.  The
    context asks the pool lazily, only once a removal survives the value
    prefilter.  The set backend ignores it.
    """
    if resolve_backend(backend) == "csr":
        from repro.influential.expansion_csr import CSRExpansionContext

        return CSRExpansionContext(
            graph, members, k, aggregator, parent_value, hasher, parent_key,
            pool=pool,
        )
    return ExpansionContext(
        graph,
        members_frozenset(members),
        k,
        aggregator,
        parent_value,
        hasher,
        parent_key,
    )


def seed_candidates(
    graph: Graph,
    k: int,
    aggregator: Aggregator,
    hasher: ZobristHasher,
    backend: str = "auto",
    pool=None,
    labels=None,
) -> Iterator[ChildCandidate]:
    """The Lines-1-2 seeds of Algorithms 1 and 2: every connected component
    of the maximal k-core, as a :class:`ChildCandidate`.

    With ``pool`` set (and the CSR backend) the per-k component split is
    served from the pool's cached core decomposition instead of re-peeling
    the whole graph, and members arrive as already-hashed
    :class:`~repro.influential.expansion_csr.MemberArray` seeds.  Both
    paths emit components in smallest-member order and evaluate the
    aggregator over ascending member ids, so seed values (and every float
    derived from them) are bit-identical.

    ``labels`` (a :class:`~repro.influential.constraints.LabelPredicate`)
    restricts seeding to the maximal k-core *of the induced subgraph of
    matching vertices* — the constrained-query pushdown.  Because every
    expansion step is component-local, children of a constrained seed
    keep the all-members-match invariant, so pruning here, before any
    expansion, is equivalent to solving on ``G[matching]`` (and therefore
    to post-filtering) without paying a subgraph materialisation.
    """
    from repro.core.kcore import connected_kcore_components

    if labels is None:
        if pool is not None and resolve_backend(backend) == "csr":
            for members in pool.seed_members(k):
                value = aggregator.value(graph, members.ids.tolist())
                yield ChildCandidate(members, value, members.key)
            return
        for component in connected_kcore_components(
            graph, range(graph.n), k, backend=backend
        ):
            members, key = community_members(component, hasher, backend)
            # Ascending member order keeps the float summation sequence —
            # and therefore the seed values — identical across backends.
            value = aggregator.value(graph, sorted(component))
            yield ChildCandidate(members, value, key)
        return

    if pool is not None and resolve_backend(backend) == "csr":
        for members in pool.constrained_seed_members(k, labels):
            value = aggregator.value(graph, members.ids.tolist())
            yield ChildCandidate(members, value, members.key)
        return
    from repro.influential.constraints import matching_mask

    matching = [int(v) for v in np.flatnonzero(matching_mask(graph, labels))]
    for component in connected_kcore_components(
        graph, matching, k, backend=backend
    ):
        members, key = community_members(component, hasher, backend)
        value = aggregator.value(graph, sorted(component))
        yield ChildCandidate(members, value, key)


def _split_components(
    local_adj: dict[int, set[int]], survivors: set[int]
) -> list[frozenset[int]]:
    """Connected components of the survivor set under component-local
    adjacency, ordered by smallest member."""
    remaining = set(survivors)
    components: list[frozenset[int]] = []
    while remaining:
        seed = next(iter(remaining))
        remaining.discard(seed)
        stack = [seed]
        members = {seed}
        while stack:
            u = stack.pop()
            for w in local_adj[u] & remaining:
                remaining.discard(w)
                members.add(w)
                stack.append(w)
        components.append(frozenset(members))
    components.sort(key=min)
    return components


def _articulation_vertices(local_adj: dict[int, set[int]]) -> set[int]:
    """Articulation (cut) vertices of the graph given by ``local_adj``.

    Iterative Tarjan lowpoint algorithm — recursion-free because component
    sizes reach thousands and CPython's stack does not.
    """
    visited: set[int] = set()
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    articulation: set[int] = set()
    for root in local_adj:
        if root in visited:
            continue
        root_children = 0
        # Each frame: (vertex, parent, iterator over neighbours).
        stack = [(root, None, iter(local_adj[root]))]
        visited.add(root)
        depth[root] = 0
        low[root] = 0
        while stack:
            v, parent, neighbours = stack[-1]
            advanced = False
            for u in neighbours:
                if u == parent:
                    continue
                if u in visited:
                    if depth[u] < low[v]:
                        low[v] = depth[u]
                else:
                    visited.add(u)
                    depth[u] = depth[v] + 1
                    low[u] = depth[u]
                    if v == root:
                        root_children += 1
                    stack.append((u, v, iter(local_adj[u])))
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            if parent is not None:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if parent != root and low[v] >= depth[parent]:
                    articulation.add(parent)
        if root_children > 1:
            articulation.add(root)
    return articulation
