"""Polynomial solvers for the node-dominated aggregators (min and max).

These are the prior-work baselines the paper builds on: Li et al. (VLDB
2015) introduced the min-based influential community model; Bi et al.
(VLDB 2018) improved it; the paper notes both extend to max.

Under min the k-influential communities are the connected components of
the maximal k-core of ``G[{v : w(v) >= t}]``, one per threshold ``t``,
each valued at its own minimum weight: a component is maximal because any
connected cohesive superset with the same value lies in the same k-core.
Any two are nested or disjoint, so the family is a laminar forest — Li et
al.'s ICP index.  Max is the mirror image over ``{v : w(v) <= t}``, i.e.
the same construction on negated weights.

:func:`community_forest` builds that forest once for either direction:

1. peel the graph to its k-core and relabel it to a local CSR;
2. remove vertices in increasing key order (``w`` for min, ``-w`` for
   max), a whole tie group at a time, cascading every vertex that falls
   below degree k; each removed vertex is stamped with the group's level;
3. replay the levels in reverse with union-find: adding a level's
   vertices back merges them into components, and every component that
   touches the level becomes one forest node, valued at the level's
   weight.

Each node's members are one contiguous run of the forest's order (the
union-find keeps a linked list per component, and a merge concatenates
whole lists), so only the communities a caller asks for are materialised.
The build costs O(m α(n) + n log n) over the k-core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregators.minmax import Maximum, Minimum
from repro.errors import SolverError
from repro.graphs.graph import Graph
from repro.influential.community import Community
from repro.influential.results import ResultSet


@dataclass(frozen=True)
class CommunityForest:
    """The laminar family of k-influential communities under min or max.

    Nodes are numbered best first, in ``Community`` order: nodes with equal
    values come from one level and are disjoint, so ranking by (value,
    size, smallest member) agrees with the full sort key.  Node ``i`` holds
    the vertices ``order[start[i]:stop[i]]``; ``leaf[i]`` is True when no
    other node is a strict subset of it.
    """

    aggregator: str
    k: int
    order: np.ndarray
    value: list[float]
    start: list[int]
    stop: list[int]
    leaf: list[bool]

    def __len__(self) -> int:
        return len(self.value)

    def community(self, node: int) -> Community:
        """Materialise one node as a :class:`Community`."""
        members = np.sort(self.order[self.start[node] : self.stop[node]])
        return Community._from_sorted(
            tuple(members.tolist()), self.value[node], self.aggregator, self.k
        )

    def communities(self, limit: int | None = None) -> list[Community]:
        """The best ``limit`` nodes (all of them by default), best first."""
        return [self.community(node) for node in range(len(self))[:limit]]

    def leaves(self, limit: int | None = None) -> list[Community]:
        """The best ``limit`` leaves — the non-contained communities."""
        nodes = [node for node in range(len(self)) if self.leaf[node]]
        return [self.community(node) for node in nodes[:limit]]


def community_forest(graph: Graph, k: int, aggregator: str) -> CommunityForest:
    """Build the community forest under ``"min"`` or ``"max"``."""
    if k < 1:
        raise SolverError(f"need k >= 1, got {k}")
    if aggregator not in (Minimum.name, Maximum.name):
        raise SolverError(f"the forest needs min or max, got {aggregator!r}")
    csr = graph.csr
    mask, __ = csr.peel_to_kcore(np.ones(csr.n, dtype=bool), k, csr.degrees())
    members = np.flatnonzero(mask)
    local = csr.induced_local(members)
    weights = graph.weights[members]
    by_key = np.argsort(weights if aggregator == Minimum.name else -weights)
    tied = weights[by_key[1:]] == weights[by_key[:-1]]
    bounds = np.flatnonzero(np.r_[True, ~tied, True]).tolist()
    by_key = by_key.tolist()
    indptr, indices = local.indptr.tolist(), local.indices.tolist()
    c = len(by_key)

    # Cascade peel in key order: levels[g] holds every vertex that leaves
    # the k-core when tie group g (and everything lighter) is removed.
    degree = np.diff(local.indptr).tolist()
    alive = [True] * c
    levels: list[list[int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        removed = [v for v in by_key[lo:hi] if alive[v]]
        for v in removed:
            alive[v] = False
        for v in removed:  # grows while it is walked: the cascade
            for u in indices[indptr[v] : indptr[v + 1]]:
                if alive[u]:
                    degree[u] -= 1
                    if degree[u] < k:
                        alive[u] = False
                        removed.append(u)
        levels.append(removed)

    # Reverse replay: union-find whose components also carry a linked list
    # of members (head, tail, after) and their smallest member.
    parent = list(range(c))
    size = [1] * c
    smallest = list(range(c))
    head, tail = list(range(c)), list(range(c))
    after = [-1] * c
    active = [False] * c

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    # One node per component touched at a level, keyed for ranking:
    # (-value, size, smallest member, first member, is a leaf).  A level's
    # first vertex is a seed of its tie group, so it carries the weight.
    nodes: list[tuple[float, int, int, int, bool]] = []
    for level in range(len(levels) - 1, -1, -1):
        added = levels[level]
        if not added:
            continue
        for v in added:
            active[v] = True
        for v in added:
            a = find(v)
            for u in indices[indptr[v] : indptr[v + 1]]:
                if active[u]:
                    b = find(u)
                    if a == b:
                        continue
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
                    smallest[a] = min(smallest[a], smallest[b])
                    after[tail[a]] = head[b]
                    tail[a] = tail[b]
        fresh: dict[int, int] = {}
        for v in added:
            root = find(v)
            fresh[root] = fresh.get(root, 0) + 1
        value = -float(weights[added[0]])
        for root, count in fresh.items():
            nodes.append(
                (value, size[root], smallest[root], head[root], count == size[root])
            )

    # Lay every final list out in one order; node runs stay contiguous.
    position = [0] * c
    order: list[int] = []
    for root in range(c):
        if parent[root] == root:
            v = head[root]
            while v != -1:
                position[v] = len(order)
                order.append(v)
                v = after[v]

    nodes.sort()
    return CommunityForest(
        aggregator,
        k,
        members[order],
        [-value for value, *__ in nodes],
        [position[first] for *__, first, __ in nodes],
        [position[first] + count for __, count, __, first, __ in nodes],
        [is_leaf for *__, is_leaf in nodes],
    )


def _check(k: int, r: int) -> None:
    if k < 1 or r < 1:
        raise SolverError(f"need k >= 1 and r >= 1, got k={k}, r={r}")


def min_communities(graph: Graph, k: int) -> list[Community]:
    """Every k-influential community under min, best first."""
    return community_forest(graph, k, Minimum.name).communities()


def max_communities(graph: Graph, k: int) -> list[Community]:
    """Every k-influential community under max, best first."""
    return community_forest(graph, k, Maximum.name).communities()


def top_r_min(graph: Graph, k: int, r: int) -> ResultSet:
    """Top-r k-influential communities under min."""
    _check(k, r)
    return ResultSet(community_forest(graph, k, Minimum.name).communities(r))


def top_r_max(graph: Graph, k: int, r: int) -> ResultSet:
    """Top-r k-influential communities under max."""
    _check(k, r)
    return ResultSet(community_forest(graph, k, Maximum.name).communities(r))


def top_r_min_noncontained(graph: Graph, k: int, r: int) -> ResultSet:
    """Top-r *non-contained* communities under min (Li et al.'s variant):
    the leaves of the forest, which have no community strictly inside."""
    _check(k, r)
    return ResultSet(community_forest(graph, k, Minimum.name).leaves(r))
