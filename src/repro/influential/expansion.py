"""Shared vocabulary and factories of single-vertex candidate expansion.

Algorithms 1 and 2 share one hot operation: given a connected k-core
component ``C``, compute the connected k-core components of ``C \\ {v}``
for every ``v`` (the "children" of ``C`` in the search lattice).  The
engine that does this is :mod:`repro.influential.expansion_csr`; this
module holds what solvers and the engine share — :class:`ChildCandidate`,
the value/representation helpers — and the two factories the solvers
call, :func:`seed_candidates` (the k-core components the search starts
from) and :func:`expansion_context` (the engine for one popped
community).

Influence values and Zobrist hashes are carried *incrementally*: a child's
value is the parent's minus the removed weight (sum family) and its hash is
the parent's XORed with the removed tokens, so neither costs a walk over
the child.  ``min_removal_loss`` additionally gives solvers a lower bound
on the value lost by deleting a vertex, letting them skip generating
children that cannot beat the current pruning threshold.

The original dict/set engine survives in :mod:`repro.reference` as the
parity oracle for tests and benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.aggregators.base import Aggregator
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

    The CSR engine and the reference set engine compute child values
    through this one helper so the floating-point rounding — and therefore
    every downstream value comparison and result set — is bit-identical
    across engines.
    """
    total = 0.0
    for u in removed_sorted:
        total += float(weights[u])
    return total


def members_frozenset(members) -> frozenset[int]:
    """Plain-int frozenset view of either community representation
    (``MemberArray`` from the CSR engine, ``frozenset`` from the
    reference set engine)."""
    if isinstance(members, frozenset):
        return members
    return members.to_frozenset()


@dataclass(frozen=True)
class ChildCandidate:
    """One expansion product: vertex set, influence value, Zobrist hash.

    ``vertices`` is a sorted int32
    :class:`~repro.influential.expansion_csr.MemberArray` (a ``frozenset``
    under the reference set engine); both are hashable and
    equality-comparable, so solvers treat them uniformly and only convert
    at the result boundary via :meth:`to_community`.
    """

    vertices: "frozenset[int] | object"
    value: float
    key: int

    def to_community(self, aggregator_name: str, k: int) -> Community:
        """The frozenset-backed result object (the boundary conversion)."""
        if isinstance(self.vertices, frozenset):
            return Community(self.vertices, self.value, aggregator_name, k)
        # A MemberArray's ids are already sorted: no second sort.
        return Community._from_sorted(
            tuple(self.vertices.ids.tolist()), self.value, aggregator_name, k
        )


def expansion_context(
    graph: Graph,
    members,
    k: int,
    aggregator: Aggregator,
    parent_value: float,
    hasher: ZobristHasher,
    parent_key: int | None = None,
    pool=None,
):
    """Build the expansion engine for ``members``: a
    :class:`~repro.influential.expansion_csr.CSRExpansionContext`.

    ``members`` may be any iterable of vertex ids (or an already-hashed
    ``MemberArray``).  ``pool`` may carry a
    :class:`~repro.serving.engine_pool.ExpansionEnginePool`: the pool
    supplies (and caches across queries) the query-independent
    :class:`~repro.influential.expansion_csr.ComponentStructure`, so
    repeated pops of the same community — within one query or across a
    served batch — skip the relabelling.  The context asks the pool
    lazily, only once a removal survives the value prefilter.
    """
    from repro.influential.expansion_csr import CSRExpansionContext

    return CSRExpansionContext(
        graph, members, k, aggregator, parent_value, hasher, parent_key,
        pool=pool,
    )


def seed_candidates(
    graph: Graph,
    k: int,
    aggregator: Aggregator,
    hasher: ZobristHasher,
    pool=None,
    labels=None,
) -> Iterator[ChildCandidate]:
    """The Lines-1-2 seeds of Algorithms 1 and 2: every connected component
    of the maximal k-core, as a :class:`ChildCandidate` over an
    already-hashed :class:`~repro.influential.expansion_csr.MemberArray`.

    With ``pool`` set the per-k component split is served from the pool's
    cached core decomposition instead of re-peeling the whole graph.
    Both paths emit components in smallest-member order and evaluate the
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
    from repro.influential.expansion_csr import MemberArray

    if pool is not None:
        seeds = (
            pool.seed_members(k) if labels is None
            else pool.constrained_seed_members(k, labels)
        )
        for members in seeds:
            value = aggregator.value(graph, members.ids.tolist())
            yield ChildCandidate(members, value, members.key)
        return
    if labels is None:
        vertices = range(graph.n)
    else:
        from repro.influential.constraints import matching_mask

        vertices = np.flatnonzero(matching_mask(graph, labels)).tolist()
    for component in connected_kcore_components(graph, vertices, k):
        members = MemberArray.from_iterable(component, hasher)
        # Ascending member order keeps the float summation sequence — and
        # therefore the seed values — fixed.
        value = aggregator.value(graph, members.ids.tolist())
        yield ChildCandidate(members, value, members.key)
