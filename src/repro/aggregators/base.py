"""The aggregation-function interface.

Every Table I function is computable from the subset statistics
``(|H|, w(H), min w, max w)`` plus — for balanced density only — the total
graph weight ``w(V)``.  Aggregators are therefore pure objects evaluating
:class:`~repro.utils.stats.SubsetStats`; they never walk the graph, which
lets the solvers maintain stats incrementally and re-evaluate ``f`` in
O(1) per candidate move.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.errors import AggregatorError
from repro.graphs.graph import Graph
from repro.utils.stats import SubsetStats


class Aggregator(ABC):
    """An aggregation function ``f`` with its algebraic property flags.

    Class-level flags (see the paper sections in parentheses):

    ``is_node_dominated``
        Definition 6 — some member's own weight equals ``f(H)``.
    ``is_size_proportional``
        Definition 7 — monotone under set inclusion.
    ``decreases_under_removal``
        Corollary 2 — deleting vertices can only lower ``f`` (assuming
        non-negative weights).  Required by Algorithm 2's pruning.
    ``np_hard_unconstrained`` / ``np_hard_constrained``
        Table I hardness of the size-unconstrained / constrained problems.
    ``needs_graph_total``
        True for balanced density, whose value depends on ``w(V \\ H)``.
    ``reads_extremes``
        False when :meth:`from_scalars` ignores ``weight_min`` and
        ``weight_max``, so a caller need not track them.
    """

    name: str = "abstract"
    is_node_dominated: bool = False
    is_size_proportional: bool = False
    decreases_under_removal: bool = False
    np_hard_unconstrained: bool = False
    np_hard_constrained: bool = True  # every size-constrained variant is NP-hard
    needs_graph_total: bool = False
    reads_extremes: bool = True

    @abstractmethod
    def from_stats(self, stats: SubsetStats, graph_total: float | None = None) -> float:
        """Evaluate ``f`` on pre-computed subset statistics."""

    def from_scalars(
        self,
        size: int,
        weight_sum: float,
        weight_min: float,
        weight_max: float,
        graph_total: float | None = None,
    ) -> float:
        """:meth:`from_stats` on the four statistics of a non-empty subset,
        passed as scalars.

        Local search evaluates ``f`` on every prefix it walks; aggregators
        whose value is a plain expression of the scalars override this to
        skip building a :class:`SubsetStats`, with the same float
        expression as their :meth:`from_stats`.
        """
        stats = SubsetStats(size, weight_sum, weight_min, weight_max)
        return self.from_stats(stats, graph_total)

    def value(self, graph: Graph, vertices: Iterable[int]) -> float:
        """Evaluate ``f(G[H])`` directly from a graph and vertex subset.

        Convenience wrapper used by tests and the certifier; solvers should
        prefer :meth:`from_stats` with incrementally maintained statistics.
        """
        weights = graph.weights
        subset = list(vertices)
        if not subset:
            raise AggregatorError(f"{self.name} is undefined on the empty set")
        values = [float(weights[v]) for v in subset]
        stats = SubsetStats(
            size=len(values),
            weight_sum=float(sum(values)),
            weight_min=min(values),
            weight_max=max(values),
        )
        total = graph.total_weight if self.needs_graph_total else None
        return self.from_stats(stats, graph_total=total)

    def _require_nonempty(self, stats: SubsetStats) -> None:
        if stats.size == 0:
            raise AggregatorError(f"{self.name} is undefined on the empty set")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        # Two aggregators are interchangeable iff they render identically
        # (parameterised ones embed their parameters in `name`).
        return isinstance(other, Aggregator) and self.name == other.name

    def __hash__(self) -> int:
        return hash((type(self).__module__, self.name))
