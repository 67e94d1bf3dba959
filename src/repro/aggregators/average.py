"""Average — the paper's flagship NP-hard aggregator.

``f(H) = w(H) / |H|``.  Theorem 1 proves NP-hardness of the top-r search by
reduction from maximum clique; Theorem 2 shows the objective is neither
submodular nor monotone; Theorem 3 rules out constant-factor approximation
(via MSMD_k).  The paper attacks it with the local-search heuristic
(Algorithm 4 + AvgStrategy).
"""

from __future__ import annotations

from repro.aggregators.base import Aggregator
from repro.utils.stats import SubsetStats


class Average(Aggregator):
    """``f(H) = w(H) / |H|``."""

    name = "avg"
    is_node_dominated = False
    is_size_proportional = False
    decreases_under_removal = False
    np_hard_unconstrained = True
    reads_extremes = False

    def from_stats(self, stats: SubsetStats, graph_total: float | None = None) -> float:
        self._require_nonempty(stats)
        return stats.weight_sum / stats.size

    def from_scalars(
        self,
        size: int,
        weight_sum: float,
        weight_min: float,
        weight_max: float,
        graph_total: float | None = None,
    ) -> float:
        return weight_sum / size
