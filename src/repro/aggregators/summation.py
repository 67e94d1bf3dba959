"""Sum and sum-surplus — the size-proportional aggregators (Definition 7).

``sum`` is the headline polynomial case of the paper: with non-negative
weights it satisfies Corollary 2 (every removal lowers the value), which
makes Algorithm 1 correct (Theorem 5) and Algorithm 2's lower-bound pruning
sound (Theorem 6).  ``sum-surplus`` = ``w(H) + alpha * |H|`` shares both
properties for alpha >= 0 — the paper's Discussion paragraph explicitly
extends Algorithm 2 to it.
"""

from __future__ import annotations

from repro.aggregators.base import Aggregator
from repro.errors import AggregatorError
from repro.utils.stats import SubsetStats


class Sum(Aggregator):
    """``f(H) = w(H) = sum of member weights``."""

    name = "sum"
    is_node_dominated = False
    is_size_proportional = True
    decreases_under_removal = True
    np_hard_unconstrained = False
    reads_extremes = False

    def from_stats(self, stats: SubsetStats, graph_total: float | None = None) -> float:
        self._require_nonempty(stats)
        return stats.weight_sum

    def from_scalars(
        self,
        size: int,
        weight_sum: float,
        weight_min: float,
        weight_max: float,
        graph_total: float | None = None,
    ) -> float:
        return weight_sum


class SumSurplus(Aggregator):
    """``f(H) = w(H) + alpha * |H|`` (Table I row "Sum-surplus").

    ``alpha`` must be non-negative: the paper lists the function as
    polynomial precisely because, like sum, it is size-proportional and
    decreasing under removal — both of which fail for alpha < 0 (that
    regime is weight density, handled separately).
    """

    is_node_dominated = False
    is_size_proportional = True
    decreases_under_removal = True
    np_hard_unconstrained = False
    reads_extremes = False

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise AggregatorError(
                f"sum-surplus requires alpha >= 0, got {alpha}; "
                "negative per-size terms are the (NP-hard) weight density"
            )
        self.alpha = float(alpha)
        self.name = f"sum-surplus(alpha={self.alpha:g})"

    def from_stats(self, stats: SubsetStats, graph_total: float | None = None) -> float:
        self._require_nonempty(stats)
        return stats.weight_sum + self.alpha * stats.size

    def from_scalars(
        self,
        size: int,
        weight_sum: float,
        weight_min: float,
        weight_max: float,
        graph_total: float | None = None,
    ) -> float:
        return weight_sum + self.alpha * size
