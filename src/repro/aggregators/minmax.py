"""Minimum and maximum — the node-dominated aggregators (Definition 6).

These are the functions of prior work: Li et al. (VLDB 2015) and Bi et al.
(VLDB 2018) study ``min``; the paper notes their algorithms "could simply
be extended to the cases when f = max".  Both are polynomial-time solvable
(Table I) and handled by :mod:`repro.influential.minmax_solvers`, which
builds one laminar community forest for either function.
"""

from __future__ import annotations

from repro.aggregators.base import Aggregator
from repro.utils.stats import SubsetStats


class Minimum(Aggregator):
    """``f(H) = min_{v in H} w(v)``.

    Not size-proportional (adding a light vertex lowers the value) and not
    decreasing under removal (deleting the lightest vertex *raises* it):
    Algorithm 2's pruning is unsound for min, which is why the community
    forest answers it.
    """

    name = "min"
    is_node_dominated = True
    is_size_proportional = False
    decreases_under_removal = False
    np_hard_unconstrained = False

    def from_stats(self, stats: SubsetStats, graph_total: float | None = None) -> float:
        self._require_nonempty(stats)
        return stats.weight_min


class Maximum(Aggregator):
    """``f(H) = max_{v in H} w(v)``.

    Size-proportional (supersets can only contain a heavier vertex) but not
    strictly decreasing under removal: deleting a non-maximal vertex keeps
    ``f`` unchanged, so maximality under Definition 3 is non-trivial — the
    community forest, built on negated weights, handles it.
    """

    name = "max"
    is_node_dominated = True
    is_size_proportional = True
    decreases_under_removal = False
    np_hard_unconstrained = False

    def from_stats(self, stats: SubsetStats, graph_total: float | None = None) -> float:
        self._require_nonempty(stats)
        return stats.weight_max
