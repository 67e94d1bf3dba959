"""The paper's primary contribution: top-r influential community search.

Solvers:

* :func:`~repro.influential.naive_sum.sum_naive` — Algorithm 1 (SUM-NAIVE);
* :func:`~repro.influential.improved.tic_improved` — Algorithm 2
  (TIC-IMPROVED), exact at ``eps=0`` and (1-eps)-approximate otherwise;
* :func:`~repro.influential.exact.tic_exact` — Algorithm 3 (TIC-EXACT);
* :func:`~repro.influential.local_search.local_search` — Algorithm 4 with
  the Sum/Avg strategies and greedy/random orders;
* :mod:`~repro.influential.minmax_solvers` — the polynomial min/max
  baselines of prior work, read off one laminar community forest;
* :mod:`~repro.influential.nonoverlap` — TONIC (Definition 5) wrappers;
* :mod:`~repro.influential.bruteforce` — the exhaustive test oracle.

:func:`~repro.influential.api.top_r_communities` dispatches among them
based on the aggregator's properties and the problem spec, mirroring the
paper's Table I.
"""

from repro.influential.api import top_r_communities, top_r_many
from repro.influential.community import Community, community_from_vertices
from repro.influential.results import ResultSet
from repro.influential.spec import ProblemSpec

__all__ = [
    "Community",
    "ProblemSpec",
    "ResultSet",
    "community_from_vertices",
    "top_r_communities",
    "top_r_many",
]
