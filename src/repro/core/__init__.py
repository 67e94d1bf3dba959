"""k-core machinery: decomposition, maximal k-core, cascade peeling.

The paper's community model is built entirely on the k-core (Definition 1):
every solver needs (a) the maximal k-core of the graph, (b) connected
k-core components of arbitrary vertex subsets after vertex removals, and
(c) an efficient "remove vertex and cascade" primitive.  This package
provides the first two; the cascade is
:meth:`repro.graphs.csr.CSRAdjacency.peel_to_kcore` over the kernel tier.
"""

from repro.core.decomposition import core_decomposition, core_number_histogram, kmax
from repro.core.kcore import (
    connected_kcore_components,
    kcore_of_subset,
    maximal_kcore,
)

__all__ = [
    "connected_kcore_components",
    "core_decomposition",
    "core_number_histogram",
    "kcore_of_subset",
    "kmax",
    "maximal_kcore",
]
