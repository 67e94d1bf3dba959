"""Vertex-weight producers.

The influential-community model is agnostic to where weights come from; the
paper uses PageRank (damping 0.85) for the main experiments and citation
indices for the case study.  This package implements those two, both
returning dense ``float64`` arrays indexed by vertex.
"""

from repro.centrality.hindex import g_index, h_index, i10_index
from repro.centrality.pagerank import pagerank

__all__ = [
    "g_index",
    "h_index",
    "i10_index",
    "pagerank",
]
