"""Graph substrate: weighted undirected graphs plus IO and generators.

The paper's algorithms all operate on an undirected graph ``G = (V, E, w)``
with non-negative vertex weights (Section II).  :class:`Graph` is the
immutable runtime representation; :class:`GraphBuilder` assembles one from
edges; :mod:`repro.graphs.generators` produces the synthetic datasets used
in place of the SNAP downloads (see DESIGN.md Section 4).
"""

from repro.graphs.builder import GraphBuilder
from repro.graphs.components import (
    bfs_order,
    connected_components,
    connected_components_of,
    is_connected_subset,
)
from repro.graphs.csr import CSRAdjacency
from repro.graphs.delta import DeltaReport, GraphDelta
from repro.graphs.graph import Graph
from repro.graphs.io import (
    load_edge_list,
    load_weights,
    save_edge_list,
    save_weights,
)
from repro.graphs.lazy import LazyAdjacency
from repro.graphs.views import induced_degrees, induced_edge_count, induced_subgraph

__all__ = [
    "CSRAdjacency",
    "DeltaReport",
    "Graph",
    "GraphBuilder",
    "GraphDelta",
    "LazyAdjacency",
    "bfs_order",
    "connected_components",
    "connected_components_of",
    "induced_degrees",
    "induced_edge_count",
    "induced_subgraph",
    "is_connected_subset",
    "load_edge_list",
    "load_weights",
    "save_edge_list",
    "save_weights",
]
