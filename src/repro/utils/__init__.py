"""Small self-contained data structures and helpers used across the library.

Nothing in this package knows about graphs or communities; it is the layer
below the substrate: disjoint sets, heaps, incremental set hashing, subset
weight statistics, top-r accumulators, timing, seeded randomness and ASCII
tables.
"""

from repro.utils.dsu import DisjointSetUnion
from repro.utils.heaps import IndexedMaxHeap, LazyMaxHeap
from repro.utils.rng import make_rng, spawn_seeds
from repro.utils.stats import SubsetStats
from repro.utils.tables import format_table, format_markdown_table
from repro.utils.timing import Stopwatch, format_seconds
from repro.utils.topr import TopR
from repro.utils.zobrist import ZobristHasher

__all__ = [
    "DisjointSetUnion",
    "IndexedMaxHeap",
    "LazyMaxHeap",
    "SubsetStats",
    "Stopwatch",
    "TopR",
    "ZobristHasher",
    "format_markdown_table",
    "format_seconds",
    "format_table",
    "make_rng",
    "spawn_seeds",
]
