"""Small self-contained data structures and helpers used across the library.

Nothing in this package knows about graphs or communities; it is the layer
below the substrate: heaps, incremental set hashing, subset weight
statistics, top-r accumulators, work counters, seeded randomness and ASCII
tables.
"""

from repro.utils.heaps import IndexedMaxHeap, LazyMaxHeap
from repro.utils.rng import make_rng
from repro.utils.stats import SubsetStats
from repro.utils.tables import format_table, format_markdown_table
from repro.utils.topr import TopR
from repro.utils.zobrist import ZobristHasher

__all__ = [
    "IndexedMaxHeap",
    "LazyMaxHeap",
    "SubsetStats",
    "TopR",
    "ZobristHasher",
    "format_markdown_table",
    "format_table",
    "make_rng",
]
