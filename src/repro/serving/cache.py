"""Keyed LRU caching for the serving layer.

One implementation backs both caches of :class:`repro.serving.service
.QueryService` — the query→:class:`~repro.serving.service.CachedAnswer`
result cache and the expansion-engine pool's structure cache.  It is a
plain ``OrderedDict`` LRU with the three things a serving cache needs
beyond ``functools.lru_cache``: explicit invalidation (single key,
predicate, or full clear — weight updates must be able to evict), hit /
miss / eviction counters for the service's stats endpoint, and a
capacity of zero meaning "disabled" so callers can switch caching off
without branching.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Iterator, TypeVar

V = TypeVar("V")

_MISSING = object()


class LRUCache:
    """Least-recently-used mapping with stats and explicit invalidation.

    ``get`` refreshes recency and counts a hit or miss; ``put`` inserts
    (or refreshes) and evicts the least recently used entries beyond
    ``capacity``.  ``capacity == 0`` disables storage entirely: every
    ``get`` misses and ``put`` is a no-op, which keeps the caller's code
    path identical with caching switched off.
    """

    __slots__ = ("_capacity", "_data", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of entries held (0 = caching disabled)."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test without touching recency or the counters."""
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        """Keys, least recently used first (snapshot for safe mutation)."""
        return iter(list(self._data))

    def values(self) -> list[object]:
        """Current values, least recently used first.  Touches neither the
        counters nor recency (in-place maintenance like reweighting must
        not skew hit rates)."""
        return list(self._data.values())

    def get(self, key: Hashable, default: V = None) -> V:  # type: ignore[assignment]
        """The cached value (refreshing its recency), or ``default``."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value  # type: ignore[return-value]

    def lookup(self, key: Hashable, default: V = None) -> V:  # type: ignore[assignment]
        """The cached value, or ``default``, touching neither recency nor
        the counters (a read that only inspects an entry is no hit)."""
        return self._data.get(key, default)  # type: ignore[return-value]

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh ``key``, evicting LRU entries past capacity."""
        if self._capacity == 0:
            return
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self._capacity:
            data.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True if it was present."""
        return self._data.pop(key, _MISSING) is not _MISSING

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns the
        number dropped (used for per-k invalidation of serving caches)."""
        doomed = [key for key in self._data if predicate(key)]
        for key in doomed:
            del self._data[key]
        return len(doomed)

    def clear(self) -> None:
        """Drop everything (counters are kept — they describe the cache's
        lifetime, not its contents)."""
        self._data.clear()

    def stats(self) -> dict[str, int]:
        """Counters plus current size, JSON-ready."""
        return {
            "size": len(self._data),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self._data)}/{self._capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
