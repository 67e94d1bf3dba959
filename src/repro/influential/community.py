"""The community result type.

A :class:`Community` is one answer of a top-r query: a vertex set, the
influence value an aggregator assigned it, and the query context (k and
aggregator name) under which it was found.  Instances are immutable,
hashable and totally ordered by influence value (descending-first sort
key) with deterministic tie-breaking, so result lists are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.aggregators.base import Aggregator
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class Community:
    """One influential community.

    ``vertices`` is a frozenset of 0-based vertex ids; ``value`` is
    ``f(H)``; ``aggregator`` and ``k`` record the query.  Ordering is by
    value descending, then size ascending, then lexicographic vertex list —
    i.e. ``sorted(communities)`` ranks best-first deterministically.
    """

    vertices: frozenset[int]
    value: float
    aggregator: str
    k: int
    _sorted: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a community cannot be empty")
        object.__setattr__(self, "_sorted", tuple(sorted(self.vertices)))

    @classmethod
    def _from_sorted(
        cls, ordered: tuple[int, ...], value: float, aggregator: str, k: int
    ) -> "Community":
        """Build from member ids already in ascending order.

        The result boundary holds the expansion engine's sorted id arrays,
        so this skips ``__post_init__``'s re-sort; the instance is
        indistinguishable from ``Community(frozenset(ordered), ...)``.
        """
        if not ordered:
            raise ValueError("a community cannot be empty")
        self = object.__new__(cls)
        for name, field_value in (
            ("vertices", frozenset(ordered)),
            ("value", value),
            ("aggregator", aggregator),
            ("k", k),
            ("_sorted", ordered),
        ):
            object.__setattr__(self, name, field_value)
        return self

    @property
    def size(self) -> int:
        """``|H|``: number of member vertices."""
        return len(self.vertices)

    def sort_key(self) -> tuple[float, int, tuple[int, ...]]:
        """Ascending sort by this key ranks communities best-first."""
        return (-self.value, self.size, self._sorted)

    def __lt__(self, other: "Community") -> bool:
        return self.sort_key() < other.sort_key()

    def overlaps(self, other: "Community") -> bool:
        """True if the two communities share any vertex (Definition 5)."""
        small, large = sorted((self.vertices, other.vertices), key=len)
        return any(v in large for v in small)

    def members(self) -> list[int]:
        """Sorted member ids."""
        return list(self._sorted)

    def labels(self, graph: Graph) -> list[str]:
        """Member display names, using the graph's labels."""
        return [graph.label_of(v) for v in self._sorted]

    def describe(self, graph: Graph | None = None, max_members: int = 12) -> str:
        """One-line human-readable summary (used by the CLI and examples)."""
        if graph is not None:
            names = self.labels(graph)
        else:
            names = [f"v{v}" for v in self._sorted]
        shown = ", ".join(names[:max_members])
        if len(names) > max_members:
            shown += f", ... (+{len(names) - max_members} more)"
        return f"[{self.aggregator}={self.value:.6g} size={self.size}] {{{shown}}}"


def community_from_vertices(
    graph: Graph,
    vertices: Iterable[int],
    aggregator: Aggregator,
    k: int,
) -> Community:
    """Build a :class:`Community`, computing its value with ``aggregator``.

    Does not validate cohesiveness/connectivity — solvers construct
    communities from sets they have already certified; use
    :mod:`repro.hardness.certificates` to re-check claims.
    """
    members = frozenset(vertices)
    value = aggregator.value(graph, members)
    return Community(members, value, aggregator.name, k)
