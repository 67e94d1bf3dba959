"""Label predicates: the constrained-query extension (Top-L family).

The Top-L technical report extends influential-community search with
keyword predicates over vertex attributes; this repo's graphs already
carry an optional per-vertex label array, so a :class:`LabelPredicate`
constrains a query to communities whose members *all* match.  That
"every member matches" semantics is what makes constrained search
composable with the paper's machinery: a connected k-core of the induced
subgraph ``G[matching]`` is exactly a community of ``G`` with
all-matching members, so a constrained query equals the unconstrained
query on ``G[matching]`` — and equals post-filtering a brute-force
enumeration, which is how the oracle suite pins it.

Three predicate kinds cover the serving surface:

* ``eq`` — exact label match;
* ``any`` — membership in a label set;
* ``prefix`` — label starts-with (hierarchical labels like ``"ml/nlp"``).

Predicates are frozen and hashable, so they ride inside
:meth:`repro.serving.query.InfluentialQuery.cache_key` unchanged.
:meth:`from_json` accepts the wire shapes of the v1 HTTP API
(``{"eq": ...}``, ``{"any": [...]}``, ``{"prefix": ...}``, plus the
shorthands bare-string → ``eq`` and bare-list → ``any``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SpecError
from repro.graphs.graph import Graph

__all__ = ["LabelPredicate", "matching_mask"]

#: Recognised predicate kinds (also the accepted JSON object keys).
KINDS = ("eq", "any", "prefix")


@dataclass(frozen=True)
class LabelPredicate:
    """One label constraint: ``kind`` plus its value tuple.

    ``values`` holds one string for ``eq``/``prefix`` and a sorted,
    de-duplicated tuple for ``any`` — the canonical form, so two
    spellings of the same constraint (``{"any": ["b", "a", "a"]}`` and
    ``{"any": ["a", "b"]}``) collapse to one cache identity.
    """

    kind: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SpecError(
                f"unknown label predicate kind {self.kind!r}; "
                f"expected one of {KINDS}"
            )
        if not isinstance(self.values, tuple) or not self.values:
            raise SpecError("label predicate needs at least one value")
        for value in self.values:
            if not isinstance(value, str):
                raise SpecError(
                    f"label predicate values must be strings, got {value!r}"
                )
        if self.kind in ("eq", "prefix") and len(self.values) != 1:
            raise SpecError(
                f"label predicate {self.kind!r} takes exactly one value, "
                f"got {len(self.values)}"
            )
        if self.kind == "any":
            canonical = tuple(sorted(set(self.values)))
            if canonical != self.values:
                object.__setattr__(self, "values", canonical)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_json(
        cls, spec: "LabelPredicate | str | list | tuple | dict | None"
    ) -> "LabelPredicate | None":
        """Parse the wire shape of a ``labels`` constraint (None passes
        through, so callers can thread optional constraints verbatim)."""
        if spec is None or isinstance(spec, LabelPredicate):
            return spec
        if isinstance(spec, str):
            return cls("eq", (spec,))
        if isinstance(spec, (list, tuple, set, frozenset)):
            values = tuple(spec)
            for value in values:
                if not isinstance(value, str):
                    raise SpecError(
                        f"label list entries must be strings, got {value!r}"
                    )
            return cls("any", values)
        if isinstance(spec, dict):
            if len(spec) != 1:
                raise SpecError(
                    f"a labels constraint takes exactly one of {KINDS}, "
                    f"got keys {sorted(map(str, spec))}"
                )
            ((kind, value),) = spec.items()
            if kind not in KINDS:
                raise SpecError(
                    f"unknown labels constraint key {kind!r}; "
                    f"expected one of {KINDS}"
                )
            if kind == "any":
                if not isinstance(value, (list, tuple, set, frozenset)):
                    raise SpecError(
                        f"labels constraint 'any' takes a list, got {value!r}"
                    )
                return cls("any", tuple(value))
            if not isinstance(value, str):
                raise SpecError(
                    f"labels constraint {kind!r} takes a string, got {value!r}"
                )
            return cls(kind, (value,))
        raise SpecError(
            f"cannot interpret {type(spec).__name__} as a labels constraint"
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def matches(self, label: str) -> bool:
        """Does one label satisfy the predicate?"""
        if self.kind == "eq":
            return label == self.values[0]
        if self.kind == "any":
            return label in self.values
        return label.startswith(self.values[0])

    def mask_for(self, graph: Graph) -> np.ndarray:
        """Boolean matching mask over the graph's vertices.

        Raises :class:`~repro.errors.SpecError` when the graph carries no
        labels — a constrained query against an unlabeled graph is a
        caller error, not an empty answer.
        """
        return matching_mask(graph, self)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, object]:
        """The canonical wire form (inverse of :meth:`from_json`)."""
        if self.kind == "any":
            return {"any": list(self.values)}
        return {self.kind: self.values[0]}

    def describe(self) -> str:
        """Compact rendering for query describe lines and logs."""
        if self.kind == "any":
            return "labels∈{" + ",".join(self.values) + "}"
        if self.kind == "prefix":
            return f"labels={self.values[0]}*"
        return f"labels={self.values[0]}"


def matching_mask(graph: Graph, predicate: LabelPredicate) -> np.ndarray:
    """Vectorised predicate evaluation over ``graph.labels``.

    The ``any`` kind goes through a set for O(1) membership; ``eq`` and
    ``prefix`` run one numpy string comparison over the label array.
    """
    labels = graph.labels
    if labels is None:
        raise SpecError(
            "graph carries no vertex labels; a labels constraint needs a "
            "labeled graph (Graph.with_labels or an ingested dataset)"
        )
    if graph.n == 0:
        return np.zeros(0, dtype=bool)
    arr = np.asarray(labels, dtype=object)
    if predicate.kind == "eq":
        return arr == predicate.values[0]
    if predicate.kind == "any":
        allowed = set(predicate.values)
        return np.fromiter(
            (label in allowed for label in labels), dtype=bool, count=graph.n
        )
    prefix = predicate.values[0]
    return np.fromiter(
        (label.startswith(prefix) for label in labels),
        dtype=bool,
        count=graph.n,
    )
