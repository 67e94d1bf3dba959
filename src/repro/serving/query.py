"""The unit of serving traffic: one top-r community request.

:class:`InfluentialQuery` is a frozen, picklable bundle of everything
:func:`repro.influential.api.top_r_communities` accepts (plus the
``cohesion`` switch routing to the k-truss solver family), with one job
beyond carrying parameters: producing a **canonical cache key**.  Two
queries that must return identical results — e.g. the aggregator spelled
``"sum-surplus(2)"`` versus a :class:`~repro.aggregators.summation
.SumSurplus` instance with ``alpha=2`` — collapse to the same key, while
anything that can change the answer (k, r, s, method, eps, the TONIC
flag, local-search knobs) is part of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.aggregators.base import Aggregator
from repro.aggregators.registry import get_aggregator
from repro.errors import SpecError
from repro.influential.constraints import LabelPredicate

__all__ = ["InfluentialQuery"]

#: Cohesion models a query may ask for.
COHESIONS = ("core", "truss")


@dataclass(frozen=True)
class InfluentialQuery:
    """Parameters of one served query (defaults mirror ``top_r_communities``).

    ``cohesion="truss"`` swaps the k-core community model for k-truss
    (served by :mod:`repro.influential.truss_search`); everything else
    flows straight into :func:`~repro.influential.api.top_r_communities`.
    Parameter *well-formedness* (k/r/s sanity) is checked by the solvers
    at submit time, so building a query object never raises for values a
    stricter graph might still reject.
    """

    k: int
    r: int
    f: "str | Aggregator" = "sum"
    s: int | None = None
    method: str = "auto"
    eps: float = 0.0
    non_overlapping: bool = False
    greedy: bool = True
    seed_order: str | None = None
    rng_seed: int | None = None
    cohesion: str = "core"
    constraints: "LabelPredicate | Mapping[str, object] | None" = None

    def __post_init__(self) -> None:
        # Field *types* are validated here because queries routinely arrive
        # from JSON workloads: a string-typed number must surface as a
        # SpecError (the CLI's `error: ...` contract), not as a TypeError
        # traceback from deep inside a solver.  Value ranges stay with the
        # solvers so service and cold calls reject them identically.
        self._require_int("k", self.k)
        self._require_int("r", self.r)
        if self.s is not None:
            self._require_int("s", self.s)
        if self.rng_seed is not None:
            self._require_int("rng_seed", self.rng_seed)
        if isinstance(self.eps, bool) or not isinstance(self.eps, (int, float)):
            raise SpecError(
                f"query field 'eps' must be a number, got {self.eps!r}"
            )
        for name in ("non_overlapping", "greedy"):
            if not isinstance(getattr(self, name), bool):
                raise SpecError(
                    f"query field {name!r} must be a bool, "
                    f"got {getattr(self, name)!r}"
                )
        for name in ("method", "cohesion"):
            if not isinstance(getattr(self, name), str):
                raise SpecError(
                    f"query field {name!r} must be a string, "
                    f"got {getattr(self, name)!r}"
                )
        if self.seed_order is not None and not isinstance(self.seed_order, str):
            raise SpecError(
                f"query field 'seed_order' must be a string, "
                f"got {self.seed_order!r}"
            )
        if not isinstance(self.f, (str, Aggregator)):
            raise SpecError(
                f"query field 'f' must be an aggregator name or instance, "
                f"got {self.f!r}"
            )
        if self.cohesion not in COHESIONS:
            raise SpecError(
                f"unknown cohesion model {self.cohesion!r}; "
                f"expected one of {COHESIONS}"
            )
        # `constraints` arrives from JSON as {"labels": <predicate shape>};
        # normalise to the hashable LabelPredicate so the frozen dataclass
        # stays picklable/hashable and two spellings of one constraint
        # collapse to one cache identity.
        if self.constraints is not None and not isinstance(
            self.constraints, LabelPredicate
        ):
            if not isinstance(self.constraints, Mapping):
                raise SpecError(
                    f"query field 'constraints' must be a mapping like "
                    f"{{'labels': ...}}, got {self.constraints!r}"
                )
            unknown = set(self.constraints) - {"labels"}
            if unknown:
                raise SpecError(
                    f"unknown constraint field(s) {sorted(map(str, unknown))}; "
                    f"expected among ['labels']"
                )
            object.__setattr__(
                self,
                "constraints",
                LabelPredicate.from_json(self.constraints.get("labels")),
            )

    @staticmethod
    def _require_int(name: str, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(
                f"query field {name!r} must be an integer, got {value!r}"
            )

    @classmethod
    def create(
        cls, query: "InfluentialQuery | Mapping[str, object]", **overrides
    ) -> "InfluentialQuery":
        """Coerce ``query`` (an instance or a mapping, e.g. one decoded
        from a JSON workload file) into an :class:`InfluentialQuery`."""
        if isinstance(query, InfluentialQuery):
            return replace(query, **overrides) if overrides else query
        if isinstance(query, Mapping):
            merged = {**query, **overrides}
            unknown = set(merged) - set(cls.__dataclass_fields__)
            if unknown:
                raise SpecError(
                    f"unknown query field(s) {sorted(unknown)}; "
                    f"expected among {sorted(cls.__dataclass_fields__)}"
                )
            return cls(**merged)  # type: ignore[arg-type]
        raise SpecError(
            f"cannot interpret {type(query).__name__} as an InfluentialQuery"
        )

    @property
    def aggregator(self) -> Aggregator:
        """The resolved aggregator instance."""
        return get_aggregator(self.f)

    def cache_key(self) -> tuple:
        """Canonical, hashable identity of this query's *answer*.

        Layout is stable — ``(cohesion, k, r, aggregator-name, s, method,
        eps, non_overlapping, greedy, seed_order, rng_seed, constraints)``
        — so cache consumers can invalidate by position (the service's
        per-k invalidation reads index 1).  The label predicate rides at
        the *end*, so the positional reads of older consumers stay valid.
        """
        return (
            self.cohesion,
            self.k,
            self.r,
            self.aggregator.name,
            self.s,
            self.method,
            float(self.eps),
            self.non_overlapping,
            self.greedy,
            self.seed_order,
            self.rng_seed,
            self.constraints,
        )

    def solver_kwargs(self) -> dict[str, object]:
        """Keyword arguments for ``top_r_communities``."""
        return {
            "k": self.k,
            "r": self.r,
            "f": self.f,
            "s": self.s,
            "method": self.method,
            "eps": self.eps,
            "non_overlapping": self.non_overlapping,
            "greedy": self.greedy,
            "seed_order": self.seed_order,
            "rng_seed": self.rng_seed,
            "labels": self.constraints,
        }

    def wire_dict(self) -> dict[str, object]:
        """JSON-able flat request body (the legacy ``/query`` shape,
        also one entry of a ``repro batch`` workload file).
        ``create`` round-trips it; the label predicate serialises to
        its ``{"labels": ...}`` wire form."""
        body: dict[str, object] = {
            "k": self.k,
            "r": self.r,
            "f": self.f if isinstance(self.f, str) else self.aggregator.name,
            "s": self.s,
            "method": self.method,
            "eps": self.eps,
            "non_overlapping": self.non_overlapping,
            "greedy": self.greedy,
            "seed_order": self.seed_order,
            "rng_seed": self.rng_seed,
            "cohesion": self.cohesion,
        }
        if self.constraints is not None:
            body["constraints"] = {"labels": self.constraints.to_json()}
        return body

    def describe(self) -> str:
        """Compact one-line rendering for logs and CLI output."""
        parts = [f"k={self.k}", f"r={self.r}", f"f={self.aggregator.name}"]
        if self.s is not None:
            parts.append(f"s={self.s}")
        if self.method != "auto":
            parts.append(f"method={self.method}")
        if self.eps:
            parts.append(f"eps={self.eps:g}")
        if self.non_overlapping:
            parts.append("tonic")
        if self.cohesion != "core":
            parts.append(f"cohesion={self.cohesion}")
        if self.constraints is not None:
            parts.append(self.constraints.describe())
        return "query(" + ", ".join(parts) + ")"
