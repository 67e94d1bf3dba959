"""Synthetic Aminer-style co-authorship network for the case study.

Paper Section VI.C runs the top-3 non-overlapping k-influential community
search (k=4) on the Aminer cross-domain dataset — five research fields
(Data Mining, Medical Informatics, Theory, Visualization, Database) where
vertices are researchers, edges are co-authorships, and weights are
citation indices (the paper's discussion contrasts i10-index for min,
G-index for avg, and plain citation mass for sum).

The real dataset is not downloadable here, so we synthesise a network with
the same qualitative anatomy:

* each field contains a handful of *senior groups* — near-cliques of 5-8
  frequently co-authoring researchers (the Fig 14 communities are exactly
  such groups);
* senior groups are stitched to a long tail of junior researchers with few
  edges (students co-author with one or two seniors);
* weights are drawn per researcher from a log-normal "citations" variable
  from which h-, g- and i10-style indices are derived, with senior groups
  biased upward differently per field — so min/avg/sum provably prefer
  different groups, which is the case study's point.

Researcher names are generated deterministically so Fig 14-style output is
reproducible and readable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.centrality.hindex import g_index, h_index, i10_index
from repro.errors import DatasetError
from repro.graphs.builder import GraphBuilder
from repro.graphs.graph import Graph
from repro.utils.rng import make_rng

#: The five Aminer fields of the case study.
FIELDS = ("Data Mining", "Medical Informatics", "Theory", "Visualization", "Database")

_GIVEN = (
    "Ada", "Ben", "Chen", "Dana", "Emil", "Fatima", "Guo", "Hana", "Ivan",
    "Jun", "Kai", "Lena", "Ming", "Nora", "Omar", "Ping", "Qi", "Rosa",
    "Sam", "Tara", "Uri", "Vera", "Wei", "Xin", "Yara", "Zhen",
)
_FAMILY = (
    "Abe", "Berg", "Cao", "Diaz", "Eng", "Faro", "Gao", "Hart", "Ito",
    "Jain", "Kim", "Liu", "Mora", "Nair", "Oz", "Park", "Qian", "Rao",
    "Shen", "Tran", "Ueda", "Vogel", "Wang", "Xu", "Yang", "Zhou",
)


@dataclass(frozen=True)
class AminerSpec:
    """Size knobs for the synthetic co-authorship network."""

    juniors_per_field: int = 120
    groups_per_field: int = 3
    group_size: tuple[int, int] = (5, 8)
    seed: int = 4242

    def __post_init__(self) -> None:
        if self.juniors_per_field < 10:
            raise DatasetError("need at least 10 juniors per field")
        if self.groups_per_field < 1:
            raise DatasetError("need at least one senior group per field")
        lo, hi = self.group_size
        if lo < 5 or hi < lo:
            raise DatasetError("group sizes must satisfy 5 <= lo <= hi")


@dataclass(frozen=True)
class AminerMetadata:
    """Ground-truth bookkeeping returned alongside the graph."""

    field_of: list[str]
    senior_groups: list[frozenset[int]]
    citations: np.ndarray
    h_index: np.ndarray
    g_index: np.ndarray
    i10_index: np.ndarray


def _researcher_name(rng: np.random.Generator, used: set[str]) -> str:
    while True:
        name = (
            f"{_GIVEN[int(rng.integers(len(_GIVEN)))]} "
            f"{_FAMILY[int(rng.integers(len(_FAMILY)))]}"
        )
        if name not in used:
            used.add(name)
            return name
        # Disambiguate collisions with a middle initial.
        initial = chr(ord("A") + int(rng.integers(26)))
        candidate = f"{name.split()[0]} {initial}. {name.split()[1]}"
        if candidate not in used:
            used.add(candidate)
            return candidate


def _citation_indices(
    rng: np.random.Generator, paper_counts: np.ndarray, boost: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derive citations and h/g/i10 indices from paper counts.

    Each researcher's per-paper citations are log-normal scaled by their
    ``boost``; the indices are :mod:`repro.centrality.hindex`'s, computed
    on the sampled per-paper citation vectors.
    """
    n = len(paper_counts)
    citations = np.zeros(n)
    h = np.zeros(n)
    g = np.zeros(n)
    i10 = np.zeros(n)
    for v in range(n):
        per_paper = np.sort(
            rng.lognormal(mean=1.0, sigma=1.0, size=int(paper_counts[v])) * boost[v]
        )[::-1]
        citations[v] = per_paper.sum()
        h[v] = h_index(per_paper)
        g[v] = g_index(per_paper)
        i10[v] = i10_index(per_paper)
    return citations, h, g, i10


def generate_aminer(
    spec: AminerSpec | None = None,
    weight_kind: str = "citations",
) -> tuple[Graph, AminerMetadata]:
    """Build the synthetic co-authorship network.

    ``weight_kind`` selects which derived index becomes the graph's vertex
    weight: ``citations``, ``h`` (h-index), ``g`` (G-index) or ``i10``
    (i10-index) — the quantities the paper's case-study discussion names.
    Use :meth:`Graph.with_weights` with the metadata arrays to re-weight
    without regenerating.
    """
    spec = spec or AminerSpec()
    rng = make_rng(spec.seed)
    builder = GraphBuilder(0)
    used_names: set[str] = set()
    field_of: list[str] = []
    senior_groups: list[frozenset[int]] = []

    for field_idx, field in enumerate(FIELDS):
        field_vertices: list[int] = []
        # Senior groups: near-cliques of heavily co-authoring researchers.
        for g in range(spec.groups_per_field):
            lo, hi = spec.group_size
            size = int(rng.integers(lo, hi + 1))
            members = [
                builder.add_vertex(label=_researcher_name(rng, used_names))
                for __ in range(size)
            ]
            field_of.extend([field] * size)
            for i in range(size):
                for j in range(i + 1, size):
                    if rng.random() < 0.9:
                        builder.add_edge(members[i], members[j])
            # Repair pass: the case study runs with k = 4, so every senior
            # must keep at least min(4, size-1) in-group co-authors even on
            # unlucky draws.
            needed = min(4, size - 1)
            member_set = set(members)
            for u in members:
                while len(builder.neighbors(u) & member_set) < needed:
                    candidates = [
                        w for w in members if w != u and not builder.has_edge(u, w)
                    ]
                    candidates.sort(
                        key=lambda w: len(builder.neighbors(w) & member_set)
                    )
                    builder.add_edge(u, candidates[0])
            senior_groups.append(frozenset(members))
            field_vertices.extend(members)
        # Junior tail: each junior co-authors with 1-3 researchers already
        # in the field (preferring seniors), rarely across fields.
        for __ in range(spec.juniors_per_field):
            v = builder.add_vertex(label=_researcher_name(rng, used_names))
            field_of.append(field)
            coauthors = int(rng.integers(1, 4))
            for __c in range(coauthors):
                partner = field_vertices[int(rng.integers(len(field_vertices)))]
                if partner != v and not builder.has_edge(v, partner):
                    builder.add_edge(v, partner)
            field_vertices.append(v)
        # Occasional cross-field collaboration keeps the graph connected.
        if field_idx > 0:
            for __ in range(3):
                a = field_vertices[int(rng.integers(len(field_vertices)))]
                b = int(rng.integers(0, field_vertices[0]))
                if a != b and not builder.has_edge(a, b):
                    builder.add_edge(a, b)

    graph = builder.build()
    n = graph.n
    is_senior = np.zeros(n, dtype=bool)
    for group in senior_groups:
        for v in group:
            is_senior[v] = True
    # Seniors write many papers with higher impact; different groups get
    # different profiles (uniform-high vs spiky) so min/avg/sum disagree.
    paper_counts = np.where(
        is_senior, rng.integers(40, 140, size=n), rng.integers(2, 25, size=n)
    )
    boost = np.ones(n)
    for gi, group in enumerate(senior_groups):
        profile = gi % 3
        for v in group:
            if profile == 0:  # uniformly strong: favoured by min
                boost[v] = 4.0 + rng.uniform(-0.3, 0.3)
            elif profile == 1:  # elite spiky: favoured by avg/max
                boost[v] = rng.choice([2.0, 10.0], p=[0.5, 0.5])
            else:  # broad and diverse: favoured by sum
                boost[v] = rng.uniform(1.0, 6.0)
    citations, h_index, g_index, i10_index = _citation_indices(
        rng, paper_counts, boost
    )
    metadata = AminerMetadata(
        field_of=field_of,
        senior_groups=senior_groups,
        citations=citations,
        h_index=h_index,
        g_index=g_index,
        i10_index=i10_index,
    )
    weights = {
        "citations": citations,
        "h": h_index,
        "g": g_index,
        "i10": i10_index,
    }.get(weight_kind)
    if weights is None:
        raise DatasetError(
            f"unknown weight_kind {weight_kind!r}; expected citations/h/g/i10"
        )
    return graph.with_weights(weights), metadata
