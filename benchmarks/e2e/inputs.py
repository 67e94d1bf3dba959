"""Inputs shared by every workload: the graph files and the query catalogue.

The graph is a power-law stand-in built with the repo's own Table III
recipe (:func:`repro.graphs.generators.snap_like.snap_like_topology`) and
weighted by PageRank with damping 0.85, the paper's weighting.  The bench
writes it to an edge file and a weight file, then reads both back through
:func:`repro.graphs.io.load_edge_list` / :func:`~repro.graphs.io.load_weights`
-- the loaders ``repro snapshot save`` uses -- so the oracle graph, the
served graph and every vertex id in a write agree.  ``load_edge_list``
renumbers vertices in first-appearance order, so the weight file is written
in the loader's ids, never the generator's.

The query catalogue crosses k x r x six problem families.  Popularity is
Zipf over a seeded permutation.  No production query log exists: the mix
is a guess shaped by the paper's parameter sweeps (Section VI).

The graph and the popularity order are the benchmark's dataset and use the
fixed :data:`DATASET_SEED`, as the paper's experiments use fixed datasets.
The run's ``--seed`` draws the traffic over them.  With a seeded dataset
the most popular entries -- and so the response sizes every cache hit pays
for -- changed wholesale between seeds, and the spread between seeds
measured the dataset rather than the program.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass

import numpy as np

from repro.centrality.pagerank import pagerank
from repro.graphs.generators.snap_like import SnapLikeSpec, snap_like_topology
from repro.graphs.graph import Graph
from repro.graphs.io import load_edge_list, load_weights, save_edge_list, save_weights
from repro.influential.api import top_r_communities
from repro.serving.http import result_payload_v1
from repro.serving.query import InfluentialQuery

#: Vertices of the benchmark graph; the smoke test passes a toy size.
GRAPH_N = 2000
#: Seed of the graph generator and of the popularity order.
DATASET_SEED = 7
#: Zipf exponent of catalogue popularity.
ZIPF_EXPONENT = 1.4
#: Extra room over k given to the size-constrained (Problem 3) families.
SIZE_SLACK = 10

#: (aggregator, eps, size-constrained) per problem family.
FAMILIES = (
    ("sum", 0.0, False),  # exact: answered from the index
    ("sum", 0.1, False),  # Algorithm 2, approximate
    ("sum-surplus(1)", 0.0, False),  # generalised sum aggregator
    ("sum-surplus(2)", 0.1, False),  # generalised sum, approximate
    ("avg", 0.0, True),  # Algorithm 4, Problem 3
    ("sum", 0.0, True),  # Algorithm 4, Problem 3
)


@dataclass(frozen=True)
class Inputs:
    """The written graph files plus the oracle graph loaded back from them."""

    edges: pathlib.Path
    weights: pathlib.Path
    graph: Graph
    kmax: int

    @property
    def shape(self) -> str:
        return f"plaw(n={self.graph.n}, m={self.graph.m}, kmax={self.kmax})"


def graph_spec(n: int, seed: int) -> SnapLikeSpec:
    """The stand-in recipe, with block count scaled to ``n`` (120 per 20k).

    The ``paper_*`` fields describe a Table III dataset; this graph stands
    in for none, so they are zero.
    """
    return SnapLikeSpec(
        name=f"plaw{n}",
        paper_n=0,
        paper_m=0,
        paper_dmax=0,
        paper_davg=0.0,
        paper_kmax=0,
        n=n,
        gamma=2.4,
        d_min=4,
        d_max=300,
        n_blocks=max(1, round(n * 120 / 20000)),
        block_size=(18, 40),
        block_intra_p=0.85,
        seed=seed,
    )


def make_inputs(workdir: pathlib.Path, n: int = GRAPH_N) -> Inputs:
    """Generate the graph and write its edge and weight files."""
    from repro.core.decomposition import core_decomposition

    workdir.mkdir(parents=True, exist_ok=True)
    edges = workdir / "graph.edges"
    weights = workdir / "graph.weights"
    save_edge_list(snap_like_topology(graph_spec(n, DATASET_SEED)), edges)
    graph, __ = load_edge_list(edges)
    save_weights(pagerank(graph, damping=0.85), weights)
    graph = graph.with_weights(load_weights(weights, graph.n))
    kmax = int(core_decomposition(graph).max())
    return Inputs(edges, weights, graph, kmax)


def envelope(k: int, r: int, f: str, eps: float, sized: bool) -> dict:
    """One v1 ``POST /v1/query`` body."""
    body: dict = {"k": k, "r": r, "f": f}
    if sized:
        body["s"] = k + SIZE_SLACK
    if eps:
        body["options"] = {"eps": eps}
    return body


def catalogue(kmax: int) -> list[dict]:
    """k in {4, 6, ..., kmax-1} + {kmax}, r in 1..20, every family."""
    ks = sorted(set(range(4, kmax, 2)) | {kmax})
    return [
        envelope(k, r, f, eps, sized)
        for k in ks
        for r in range(1, 21)
        for f, eps, sized in FAMILIES
    ]


def popularity(size: int) -> np.ndarray:
    """Zipf(1.4) probabilities, assigned to entries by a seeded permutation."""
    ranks = np.arange(1, size + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    ranks /= ranks.sum()
    return ranks[np.random.default_rng(DATASET_SEED).permutation(size)]


def solve_cold_queries(kmax: int) -> list[dict]:
    """The library-only list: the paper's sweep shape, min/max at high k.

    min and max stay at the top of the k range because at low k one query
    takes seconds; ``sum-surplus(2)`` gives way to a non-overlapping sum.
    """
    ks = sorted({k for k in (4, 8, 12, 16, 20, 24) if k <= kmax} | {kmax})
    families = [fam for fam in FAMILIES if fam[0] != "sum-surplus(2)"]
    queries = []
    for k in ks:
        for r in (5, 10, 20):
            queries += [envelope(k, r, f, eps, sized) for f, eps, sized in families]
            queries.append({"k": k, "r": r, "f": "sum", "non_overlapping": True})
            if k >= min(24, kmax):
                queries += [{"k": k, "r": r, "f": "min"}, {"k": k, "r": r, "f": "max"}]
    return queries


def to_query(body: dict) -> InfluentialQuery:
    """A v1 envelope as the server parses it (options flattened)."""
    flat = {name: value for name, value in body.items() if name != "options"}
    flat.update(body.get("options", {}))
    return InfluentialQuery.create(flat)


def key_of(body: dict) -> str:
    """A stable text key for one request body."""
    return json.dumps(body, sort_keys=True)


def expected_body(graph: Graph, body: dict) -> bytes:
    """The exact bytes a server must answer ``body`` with: the v1 payload of
    a cold ``top_r_communities`` call, serialised as ``repro serve`` does."""
    query = to_query(body)
    result = top_r_communities(graph, **query.solver_kwargs())
    return json.dumps(result_payload_v1(query, result)).encode("utf-8")


def digest(answers: dict[str, bytes]) -> str:
    """Order-free digest over (request key, response bytes) pairs."""
    hasher = hashlib.sha256()
    for key in sorted(answers):
        hasher.update(key.encode("utf-8"))
        hasher.update(hashlib.sha256(answers[key]).digest())
    return hasher.hexdigest()[:16]
