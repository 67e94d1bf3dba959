"""Random graph models.

The paper analyses its algorithms under power-law degree distributions
(Definition 9: ``P(k) ~ k^-gamma`` with ``2 < gamma < 3``) and evaluates on
SNAP social networks, which empirically follow such laws.  This module
provides the generators from which the dataset stand-ins are assembled:

* :func:`gnp_random_graph`, :func:`gnm_random_graph` — Erdős–Rényi models,
  used by tests as unstructured baselines;
* :func:`barabasi_albert` — preferential attachment, gamma ~ 3;
* :func:`powerlaw_degree_sequence` + :func:`powerlaw_configuration_model` —
  draw a degree sequence from a truncated discrete power law and realise it
  with the erased configuration model (multi-edges and self-loops dropped),
  giving direct control of gamma;
* :func:`chung_lu` — expected-degree model, a faster power-law alternative.

All generators take a seed (or Generator) and are fully deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.builder import GraphBuilder
from repro.graphs.graph import Graph
from repro.utils.rng import make_rng


def gnp_random_graph(
    n: int, p: float, seed: int | np.random.Generator | None = None
) -> Graph:
    """Erdős–Rényi G(n, p): each of the C(n,2) edges appears with prob p."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = make_rng(seed)
    builder = GraphBuilder(n)
    if p > 0 and n > 1:
        # Vectorised upper-triangle sampling: much faster than nested loops.
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        for u, v in zip(iu[mask], ju[mask]):
            builder.add_edge(int(u), int(v))
    return builder.build()


def gnm_random_graph(
    n: int, m: int, seed: int | np.random.Generator | None = None
) -> Graph:
    """Erdős–Rényi G(n, m): exactly ``m`` distinct edges, chosen uniformly."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise GraphError(f"cannot place {m} edges in a graph with {n} vertices")
    rng = make_rng(seed)
    builder = GraphBuilder(n)
    placed = 0
    while placed < m:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v and not builder.has_edge(u, v):
            builder.add_edge(u, v)
            placed += 1
    return builder.build()


def barabasi_albert(
    n: int, m: int, seed: int | np.random.Generator | None = None
) -> Graph:
    """Barabási–Albert preferential attachment with ``m`` edges per arrival.

    Starts from a star on ``m + 1`` vertices; every subsequent vertex
    attaches to ``m`` distinct existing vertices sampled proportionally to
    degree (implemented with the standard repeated-endpoints trick).
    """
    if m < 1 or n < m + 1:
        raise GraphError(f"need n >= m + 1 >= 2, got n={n}, m={m}")
    rng = make_rng(seed)
    builder = GraphBuilder(n)
    # repeated_nodes holds each vertex once per incident edge endpoint, so
    # uniform sampling from it is degree-proportional sampling.
    repeated_nodes: list[int] = []
    for v in range(1, m + 1):
        builder.add_edge(0, v)
        repeated_nodes.extend((0, v))
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated_nodes[int(rng.integers(len(repeated_nodes)))])
        for t in targets:
            builder.add_edge(v, t)
            repeated_nodes.extend((v, t))
    return builder.build()


def powerlaw_degree_sequence(
    n: int,
    gamma: float,
    d_min: int = 1,
    d_max: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Sample a graphical-ish degree sequence from ``P(d) ~ d^-gamma``.

    Degrees are drawn i.i.d. from the truncated discrete power law on
    ``[d_min, d_max]`` (default cap ``sqrt(n)``, the standard choice that
    keeps the erased configuration model's edge loss negligible).  The
    sequence sum is forced even by incrementing one entry if needed.
    """
    if not 1.0 < gamma:
        raise GraphError(f"gamma must exceed 1, got {gamma}")
    if d_min < 1:
        raise GraphError(f"d_min must be >= 1, got {d_min}")
    if d_max is None:
        d_max = max(d_min, int(round(np.sqrt(n))))
    if d_max < d_min:
        raise GraphError(f"d_max {d_max} < d_min {d_min}")
    rng = make_rng(seed)
    support = np.arange(d_min, d_max + 1, dtype=np.float64)
    pmf = support**-gamma
    pmf /= pmf.sum()
    degrees = rng.choice(support.astype(np.int64), size=n, p=pmf)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(n))] += 1
    return degrees


def powerlaw_configuration_model(
    n: int,
    gamma: float,
    d_min: int = 1,
    d_max: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Erased configuration model over a power-law degree sequence.

    Stubs are paired by a random shuffle; self-loops and parallel edges are
    erased (the usual simple-graph projection), so realised degrees can fall
    slightly below the drawn sequence — acceptable for benchmark stand-ins.
    """
    rng = make_rng(seed)
    degrees = powerlaw_degree_sequence(n, gamma, d_min, d_max, rng)
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    builder = GraphBuilder(n)
    for i in range(0, len(stubs) - 1, 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u != v:
            builder.add_edge(u, v)
    return builder.build()


def chung_lu(
    n: int,
    expected_degrees: np.ndarray,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Chung–Lu model: edge (u,v) appears w.p. ``min(1, d_u d_v / sum(d))``.

    Implemented with the O(n + m) skip-sampling trick of Miller & Hagberg,
    processing vertices in decreasing expected degree.
    """
    weights = np.asarray(expected_degrees, dtype=np.float64)
    if weights.shape != (n,):
        raise GraphError(f"expected_degrees must have shape ({n},)")
    if n and weights.min() < 0:
        raise GraphError("expected degrees must be non-negative")
    rng = make_rng(seed)
    builder = GraphBuilder(n)
    total = weights.sum()
    if total <= 0:
        return builder.build()
    order = np.argsort(-weights)
    sorted_w = weights[order]
    for i in range(n - 1):
        wi = sorted_w[i]
        if wi <= 0:
            break
        j = i + 1
        p = min(1.0, wi * sorted_w[j] / total)
        while j < n and p > 0:
            if p < 1.0:
                # Geometric skip ahead over non-edges.
                skip = int(np.floor(np.log(rng.random()) / np.log(1.0 - p)))
                j += skip
            if j < n:
                q = min(1.0, wi * sorted_w[j] / total)
                if rng.random() < q / p:
                    builder.add_edge(int(order[i]), int(order[j]))
                p = q
                j += 1
    return builder.build()
