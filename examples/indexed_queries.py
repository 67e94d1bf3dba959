"""Extension tour: the min-community forest and the k-truss model.

Two capabilities beyond the paper's core algorithms:

1. the laminar min-community forest — prior work (Li et al. 2015, Bi et
   al. 2018) answers min queries from an index of the whole community
   family; :func:`~repro.influential.minmax_solvers.community_forest`
   builds that forest in near-linear time and answers top-r,
   non-contained, non-overlapping, and "which communities is researcher
   X in?" queries from it.
2. k-truss influential communities — the stricter cohesiveness model the
   paper's introduction points to: every edge must close k-2 triangles.

Run:  python examples/indexed_queries.py
"""

from __future__ import annotations

import time

from repro import snap_like_graph
from repro.influential.api import top_r_communities
from repro.influential.minmax_solvers import community_forest, top_r_min
from repro.influential.truss_search import truss_top_r_min, truss_top_r_sum


def main() -> None:
    graph = snap_like_graph("dblp")
    k = 4
    print(f"dataset: dblp stand-in ({graph.n} vertices, {graph.m} edges), k={k}")

    # ------------------------------------------------------------------
    print("\n-- 1. the laminar min-community forest --")
    t0 = time.perf_counter()
    forest = community_forest(graph, k, "min")
    build = time.perf_counter() - t0
    print(f"built the forest of {len(forest)} communities in {build:.3f}s")

    top5 = forest.communities(5)
    assert top5 == list(top_r_min(graph, k, 5))
    print(f"top-5 values: {[round(c.value, 6) for c in top5]}")
    leaves = forest.leaves(3)
    print(f"top-3 non-contained sizes: {[c.size for c in leaves]}")

    anchor = top5[0].members()[0]
    chain = [c for c in forest.communities() if anchor in c.vertices]
    print(
        f"vertex {anchor} sits in a chain of {len(chain)} nested communities "
        f"(innermost value {chain[0].value:.6f}, outermost {chain[-1].value:.6f})"
    )
    disjoint = top_r_communities(graph, k, 3, "min", non_overlapping=True)
    print(f"non-overlapping top-3 values: {[round(v, 6) for v in disjoint.values()]}")

    # ------------------------------------------------------------------
    print("\n-- 2. the k-truss model --")
    core_style = top_r_min(graph, k, 1)
    truss_style = truss_top_r_min(graph, k + 1, 1)
    print(
        f"top min-community, {k}-core model:  size "
        f"{core_style[0].size if len(core_style) else '-'}"
    )
    if len(truss_style):
        print(
            f"top min-community, {k + 1}-truss model: size "
            f"{truss_style[0].size} (triangle-reinforced, tighter)"
        )
    top_sum = truss_top_r_sum(graph, k + 1, 3)
    print(
        f"top-3 {k + 1}-truss communities by sum: "
        f"{[round(v, 6) for v in top_sum.values()]}"
    )


if __name__ == "__main__":
    main()
