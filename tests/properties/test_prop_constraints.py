"""Property-based pinning of label-constrained search.

On random weighted graphs with random label assignments, a constrained
solve must equal the post-filtered brute force (enumerate every connected
k-core of the full graph, keep the all-matching ones, rank) — on the
CSR engine and the reference set engine, for both the pushdown fast path (sum) and the induced-subgraph
fallback (min).  Hypothesis loves to shrink weights to equal floats, so
the pin is tie-aware: the produced value ranking must match the deep
oracle ranking exactly, and every produced community must appear in the
oracle's catalogue at its claimed value — under distinct values this
degenerates to set-for-set equality.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builder import graph_from_edges
from repro.influential.api import top_r_communities
from repro.influential.constraints import LabelPredicate
from repro.serving.oracle import bruteforce_constrained_top_r
from tests.conftest import ENGINES, engine

LABELS = ("g:db", "g:ml", "x:sys")


@st.composite
def labeled_graphs(draw, min_n=2, max_n=12, max_edges=30):
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=max_edges)
    )
    weights = draw(st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n))
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)
    )
    graph = graph_from_edges(edges, weights=weights, n=n)
    return graph.with_labels(labels)


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(("eq", "any", "prefix")))
    if kind == "eq":
        return LabelPredicate.from_json(draw(st.sampled_from(LABELS)))
    if kind == "any":
        chosen = draw(
            st.lists(st.sampled_from(LABELS), min_size=1, max_size=3)
        )
        return LabelPredicate.from_json({"any": chosen})
    return LabelPredicate.from_json({"prefix": draw(st.sampled_from(("g:", "x:")))})


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _pin(graph, k, r, f, predicate):
    # Enumerate well past r so equal-valued communities at the cut line
    # are all in the catalogue, whichever one the solver kept.
    deep = bruteforce_constrained_top_r(graph, k, 64, f, predicate)
    catalogue = dict(zip(deep.vertex_sets(), deep.values()))
    for name in ENGINES:
        with engine(name):
            produced = top_r_communities(graph, k, r, f, labels=predicate)
        assert len(produced) == min(r, len(deep))
        for a, b in zip(produced.values(), deep.values()):
            assert _close(a, b), f"{name}: {produced.values()} != top of {deep.values()}"
        seen = produced.vertex_sets()
        assert len(set(seen)) == len(seen)
        for members, value in zip(seen, produced.values()):
            assert members in catalogue, f"{name}: {set(members)} not a community"
            assert _close(value, catalogue[members])


@given(labeled_graphs(), st.integers(1, 3), st.integers(1, 3), predicates())
@settings(max_examples=60, deadline=None)
def test_constrained_sum_matches_postfilter(graph, k, r, predicate):
    """The pushdown path: masked peel on the global CSR."""
    _pin(graph, k, r, "sum", predicate)


@given(labeled_graphs(), st.integers(1, 3), st.integers(1, 2), predicates())
@settings(max_examples=40, deadline=None)
def test_constrained_min_matches_postfilter(graph, k, r, predicate):
    """The induced-subgraph fallback: min peel runs on the remapped graph."""
    _pin(graph, k, r, "min", predicate)


@given(labeled_graphs(), st.integers(1, 3), predicates())
@settings(max_examples=40, deadline=None)
def test_constrained_members_always_match(graph, k, predicate):
    names = graph.labels
    result = top_r_communities(graph, k, 3, "sum", labels=predicate)
    for community in result:
        assert all(predicate.matches(names[v]) for v in community.vertices)
