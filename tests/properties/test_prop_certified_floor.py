"""The certified floor of Algorithm 2 changes no answer.

At ``eps = 0`` ``tic_improved`` asks the CSR engine to expand with
``rank=r``: the removals that neither cascade nor split certify the r-th
value of the batch, and every removal that cannot reach it is dropped
before it peels.  The reference engine ignores ``rank``, so
``set_engine()`` runs the un-floored Algorithm 2 and is the oracle here.
Weights drawn from a handful of values make ties at the r-th value
common, which is where a strict comparison or a last-bit rounding
difference would show.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.aggregators.registry import get_aggregator
from repro.core.kcore import connected_kcore_components
from repro.graphs.builder import graph_from_edges
from repro.influential.api import top_r_communities
from repro.influential.expansion import expansion_context, members_frozenset
from repro.serving.engine_pool import ExpansionEnginePool
from repro.utils.zobrist import ZobristHasher

SUM_FAMILY = ("sum", "sum-surplus(alpha=1)", "sum-surplus(alpha=2)")

#: (method, eps) pairs: Improve, and Approx at two ratios.
METHODS = (("improved", 0.0), ("approx", 0.1), ("approx", 0.5))


@st.composite
def tied_graphs(draw, min_n=5, max_n=16):
    """Dense graphs whose weights come from a drawn palette of values.

    Each vertex pair is an edge with even odds, so the k-cores are large
    and most removals take the fast path the certified floor reads.  The
    palette holds small integers (exact sums) or arbitrary floats
    (rounding in every child value); a short palette makes ties at the
    r-th value common, a long one separates it from its neighbours.
    """
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = draw(
        st.lists(st.booleans(), min_size=len(possible), max_size=len(possible))
    )
    edges = [pair for pair, keep in zip(possible, present) if keep]
    palette = draw(
        st.lists(
            st.one_of(st.integers(0, 3).map(float), st.floats(0.1, 50.0)),
            min_size=1,
            max_size=n,
        )
    )
    weights = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return graph_from_edges(edges, weights=weights, n=n)


def _flatten(children):
    return [
        (members_frozenset(child.vertices), child.value, child.key)
        for child in children
    ]


def _fingerprint(result):
    return [
        (tuple(sorted(community.vertices)), community.value.hex())
        for community in result
    ]


@given(tied_graphs(), st.integers(1, 3), st.integers(1, 8), st.booleans())
@settings(max_examples=60, deadline=None)
def test_top_r_matches_the_unfloored_oracle(graph, k, r, pooled):
    """Production ``top_r_communities`` (certified floor at eps = 0, the
    Approx stop at eps > 0) returns the set engine's answer, member for
    member and bit for bit, with and without a shared engine pool."""
    pool = ExpansionEnginePool(graph) if pooled else None
    for f in SUM_FAMILY:
        for method, eps in METHODS:
            produced = top_r_communities(
                graph, k, r, f=f, method=method, eps=eps, engine_pool=pool
            )
            with reference.set_engine():
                expected = top_r_communities(
                    graph, k, r, f=f, method=method, eps=eps
                )
            assert _fingerprint(produced) == _fingerprint(expected), (
                f, method, eps,
            )


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(any(item == other for other in rest) for item in part)


@given(
    tied_graphs(min_n=4),
    st.integers(1, 3),
    st.integers(1, 8),
    st.one_of(st.none(), st.floats(0.0, 0.99)),
    st.sampled_from(SUM_FAMILY),
)
@settings(max_examples=60, deadline=None)
def test_rank_drops_only_children_below_the_certified_value(
    graph, k, r, rel_floor, f
):
    """``expand(floor, rank=r)`` yields an in-order subsequence of
    ``expand(floor)``, and every child it leaves out lies strictly below
    the r-th largest value among the batch's fast children (each the
    parent minus one vertex).  With fewer than r fast children nothing is
    certified and the two expansions agree."""
    aggregator = get_aggregator(f)
    hasher = ZobristHasher(graph.n)
    for component in connected_kcore_components(graph, range(graph.n), k):
        members = frozenset(component)
        value = aggregator.value(graph, members)
        floor = float("-inf") if rel_floor is None else rel_floor * value

        def expand(**rank):
            return _flatten(
                expansion_context(
                    graph, members, k, aggregator, value, hasher
                ).expand(floor, **rank)
            )

        full = expand()
        ranked = expand(rank=r)
        assert _is_subsequence(ranked, full)
        fast = sorted(
            (child[1] for child in full if len(child[0]) == len(members) - 1),
            reverse=True,
        )
        if len(fast) < r:
            assert ranked == full
            continue
        certified = fast[r - 1]
        kept = set(ranked)
        for child in full:
            if child[1] >= certified:
                assert child in kept, (child, certified)


@given(tied_graphs(min_n=4), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_rank_is_ignored_outside_the_sum_family(graph, k, r):
    """``avg`` has no closed-form child value, so ``rank`` certifies
    nothing and the expansion is unchanged."""
    aggregator = get_aggregator("avg")
    hasher = ZobristHasher(graph.n)
    for component in connected_kcore_components(graph, range(graph.n), k):
        members = frozenset(component)
        value = aggregator.value(graph, members)

        def expand(**rank):
            return _flatten(
                expansion_context(
                    graph, members, k, aggregator, value, hasher
                ).expand(**rank)
            )

        assert expand(rank=r) == expand()


def test_certifying_removals_survive_rounding():
    """On K5 with these weights and ``sum-surplus(alpha=1)``, removing
    vertex 2 gives a child worth ``(11.6 - 2.8) - 1`` =
    7.800000000000001, while ``11.6 - (2.8 + 1)`` rounds to 7.8.  Every
    removal is fast, so with ``rank=5`` that child is the fifth
    certifying one and sets the certified value: a bound computed the
    second way would drop it."""
    weights = [0.2, 1.7, 2.8, 1.2, 0.7]
    graph = graph_from_edges(
        [(i, j) for i in range(5) for j in range(i + 1, 5)], weights=weights, n=5
    )
    aggregator = get_aggregator("sum-surplus(alpha=1)")
    members = frozenset(range(5))
    value = aggregator.value(graph, members)
    assert (value - 2.8) - 1.0 > value - (2.8 + 1.0)

    def expand(**rank):
        return _flatten(
            expansion_context(
                graph, members, 2, aggregator, value, ZobristHasher(5)
            ).expand(**rank)
        )

    assert len(expand()) == 5
    assert expand(rank=5) == expand()
