"""Algorithm 2 (TIC-IMPROVED) — exactness at eps=0, Theorem 6 at eps>0."""

import pytest

from repro.aggregators.registry import get_aggregator
from repro.core.kcore import connected_kcore_components
from repro.errors import SolverError
from repro.graphs.generators.random_graphs import gnm_random_graph
from repro.hardness.certificates import certify_result_set
from repro.influential.bruteforce import bruteforce_top_r
from repro.influential.expansion import expansion_context, members_frozenset
from repro.influential.expansion_csr import CSRExpansionContext
from repro.influential.improved import peel_below_average, tic_improved
from repro.utils.counters import counting
from repro.utils.rng import make_rng
from repro.utils.zobrist import ZobristHasher


@pytest.fixture(scope="module")
def spread_graph():
    # One 200-vertex seed component at k=8 with spread-out weights: the
    # first pops have far more removals than can place.
    base = gnm_random_graph(200, 1600, seed=5)
    return base.with_weights(make_rng(6).uniform(0.1, 30.0, base.n))


def test_figure1_example1(figure1):
    result = tic_improved(figure1, k=2, r=2)
    assert result.values() == [203.0, 195.0]


def test_exact_matches_bruteforce(small_random_graphs):
    for graph in small_random_graphs:
        for k in (1, 2, 3):
            for r in (1, 2, 5):
                ours = tic_improved(graph, k, r, eps=0.0)
                oracle = bruteforce_top_r(graph, k, r, "sum")
                assert ours.values() == pytest.approx(oracle.values()), (
                    graph.n, k, r
                )


def test_theorem6_guarantee(small_random_graphs):
    """Definition 8: the r-th approx value >= (1 - eps) * exact r-th value."""
    for graph in small_random_graphs:
        for eps in (0.01, 0.1, 0.3, 0.6):
            for r in (1, 3, 5):
                exact = bruteforce_top_r(graph, 2, r, "sum")
                approx = tic_improved(graph, 2, r, eps=eps)
                if len(exact) == 0:
                    continue
                assert len(approx) >= len(exact)
                exact_rth = exact.rth_value(len(exact))
                approx_rth = approx.rth_value(len(exact))
                assert approx_rth >= (1 - eps) * exact_rth - 1e-12


def test_agrees_with_naive(figure1):
    from repro.influential.naive_sum import sum_naive

    for r in (1, 2, 3, 5, 8):
        assert tic_improved(figure1, 2, r).values() == pytest.approx(
            sum_naive(figure1, 2, r).values()
        )


def test_outputs_certify(figure1):
    certify_result_set(figure1, tic_improved(figure1, k=2, r=5), k=2)


def test_sum_surplus(figure1):
    result = tic_improved(figure1, k=2, r=2, f="sum-surplus(alpha=2)")
    assert result.values()[0] == 203.0 + 2 * 11


def test_rejects_non_peelable(figure1):
    with pytest.raises(SolverError):
        tic_improved(figure1, k=2, r=1, f="avg")
    with pytest.raises(SolverError):
        tic_improved(figure1, k=2, r=1, f="min")


def test_eps_validation(figure1):
    with pytest.raises(SolverError):
        tic_improved(figure1, k=2, r=1, eps=1.0)
    with pytest.raises(SolverError):
        tic_improved(figure1, k=2, r=1, eps=-0.1)


def test_empty_core(path_graph):
    assert len(tic_improved(path_graph, k=2, r=3)) == 0


def test_r_larger_than_community_count(two_triangles):
    # Asking for more communities than exist returns what exists.
    result = tic_improved(two_triangles, k=2, r=50)
    assert len(result) == 2  # only the two triangles (no proper sub-2-cores)


def test_peel_below_average_extension(figure1):
    result = peel_below_average(figure1, k=2, r=3)
    assert len(result) >= 1
    # Values must be valid averages of real communities.
    certify_result_set(figure1, result, k=2)


def test_floored_search_counts_pruned_removals(spread_graph):
    """A floored ``tic_improved`` call records the removals its value
    floors skipped, and the counts repeat exactly from run to run."""

    def counts():
        with counting() as tally:
            tic_improved(spread_graph, 8, 32)
        return dict(tally)

    first = counts()
    assert first["pruned"] > 0 and first["candidates"] > 0
    assert counts() == first


def test_unfloored_expand_prunes_nothing(spread_graph):
    aggregator = get_aggregator("sum")
    (component,) = connected_kcore_components(
        spread_graph, range(spread_graph.n), 8
    )
    members = frozenset(component)
    context = expansion_context(
        spread_graph, members, 8, aggregator,
        aggregator.value(spread_graph, members), ZobristHasher(spread_graph.n),
    )
    with counting() as tally:
        children = list(context.expand())
    assert tally["pruned"] == 0
    assert tally["candidates"] == len(children) > 0


def test_every_floored_removal_is_counted_once(spread_graph):
    """``pruned`` counts each removal a value floor skipped exactly once:
    the batch prefilter's rejections for a static floor, and every
    removal for a floor that rises past the parent after the prefilter
    read it."""
    aggregator = get_aggregator("sum")
    (component,) = connected_kcore_components(
        spread_graph, range(spread_graph.n), 8
    )
    members = frozenset(component)
    value = aggregator.value(spread_graph, members)
    hasher = ZobristHasher(spread_graph.n)

    def counts(floor):
        context = expansion_context(
            spread_graph, members, 8, aggregator, value, hasher
        )
        with counting() as tally:
            list(context.expand(floor))
        return tally["candidates"], tally["pruned"]

    static = value - 10.0
    below = sum(
        1 for v in members if value - float(spread_graph.weights[v]) < static
    )
    assert 0 < below < len(members)
    assert counts(static)[1] == below

    readings = iter([float("-inf")])
    assert counts(lambda: next(readings, float("inf"))) == (0, len(members))


def test_approx_stops_at_the_rth_confirmation(spread_graph, monkeypatch):
    """Approx stops expanding the moment it confirms its r-th community:
    when that confirmation is a child of the batch, it is the last child
    the engine yields."""
    yielded = []
    original_expand = CSRExpansionContext.expand

    def spy_expand(self, floor=float("-inf"), rank=None):
        for child in original_expand(self, floor, rank):
            yielded.append(members_frozenset(child.vertices))
            yield child

    monkeypatch.setattr(CSRExpansionContext, "expand", spy_expand)
    result = tic_improved(spread_graph, 8, 5, eps=0.5)
    assert len(result) == 5
    assert yielded[-1] in {community.vertices for community in result}
