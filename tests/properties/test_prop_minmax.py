"""The min/max community forest against the threshold-sweep oracle.

Integer weights 1-4 make ties the rule rather than the exception, so every
case exercises tie groups removed together and cascades that cross them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.bench.datasets import get_dataset
from repro.graphs.builder import graph_from_edges
from repro.influential.api import top_r_communities
from repro.influential.bruteforce import bruteforce_communities
from repro.influential.minmax_solvers import (
    max_communities,
    min_communities,
    top_r_max,
    top_r_min,
    top_r_min_noncontained,
)
from repro.influential.nonoverlap import greedy_disjoint

#: aggregator -> (family solver, oracle, top-r solver)
SOLVERS = {
    "min": (min_communities, reference.min_family, top_r_min),
    "max": (max_communities, reference.max_family, top_r_max),
}


@st.composite
def tied_graphs(draw, max_n=11):
    n = draw(st.integers(3, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=2, max_size=30)
    )
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return graph_from_edges(edges, weights=[float(w) for w in weights], n=n)


def pairs(communities):
    return {(c.vertices, c.value) for c in communities}


@given(tied_graphs(), st.integers(1, 3), st.sampled_from(["min", "max"]))
@settings(max_examples=60, deadline=None)
def test_family_matches_oracle_and_bruteforce(graph, k, f):
    solver, oracle, __ = SOLVERS[f]
    family = solver(graph, k)
    assert family == oracle(graph, k)
    assert pairs(family) == pairs(bruteforce_communities(graph, k, f))


@given(
    tied_graphs(),
    st.integers(1, 3),
    st.integers(1, 5),
    st.sampled_from(["min", "max"]),
)
@settings(max_examples=60, deadline=None)
def test_top_r_is_the_oracle_prefix(graph, k, r, f):
    __, oracle, top_r = SOLVERS[f]
    family = oracle(graph, k)
    assert list(top_r(graph, k, r)) == family[:r]
    assert list(top_r_communities(graph, k, r, f)) == family[:r]
    disjoint = top_r_communities(graph, k, r, f, non_overlapping=True)
    assert disjoint == greedy_disjoint(family, r)


@given(tied_graphs(), st.integers(1, 3), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_noncontained_are_the_oracle_leaves(graph, k, r):
    family = reference.min_family(graph, k)
    leaves = [c for c in family if not any(o.vertices < c.vertices for o in family)]
    assert list(top_r_min_noncontained(graph, k, r)) == leaves[:r]


@pytest.mark.parametrize("k", [4, 8])
def test_email_parity(k):
    graph = get_dataset("email")
    for f, (solver, oracle, __) in SOLVERS.items():
        family = oracle(graph, k)
        assert solver(graph, k) == family
        assert list(top_r_communities(graph, k, 10, f)) == family[:10]
