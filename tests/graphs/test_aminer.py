"""Unit tests for the synthetic Aminer co-authorship generator."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graphs.generators import aminer as aminer_module
from repro.graphs.generators.aminer import (
    FIELDS,
    AminerSpec,
    generate_aminer,
)
from repro.graphs.validation import validate_graph


@pytest.fixture(scope="module")
def aminer():
    return generate_aminer(AminerSpec(juniors_per_field=40, seed=11))


def test_structure(aminer):
    graph, meta = aminer
    validate_graph(graph)
    assert graph.n == len(meta.field_of)
    assert len(meta.senior_groups) == 5 * 3  # groups_per_field default 3
    assert set(meta.field_of) == set(FIELDS)


def test_senior_groups_are_dense(aminer):
    graph, meta = aminer
    adj = graph.adjacency
    for group in meta.senior_groups:
        # Near-clique at p=0.9: each member co-authors with most of the group.
        for v in group:
            assert len(adj[v] & group) >= len(group) // 2


def test_labels_are_names(aminer):
    graph, __ = aminer
    assert graph.labels is not None
    assert len(set(graph.labels)) == graph.n  # all names unique
    assert all(" " in name for name in graph.labels)


def test_weight_kinds():
    for kind in ("citations", "h", "g", "i10"):
        graph, meta = generate_aminer(
            AminerSpec(juniors_per_field=15, seed=12), weight_kind=kind
        )
        assert np.all(graph.weights >= 0)
    with pytest.raises(DatasetError):
        generate_aminer(AminerSpec(juniors_per_field=15, seed=12), weight_kind="x")


def test_indices_are_consistent(aminer):
    __, meta = aminer
    # h <= g by definition; all indices non-negative integers.
    assert np.all(meta.h_index <= meta.g_index)
    assert np.all(meta.h_index >= 0)
    assert np.all(meta.i10_index >= 0)
    assert np.all(meta.citations >= 0)


def test_seniors_outweigh_juniors(aminer):
    graph, meta = aminer
    senior = set().union(*meta.senior_groups)
    senior_mean = np.mean([meta.citations[v] for v in senior])
    junior_mean = np.mean(
        [meta.citations[v] for v in range(graph.n) if v not in senior]
    )
    assert senior_mean > 3 * junior_mean


def test_determinism():
    a = generate_aminer(AminerSpec(juniors_per_field=15, seed=13))
    b = generate_aminer(AminerSpec(juniors_per_field=15, seed=13))
    assert sorted(a[0].edges()) == sorted(b[0].edges())
    assert np.array_equal(a[0].weights, b[0].weights)


def test_spec_validation():
    with pytest.raises(DatasetError):
        AminerSpec(juniors_per_field=2)
    with pytest.raises(DatasetError):
        AminerSpec(groups_per_field=0)
    with pytest.raises(DatasetError):
        AminerSpec(group_size=(3, 8))


def _inline_citation_indices(rng, paper_counts, boost):
    """The generator's former inline h/g/i10 computation, kept as the
    oracle for its switch to repro.centrality.hindex."""
    n = len(paper_counts)
    citations, h, g, i10 = (np.zeros(n) for _ in range(4))
    for v in range(n):
        per_paper = np.sort(
            rng.lognormal(mean=1.0, sigma=1.0, size=int(paper_counts[v])) * boost[v]
        )[::-1]
        citations[v] = per_paper.sum()
        ranks = np.arange(1, len(per_paper) + 1)
        h[v] = int((per_paper >= ranks).sum())
        g[v] = int((np.cumsum(per_paper) >= ranks**2).sum())
        i10[v] = int((per_paper >= 10).sum())
    return citations, h, g, i10


@pytest.mark.parametrize("kind", ["citations", "h", "g", "i10"])
def test_weights_match_the_inline_index_formulas(kind, monkeypatch):
    spec = AminerSpec(juniors_per_field=20, seed=7)
    graph, meta = generate_aminer(spec, weight_kind=kind)
    monkeypatch.setattr(aminer_module, "_citation_indices", _inline_citation_indices)
    oracle, oracle_meta = generate_aminer(spec, weight_kind=kind)
    assert graph.weights.tobytes() == oracle.weights.tobytes()
    for field in ("citations", "h_index", "g_index", "i10_index"):
        ours, theirs = getattr(meta, field), getattr(oracle_meta, field)
        assert ours.tobytes() == theirs.tobytes(), field
