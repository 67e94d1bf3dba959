"""Unit tests for the SNAP stand-in dataset generator."""

import numpy as np
import pytest

from repro.core.decomposition import kmax
from repro.errors import DatasetError
from repro.graphs.components import connected_components
from repro.graphs.generators.snap_like import (
    SNAP_LIKE_SPECS,
    snap_like_graph,
    snap_like_topology,
)
from repro.reference import validate_graph


def test_all_seven_table3_datasets_present():
    assert set(SNAP_LIKE_SPECS) == {
        "domainpub", "email", "dblp", "youtube", "orkut", "livejournal", "friendster",
    }


def test_specs_record_paper_statistics():
    email = SNAP_LIKE_SPECS["email"]
    assert email.paper_n == 36_692
    assert email.paper_m == 183_831
    assert email.paper_kmax == 43
    friendster = SNAP_LIKE_SPECS["friendster"]
    assert friendster.paper_n == 65_608_366


def test_relative_scale_ordering_preserved():
    sizes = {name: spec.n for name, spec in SNAP_LIKE_SPECS.items()}
    assert sizes["friendster"] == max(sizes.values())
    assert sizes["domainpub"] == min(sizes.values())


def test_topology_is_valid_connected_and_deterministic():
    spec = SNAP_LIKE_SPECS["domainpub"]
    a = snap_like_topology(spec)
    b = snap_like_topology(spec)
    validate_graph(a)
    assert sorted(a.edges()) == sorted(b.edges())
    assert len(connected_components(a)) == 1


def test_nontrivial_kcore_structure():
    graph = snap_like_topology(SNAP_LIKE_SPECS["domainpub"])
    # Every experiment sweeps k in k_sweep; kmax must comfortably exceed it.
    assert kmax(graph) >= max(SNAP_LIKE_SPECS["domainpub"].k_sweep)


def test_weighted_graph_uses_pagerank():
    graph = snap_like_graph("domainpub")
    weights = graph.weights
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-6)


def test_unweighted_request():
    graph = snap_like_graph("domainpub", weighted=False)
    assert graph.total_weight == 0.0


def test_unknown_dataset_rejected():
    with pytest.raises(DatasetError):
        snap_like_graph("does-not-exist")


def test_power_law_ish_degree_distribution():
    graph = snap_like_topology(SNAP_LIKE_SPECS["dblp"])
    degrees = graph.degrees()
    # Heavy tail: the max degree dwarfs the median, as in the SNAP originals.
    assert degrees.max() >= 5 * np.median(degrees)
