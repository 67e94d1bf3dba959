"""InfluentialQuery: canonical cache keys, coercion, validation."""

import pytest

from repro.aggregators.summation import Sum, SumSurplus
from repro.errors import SpecError
from repro.serving.query import InfluentialQuery


def test_cache_key_canonicalises_aggregator_spellings():
    by_name = InfluentialQuery(k=4, r=5, f="sum-surplus(2)")
    by_instance = InfluentialQuery(k=4, r=5, f=SumSurplus(2.0))
    assert by_name.cache_key() == by_instance.cache_key()
    assert InfluentialQuery(k=4, r=5, f="sum").cache_key() == (
        InfluentialQuery(k=4, r=5, f=Sum()).cache_key()
    )


def test_cache_key_keeps_semantics():
    base = InfluentialQuery(k=4, r=5, f="sum")
    for variant in (
        InfluentialQuery(k=5, r=5),
        InfluentialQuery(k=4, r=6),
        InfluentialQuery(k=4, r=5, f="min"),
        InfluentialQuery(k=4, r=5, s=10),
        InfluentialQuery(k=4, r=5, eps=0.1),
        InfluentialQuery(k=4, r=5, method="naive"),
        InfluentialQuery(k=4, r=5, non_overlapping=True),
        InfluentialQuery(k=4, r=5, greedy=False),
        InfluentialQuery(k=4, r=5, seed_order="weight"),
        InfluentialQuery(k=4, r=5, rng_seed=7),
        InfluentialQuery(k=4, r=5, cohesion="truss"),
    ):
        assert variant.cache_key() != base.cache_key(), variant


def test_cache_key_places_k_at_index_one():
    # The service's per-k invalidation depends on this layout.
    assert InfluentialQuery(k=9, r=2).cache_key()[1] == 9


def test_create_from_mapping_and_overrides():
    query = InfluentialQuery.create({"k": 3, "r": 2, "f": "min"}, r=4)
    assert query == InfluentialQuery(k=3, r=4, f="min")
    same = InfluentialQuery(k=3, r=2)
    assert InfluentialQuery.create(same) is same
    assert InfluentialQuery.create(same, eps=0.2).eps == 0.2


def test_create_rejects_unknown_fields_and_types():
    with pytest.raises(SpecError):
        InfluentialQuery.create({"k": 3, "r": 2, "epsilon": 0.1})
    with pytest.raises(SpecError):
        InfluentialQuery.create({"k": 3, "r": 2, "backend": "csr"})
    with pytest.raises(SpecError):
        InfluentialQuery.create([3, 2])


def test_unknown_cohesion_rejected():
    with pytest.raises(SpecError):
        InfluentialQuery(k=3, r=2, cohesion="clique")


def test_solver_kwargs_round_trip():
    query = InfluentialQuery(
        k=3, r=2, f="avg", s=8, method="local", seed_order="weight", rng_seed=5
    )
    kwargs = query.solver_kwargs()
    assert kwargs["k"] == 3 and kwargs["s"] == 8
    assert "cohesion" not in kwargs


def test_describe_mentions_non_defaults():
    text = InfluentialQuery(
        k=3, r=2, f="min", eps=0.25, non_overlapping=True, cohesion="truss"
    ).describe()
    assert "k=3" in text and "eps=0.25" in text
    assert "tonic" in text and "cohesion=truss" in text


def test_field_types_validated():
    # JSON workloads deliver arbitrary types; they must fail as SpecError
    # (the CLI's error contract), not as TypeErrors inside a solver.
    with pytest.raises(SpecError):
        InfluentialQuery(k="4", r=2)
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2.5)
    with pytest.raises(SpecError):
        InfluentialQuery(k=True, r=2)
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2, s="10")
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2, eps="0.1")
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2, non_overlapping="yes")
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2, f=7)
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2, seed_order=3)
    # Plain ints/floats in valid positions still construct fine.
    InfluentialQuery(k=4, r=2, eps=0, s=10, rng_seed=3)


# ----------------------------------------------------------------------
# Label constraints on the query object
# ----------------------------------------------------------------------
def test_constraints_normalise_to_predicate():
    from repro.influential.constraints import LabelPredicate

    query = InfluentialQuery(k=4, r=2, constraints={"labels": ["b", "a", "b"]})
    assert isinstance(query.constraints, LabelPredicate)
    assert query.constraints.kind == "any"
    assert query.constraints.values == ("a", "b")
    # A pre-built predicate passes through untouched.
    predicate = LabelPredicate.from_json({"prefix": "g:"})
    assert InfluentialQuery(k=4, r=2, constraints=predicate).constraints is predicate


def test_constraints_spellings_share_a_cache_key():
    flat = InfluentialQuery(k=4, r=2, constraints={"labels": {"any": ["a", "b"]}})
    shuffled = InfluentialQuery(k=4, r=2, constraints={"labels": ["b", "a"]})
    assert flat.cache_key() == shuffled.cache_key()


def test_constraints_extend_cache_key_without_moving_fields():
    plain = InfluentialQuery(k=4, r=2)
    constrained = InfluentialQuery(k=4, r=2, constraints={"labels": "x"})
    assert plain.cache_key() != constrained.cache_key()
    # Positional reads baked into the pool/index layers stay valid.
    assert constrained.cache_key()[1] == 4
    assert plain.cache_key() == constrained.cache_key()[: len(plain.cache_key())] or (
        len(constrained.cache_key()) == len(plain.cache_key())
    )


def test_constraints_malformed_rejected():
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2, constraints={"colors": "red"})
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2, constraints={"labels": 42})
    with pytest.raises(SpecError):
        InfluentialQuery(k=4, r=2, constraints="labels=x")


def test_constraints_in_solver_kwargs_and_describe():
    query = InfluentialQuery(k=4, r=2, constraints={"labels": {"prefix": "g:"}})
    assert query.solver_kwargs()["labels"] == query.constraints
    assert "g:" in query.describe()
    assert InfluentialQuery(k=4, r=2).solver_kwargs()["labels"] is None


def test_constrained_query_pickles():
    import pickle

    query = InfluentialQuery(k=4, r=2, constraints={"labels": ["a", "b"]})
    clone = pickle.loads(pickle.dumps(query))
    assert clone == query and clone.cache_key() == query.cache_key()


def test_wire_dict_round_trips_through_create():
    import json

    queries = [
        InfluentialQuery(k=4, r=2),
        InfluentialQuery(k=4, r=2, constraints={"labels": {"prefix": "g:"}}),
        InfluentialQuery(k=3, r=1, f="sum-surplus(1.5)", eps=0.25),
        InfluentialQuery(k=2, r=2, non_overlapping=True, constraints={"labels": "x"}),
    ]
    for query in queries:
        body = json.loads(json.dumps(query.wire_dict()))  # JSON-able
        clone = InfluentialQuery.create(body)
        assert clone.cache_key() == query.cache_key()
    assert "constraints" not in InfluentialQuery(k=4, r=2).wire_dict()
