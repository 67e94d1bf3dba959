"""Unit tests for seeded randomness helpers."""

import numpy as np

from repro.utils.rng import DEFAULT_SEED, make_rng


def test_same_seed_same_stream():
    a, b = make_rng(42), make_rng(42)
    assert a.integers(1000) == b.integers(1000)


def test_none_uses_default_seed():
    a, b = make_rng(None), make_rng(DEFAULT_SEED)
    assert a.integers(1000) == b.integers(1000)


def test_generator_passthrough():
    rng = np.random.default_rng(7)
    assert make_rng(rng) is rng

