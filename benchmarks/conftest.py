"""Shared fixtures for the pytest-benchmark suite.

Most bench files run on the email stand-in, the small and fast
representative; its construction is session-scoped so the suite pays it
once.  The paper's figures run from their ``EXPERIMENTS`` definitions in
``bench_section6.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.datasets import get_dataset


@pytest.fixture(scope="session")
def email():
    return get_dataset("email")


def once(benchmark, fn, *args, **kwargs):
    """Measure ``fn`` with a single round (solver benches are seconds-long;
    pytest-benchmark's default multi-round calibration would multiply the
    suite's runtime without adding information)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
