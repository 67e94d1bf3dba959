"""Seeded randomness helpers.

Everything stochastic in the library (graph generators, random local-search
order, benchmark workloads) flows through :func:`make_rng` so that a single
integer seed reproduces an entire experiment.
"""

from __future__ import annotations

import numpy as np

#: Default seed used by dataset builders when the caller does not pick one.
DEFAULT_SEED = 20220701  # arXiv submission date of the paper, 2022-07-01.


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a numpy Generator.

    Accepts an existing Generator (returned as-is, allowing call-site
    chaining), an integer, or None for the library default seed — never the
    global unseeded state, so runs are reproducible by construction.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)

