"""Work counters the solvers record about themselves.

The paper's Section VI figures compare algorithms by how much work they
do.  Wall-clock seconds measure that only on a quiet machine; the number
of candidates a solver generates or the prefixes it tests measure it
exactly, on any machine.  A solver reports such a number with
:func:`count`, and a caller collects the numbers of one call with
:func:`counting`::

    with counting() as tally:
        tic_improved(graph, 4, 5)
    tally["candidates"]

Outside :func:`counting`, :func:`count` records nothing.  Counts live in
a :class:`~contextvars.ContextVar`, so they are per thread: work done on
a helper thread is counted only where its results are consumed.

Names recorded today:

* ``candidates`` — children yielded by
  :meth:`repro.influential.expansion_csr.CSRExpansionContext.expand`;
* ``prefixes_tested`` — connected-k-core verdicts asked of a
  :class:`repro.influential.strategies.PrefixSweep` by the local-search
  strategies.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["count", "counting"]

_active: "ContextVar[Counter[str] | None]" = ContextVar("repro_counts", default=None)


def count(name: str, n: int) -> None:
    """Add ``n`` to ``name`` in the active tally, if there is one."""
    tally = _active.get()
    if tally is not None:
        tally[name] += n


@contextmanager
def counting() -> Iterator["Counter[str]"]:
    """A fresh tally for the enclosed calls.

    A nested ``counting()`` gets its own tally, and what is counted
    inside it does not reach the outer one.
    """
    tally: Counter[str] = Counter()
    token = _active.set(tally)
    try:
        yield tally
    finally:
        _active.reset(token)
