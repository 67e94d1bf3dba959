"""Thread sizing for the intra-query expansion pool.

:func:`expansion_executor` owns the process-wide pool that lets
independent frontier pops inside one expansion overlap on threads.
Sizing comes from ``REPRO_EXPANSION_THREADS``; unset, 0 or 1 keeps
expansion sequential.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "expansion_executor",
    "expansion_threads",
]

#: Environment setting for intra-query expansion threads ("" = 1).
EXPANSION_THREADS_ENV_VAR = "REPRO_EXPANSION_THREADS"


def expansion_threads() -> int:
    """How many threads intra-query expansion should use right now.

    Read per call (not cached) so tests and operators can flip the env
    var without re-importing; 1 means "stay sequential".
    """
    raw = os.environ.get(EXPANSION_THREADS_ENV_VAR, "").strip()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


_executors: dict[int, ThreadPoolExecutor] = {}
_executors_lock = threading.Lock()


def expansion_executor() -> "tuple[ThreadPoolExecutor | None, int]":
    """The shared expansion pool and its speculation window.

    Returns ``(None, 0)`` when expansion should stay sequential.  Pools
    are created lazily, one per distinct thread count, and kept for the
    life of the process — idle threads cost nothing and reusing the pool
    avoids paying thread startup inside every query.
    """
    count = expansion_threads()
    if count <= 1:
        return None, 0
    with _executors_lock:
        executor = _executors.get(count)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=count, thread_name_prefix="repro-expansion"
            )
            _executors[count] = executor
    # The window bounds how many removals run ahead of the consumer: deep
    # enough to keep every thread fed, shallow enough that a floor that
    # tightens mid-batch wastes little speculative work.
    return executor, 2 * count
