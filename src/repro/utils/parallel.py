"""CPU-count and thread-sizing helpers for the expansion thread pool.

Two distinct concerns live here:

* **CPU count** — :func:`effective_cpu_count` is the one place that
  answers "how many threads can actually run?"  ``os.process_cpu_count``
  (Python 3.13+) respects CPU affinity; older interpreters fall back to
  ``sched_getaffinity`` and then ``os.cpu_count``.
* **Intra-query expansion threads** — the compiled kernels
  (:mod:`repro.kernels`) release the GIL, so independent frontier pops
  inside one expansion can genuinely overlap on threads.
  :func:`expansion_executor` owns the process-wide pool; sizing comes
  from ``REPRO_EXPANSION_THREADS`` (0/1 disables) or, unset, defaults to
  the core count when compiled kernels are active and to 1 (sequential)
  on the pure-numpy fallback, where the GIL would serialise the work
  anyway.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "effective_cpu_count",
    "expansion_executor",
    "expansion_threads",
]

#: Environment override for intra-query expansion threads ("" = auto).
EXPANSION_THREADS_ENV_VAR = "REPRO_EXPANSION_THREADS"

#: Auto-sizing never grows the expansion pool past this many threads:
#: per-removal work items are small, and queue/wakeup overhead dominates
#: long before wide machines run out of cores.
_MAX_AUTO_EXPANSION_THREADS = 8


def effective_cpu_count() -> int:
    """CPUs this process may actually use (never less than 1)."""
    probe = getattr(os, "process_cpu_count", None)
    count = probe() if probe is not None else None
    if not count:
        try:
            count = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            count = os.cpu_count()
    return max(1, int(count or 1))


def expansion_threads() -> int:
    """How many threads intra-query expansion should use right now.

    Read per call (not cached) so tests and operators can flip the env
    var without re-importing; 1 means "stay sequential".
    """
    raw = os.environ.get(EXPANSION_THREADS_ENV_VAR, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    from repro import kernels

    if not kernels.NUMBA_AVAILABLE:
        return 1
    return min(effective_cpu_count(), _MAX_AUTO_EXPANSION_THREADS)


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
