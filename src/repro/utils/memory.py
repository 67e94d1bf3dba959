"""Process-memory introspection for the serving fleet.

The fleet benchmarks and the ``/v1/stats`` endpoint both need the resident
set size of the *current* process, without psutil.  On Linux the
authoritative number is ``VmRSS`` in ``/proc/self/status``; elsewhere we
fall back to ``resource.getrusage`` (``ru_maxrss`` is a high-water mark,
not the current value, but it is the best the stdlib offers and is only
used off-Linux).
"""

from __future__ import annotations

import os
import sys

__all__ = ["rss_bytes"]

_UNITS = {"kb": 1024, "mb": 1024 * 1024, "gb": 1024 * 1024 * 1024, "b": 1}


def rss_bytes(pid: int | None = None) -> int:
    """Resident set size in bytes of ``pid`` (default: this process).

    Returns 0 when the value cannot be determined (no procfs and no
    usable getrusage) rather than raising: callers surface it as a
    metric, and a missing metric must never take down a serving process.
    """
    try:
        with open(f"/proc/{pid or 'self'}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    parts = line.split()
                    value = int(parts[1])
                    unit = parts[2].decode().lower() if len(parts) > 2 else "kb"
                    return value * _UNITS.get(unit, 1024)
    except (OSError, ValueError, IndexError):
        pass
    if pid not in (None, os.getpid()):
        return 0
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes.
        return peak if sys.platform == "darwin" else peak * 1024
    except (ImportError, ValueError):
        return 0
