"""How fast the machine runs: a fixed piece of bench-owned work, and the
scaling of measured times to a reference speed.

:func:`probe_s` times interpreter work (dict updates), JSON round trips
and numpy kernels -- the kinds of work the program does -- in about 3 ms.
None of it is the program's code, so no change to the program moves it;
only the machine does.  A run probes between its operations, keeps the
fastest probe, and reports every time scaled by
``REFERENCE_PROBE_S / fastest probe``: the time the operation would take
on a machine whose probe takes :data:`REFERENCE_PROBE_S`.  On a shared
2-vCPU VM every time moved 7-23% between sets of runs an hour apart, all
in the same direction; scaled, the set medians agreed within 5%
(README.md, "Repeatability and bounds").
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

#: The probe time the reported times are scaled to: about this machine's
#: fastest probe, so that scaled times read close to measured ones.
REFERENCE_PROBE_S = 0.003

_ARRAY = np.random.default_rng(0).random(20_000)
_DOC = {
    "communities": [
        {"members": list(range(i, i + 30)), "value": i * 0.5} for i in range(20)
    ]
}


def probe_s() -> float:
    """Seconds one run of the fixed work took."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    for __ in range(5):
        json.loads(json.dumps(_DOC))
    order = np.argsort(_ARRAY, kind="stable")
    np.cumsum(_ARRAY[order])
    return time.perf_counter() - started


class Speed:
    """The fastest probe of one run."""

    def __init__(self, fastest_s: float = math.inf, probes: int = 0) -> None:
        self.fastest_s = fastest_s
        self.probes = probes

    def probe(self) -> None:
        self.fastest_s = min(self.fastest_s, probe_s())
        self.probes += 1

    def scaled(self, value: float) -> float:
        """A time measured in this run, scaled to the reference speed."""
        return value * REFERENCE_PROBE_S / self.fastest_s
