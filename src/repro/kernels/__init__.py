"""The kernel tier: one dispatch point for the hottest flat-array loops.

Two interchangeable backends implement the same four kernels —

========================  =============================================
``peel_to_kcore``         in-place "delete while min degree < k" peel
``components_of_mask``    connected components of a masked vertex set
``core_numbers``          full core decomposition (Batagelj–Zaveršnik)
``arc_supports``          per-edge triangle counts (degree orientation)
========================  =============================================

— a pure-numpy fallback (:mod:`repro.kernels._numpy`, always available)
and Numba ``@njit(nogil=True, cache=True)`` compiled loops
(:mod:`repro.kernels._numba`, active when the ``repro[fast]`` extra is
installed).  Selection happens once at import time:

* ``REPRO_NO_NUMBA=1`` in the environment forces the numpy fallback even
  when numba is importable (the CI no-numba leg, and an operator
  kill-switch if a numba upgrade ever misbehaves);
* otherwise the compiled backend is used when ``import numba`` works,
  and the fallback when it does not — no hard dependency.

Both backends promise *bit-identical* results: the peel fixpoint is
unique, components are emitted by smallest member as sorted arrays, and
core numbers/supports are exact integers.  The original dict/set
implementations in :mod:`repro.reference` remain the parity oracle; the
property suites in ``tests/properties`` and ``tests/kernels`` hold all
three in lockstep.

``certify_connected`` (a spanning-tree proof that a masked vertex set is
still connected, in time proportional to the removed vertices'
neighbourhoods; ``False`` means "not proved") is numpy-only, like the
``decrement_degrees`` helper: both legs bind the fallback, since no
compiled twin has been measured against it.

The compiled kernels release the GIL, which is what makes the threaded
intra-query expansion in :mod:`repro.influential.expansion_csr` scale on
real cores (see :func:`repro.utils.parallel.expansion_threads`).
"""

from __future__ import annotations

import os

from repro.kernels._numpy import certify_connected, decrement_degrees

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMBA_DISABLED",
    "arc_supports",
    "certify_connected",
    "components_of_mask",
    "core_numbers",
    "decrement_degrees",
    "kernel_backend",
    "peel_to_kcore",
]

#: Environment kill-switch: any value but ""/"0" forces the numpy path.
NO_NUMBA_ENV_VAR = "REPRO_NO_NUMBA"

NUMBA_DISABLED = os.environ.get(NO_NUMBA_ENV_VAR, "").strip() not in ("", "0")

if not NUMBA_DISABLED:
    try:
        from repro.kernels import _numba as _impl

        NUMBA_AVAILABLE = True
    except ImportError:
        from repro.kernels import _numpy as _impl

        NUMBA_AVAILABLE = False
else:
    from repro.kernels import _numpy as _impl

    NUMBA_AVAILABLE = False


def kernel_backend() -> str:
    """``"numba"`` or ``"numpy"`` — which implementations are active."""
    return "numba" if NUMBA_AVAILABLE else "numpy"


peel_to_kcore = _impl.peel_to_kcore
components_of_mask = _impl.components_of_mask
core_numbers = _impl.core_numbers
arc_supports = _impl.arc_supports
