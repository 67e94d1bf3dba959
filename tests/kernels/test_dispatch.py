"""Backend dispatch: kill-switch, reporting, and fallback availability."""

import os
import subprocess
import sys

from repro import kernels

_PROBE = (
    "from repro import kernels; "
    "print(kernels.kernel_backend(), kernels.NUMBA_AVAILABLE, "
    "kernels.NUMBA_DISABLED)"
)


def _probe(extra_env):
    env = dict(os.environ)
    env.pop(kernels.NO_NUMBA_ENV_VAR, None)
    env.update(extra_env)
    env.setdefault("PYTHONPATH", "src")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    backend, available, disabled = out.stdout.split()
    return backend, available == "True", disabled == "True"


def test_kill_switch_forces_numpy():
    backend, available, disabled = _probe({kernels.NO_NUMBA_ENV_VAR: "1"})
    assert (backend, available, disabled) == ("numpy", False, True)


def test_kill_switch_zero_means_enabled():
    __, __, disabled = _probe({kernels.NO_NUMBA_ENV_VAR: "0"})
    assert not disabled
    __, __, disabled = _probe({kernels.NO_NUMBA_ENV_VAR: ""})
    assert not disabled


def test_backend_report_is_consistent():
    assert kernels.kernel_backend() in ("numba", "numpy")
    assert kernels.kernel_backend() == (
        "numba" if kernels.NUMBA_AVAILABLE else "numpy"
    )
    if kernels.NUMBA_DISABLED:
        assert not kernels.NUMBA_AVAILABLE


def test_fallback_module_never_requires_numba():
    """The fallback import graph must stay numba-free — it is the path
    ``pip install repro`` (no extras) runs."""
    from repro.kernels import _numpy

    for name in (
        "peel_to_kcore",
        "components_of_mask",
        "certify_connected",
        "core_numbers",
        "arc_supports",
    ):
        assert callable(getattr(_numpy, name))
        assert callable(getattr(kernels, name))


def test_numpy_only_helpers_bind_the_fallback():
    """Helpers without a measured compiled twin are the numpy functions
    on every leg."""
    from repro.kernels import _numpy

    assert kernels.certify_connected is _numpy.certify_connected
    assert kernels.decrement_degrees is _numpy.decrement_degrees
