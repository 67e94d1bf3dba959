"""Unit tests for the sweep runner and the injectable clock.

No test here sleeps: every timing assertion pins the scripted durations
of a :class:`~repro.bench.clock.ManualClock` instead of trusting the
wall clock, which is the whole point of the clock seam.
"""

import pytest

from repro.bench.clock import ManualClock, perf_clock
from repro.bench.runner import SweepResult, run_sweep, time_call
from repro.utils.counters import count


# ----------------------------------------------------------------------
# ManualClock
# ----------------------------------------------------------------------
def test_manual_clock_brackets_scripted_durations():
    clock = ManualClock([0.25, 1.5])
    assert clock() == 0.0  # start of first pair
    assert clock() == 0.25  # stop: advanced by the first duration
    assert clock() == 0.25
    assert clock() == 1.75
    # Durations cycle.
    assert clock() == 1.75
    assert clock() == 2.0


def test_manual_clock_advance_and_start():
    clock = ManualClock([1.0], start=10.0)
    assert clock.now == 10.0
    clock.advance(5.0)
    assert clock() == 15.0
    assert clock() == 16.0


def test_manual_clock_rejects_empty_script():
    with pytest.raises(ValueError):
        ManualClock([])


def test_perf_clock_is_monotonic():
    a, b = perf_clock(), perf_clock()
    assert b >= a


# ----------------------------------------------------------------------
# time_call
# ----------------------------------------------------------------------
def test_time_call_returns_result():
    seconds, value = time_call(lambda: sum(range(1000)))
    assert value == 499500
    assert seconds >= 0


def test_time_call_reports_scripted_seconds_exactly():
    clock = ManualClock([0.125])
    seconds, value = time_call(lambda: "answer", clock=clock)
    assert seconds == 0.125
    assert value == "answer"


# ----------------------------------------------------------------------
# run_sweep
# ----------------------------------------------------------------------
def test_run_sweep_time_mode_pins_durations():
    # slow and fast alternate inside each axis point, so the script
    # interleaves their durations: (slow, fast) x 3 points.
    clock = ManualClock([0.004, 0.001])
    result = run_sweep(
        "demo", "x", [1, 2, 3],
        algorithms={"slow": lambda x: None, "fast": lambda x: None},
        clock=clock,
    )
    assert result.series["slow"] == [0.004, 0.004, 0.004]
    assert result.series["fast"] == [0.001, 0.001, 0.001]


def test_run_sweep_value_mode():
    result = run_sweep(
        "demo", "x", [2, 4],
        algorithms={"square": lambda x: x * x},
        measure="value",
    )
    assert result.series["square"] == [4.0, 16.0]


def test_run_sweep_skip_consumes_no_clock_reads():
    clock = ManualClock([0.5])
    result = run_sweep(
        "demo", "x", [1, 2, 3],
        algorithms={"alg": lambda x: x},
        measure="value",
        skip=lambda name, x: x == 2,
        clock=clock,
    )
    assert result.series["alg"] == [1.0, None, 3.0]
    # Two timed calls ran; the skipped point never touched the clock.
    assert clock.now == 1.0


def test_run_sweep_keeps_counts_per_point():
    def work(x):
        count("steps", x)

    result = run_sweep(
        "demo",
        "x",
        [1, 2, 3],
        algorithms={"work": work, "idle": lambda x: None},
        skip=lambda name, x: x == 2,
    )
    assert result.counts["work"] == [{"steps": 1}, None, {"steps": 3}]
    assert result.counts["idle"] == [{}, None, {}]


def test_render_text_and_markdown():
    result = SweepResult("My Panel", "k", [1, 2])
    result.add_point("a", 0.5)
    result.add_point("a", None)
    result.notes.append("missing point = skipped")
    text = result.render_text()
    assert "My Panel" in text and "-" in text and "note:" in text
    md = result.render_markdown()
    assert md.startswith("### My Panel")
    assert "| k | a |" in md
