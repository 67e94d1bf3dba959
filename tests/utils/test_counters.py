"""Unit tests for the work-count tally."""

from repro.utils.counters import count, counting


def test_count_outside_counting_records_nothing():
    count("candidates", 3)  # no active tally: a no-op, not an error
    with counting() as tally:
        pass
    assert tally == {}


def test_counting_sums_each_name():
    with counting() as tally:
        count("candidates", 2)
        count("candidates", 5)
        count("prefixes_tested", 1)
    count("candidates", 100)  # after the block: not recorded
    assert tally == {"candidates": 7, "prefixes_tested": 1}


def test_nested_counting_is_isolated():
    with counting() as outer:
        count("candidates", 1)
        with counting() as inner:
            count("candidates", 10)
        count("candidates", 2)
    assert inner == {"candidates": 10}
    assert outer == {"candidates": 3}
