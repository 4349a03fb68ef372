"""Unit tests of the benchmark harness's own logic.

    python3 -m pytest perfbench/tests
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import MISSING, SelfTimer, classify_outcome, tail  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(100, 0, -1))  # 1..100, unsorted
    value, pct, n = tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10


def test_tail_small_samples():
    value, pct, n = tail([0.3, 0.1, 0.2] + [0.05] * 8)  # 11 samples
    assert (value, n) == (0.05, 11)
    assert pct == 100.0 / 11
    assert tail([2.0, 1.0]) == (2.0, 100.0, 2)  # no percentile has 10 beyond
    assert tail([]) == (0.0, 0.0, 0)


def test_self_time_over_synthetic_span_tree():
    # A [0, 10] with children B [1, 4] and C [5, 6]; B has child D [2, 3]
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 10])
    t = SelfTimer(clock=lambda: next(ticks))
    t.push("A")
    t.push("B")
    t.push("D")
    assert t.pop() == ("D", 2, 3)
    t.pop()
    t.push("C")
    t.pop()
    t.pop()
    assert t.totals == {"A": [1, 10, 6], "B": [1, 3, 2], "D": [1, 1, 1],
                        "C": [1, 1, 1]}


def test_self_time_accumulates_repeated_names():
    ticks = iter([0, 1, 2, 3, 5, 9])
    t = SelfTimer(clock=lambda: next(ticks))
    t.push("op")
    for _ in range(2):
        t.push("mul")
        t.pop()
    t.pop()
    # op [0, 9]; mul [1, 2] and [3, 5]
    assert t.totals["mul"] == [2, 3, 3]
    assert t.totals["op"] == [1, 9, 6]


def test_classify_outcome():
    tb = "Traceback (most recent call last):\n  ...\nTypeError: x\n"
    # an uncaught exception fails even with the documented exit code
    assert classify_outcome(1, 1, tb, None, None) == "traceback"
    assert classify_outcome(2, 1, "error: bad\n", None, None) == "exit_code"
    assert classify_outcome(0, 0, "", "abc", "abd") == "digest"
    assert classify_outcome(0, 0, "", "abc", MISSING) == "no reference"
    assert classify_outcome(0, 0, "", "abc", "abc") is None
    # documented error case: exit code checked, output not digested
    assert classify_outcome(1, 1, "FAIL: x\n", "abc", None) is None
