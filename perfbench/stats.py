"""Pure helpers of the benchmark harness: latency summaries, self time
over a span tree, and the classification of an operation's outcome.

Nothing here imports mqg; the functions are unit-tested in
perfbench/tests/test_stats.py.
"""
from __future__ import annotations

import statistics
import time

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile that has at least TAIL_BEYOND samples above
    it.

    Returns (value, percentile, sample_count).  With N samples the value
    is the (N - TAIL_BEYOND)-th smallest, i.e. percentile
    100 * (N - TAIL_BEYOND) / N; when N <= TAIL_BEYOND no such percentile
    exists and the maximum is returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND  # exactly TAIL_BEYOND samples lie above xs[k - 1]
    return xs[k - 1], 100.0 * k / n, n


class SelfTimer:
    """Self time over a tree of nested spans, accumulated online.

    `push(name)` opens a span and `pop()` closes the innermost one; a
    span's self time is its duration minus the time covered by its
    direct children.  Totals are kept per name as [calls, total_s,
    self_s].  `clock` is injectable so the arithmetic can be tested with
    synthetic times.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, start, child_s]
        self.totals = {}

    def push(self, name: str) -> float:
        start = self.clock()
        self.stack.append([name, start, 0.0])
        return start

    def pop(self):
        """Close the innermost span; returns (name, start, end)."""
        end = self.clock()
        name, start, child = self.stack.pop()
        dur = end - start
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return name, start, end


TRACEBACK_MARK = "Traceback (most recent call last)"
MISSING = "<no reference>"


def classify_outcome(expected_exit: int, exit_code: int, stderr: str,
                     stdout_digest: str | None, expected_digest: str | None):
    """Why an operation failed, or None when it met its contract.

    Checked in order: an uncaught exception (a traceback on stderr), an
    exit code other than the documented one, then the output digest.
    `expected_digest` is None only for operations whose output is not
    digested (the documented error cases); callers pass MISSING when a
    digest is required but the reference has none.
    """
    if TRACEBACK_MARK in stderr:
        return "traceback"
    if exit_code != expected_exit:
        return "exit_code"
    if expected_digest == MISSING:
        return "no reference"
    if expected_digest is not None and stdout_digest != expected_digest:
        return "digest"
    return None
