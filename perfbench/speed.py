"""A fixed reference workload that tracks the machine's speed during a run.

The 2-CPU virtual machine these figures were set on changes speed by up to
a third over seconds to minutes, and the change moves every timing of a run
together.  The benchmark therefore times a short, fixed piece of work
between the timed calls, at least every ``SEGMENT_S`` seconds, and scales
each call's time by how fast that reference ran around it: a call made
while the reference took 1.2 times ``REFERENCE_S`` is divided by 1.2.  The
reference lives in
the benchmark, not in the library, so a change to the library moves the
scaled timings exactly as it moves the measured ones.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the reference takes at the speed the scaled timings are expressed
# in: its median on the 2-CPU Xeon builder the bounds were set on.
REFERENCE_S = 0.0046

# A new segment, bracketed by two timings of the reference, starts once a
# segment holds this many seconds of timed calls.
SEGMENT_S = 0.2

_rng = np.random.default_rng(2025)
_TINY = _rng.random((96, 5))
_SMALL = _rng.random(4096)
_SMALL_INDEX = _rng.integers(0, _SMALL.size, _SMALL.size)
# 16 MiB, past the per-core L2, so the reference also moves memory.
_LARGE = _rng.random(1 << 21)
_LARGE_INDEX = _rng.integers(0, _LARGE.size, 1 << 16)


def _reference_work() -> float:
    """About equal parts of the kinds of work the samplers do.

    An interpreter loop, numpy calls on tiny arrays (call overhead, as in a
    per-candidate median), sorts of a cache-resident array, and a gather
    and scatter over a 16 MiB array.
    """
    total = 0.0
    for i in range(15000):
        total += i * i % 7
    for row in _TINY:
        total += float(np.median(row))
    for _ in range(24):
        np.sort(_SMALL[_SMALL_INDEX])
    for _ in range(5):
        np.add.at(_SMALL, _LARGE_INDEX & 4095, 0.0)
        total += _LARGE[_LARGE_INDEX].sum()
    return total


class SpeedReference:
    """Times the reference between timed calls and scales the calls by it."""

    def __init__(self) -> None:
        self._reference_s: list[float] = []
        self._marked_at = 0.0

    def mark(self) -> None:
        """Time the reference once; this closes a segment and opens the next.

        The reference runs once untimed first, so that the timed run finds
        its own data in cache whatever the timed calls left there; a change
        to the library's memory footprint then does not move the reference.
        """
        _reference_work()
        start = time.perf_counter()
        _reference_work()
        self._marked_at = time.perf_counter()
        self._reference_s.append(self._marked_at - start)

    def maybe_mark(self) -> None:
        if time.perf_counter() - self._marked_at >= SEGMENT_S:
            self.mark()

    @property
    def segment(self) -> int:
        """Index of the segment a call made now belongs to."""
        return len(self._reference_s) - 1

    def factors(self) -> list[float]:
        """Scale of each segment: ``REFERENCE_S`` over the nearby reference.

        The nearby reference is the median of the four timings around the
        segment: the two that bracket it and one more on each side.  A
        single timing is sometimes stretched by an interrupt that says
        nothing about the speed around it, and a median of four ignores it.
        """
        s = np.asarray(self._reference_s)
        return [REFERENCE_S / float(np.median(s[max(0, j - 1):j + 3]))
                for j in range(len(s) - 1)]

    def median_factor(self) -> float:
        return float(np.median(self.factors()))
