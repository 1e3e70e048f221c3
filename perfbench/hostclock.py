"""Timings scaled to a reference host speed, by an interleaved calibration loop.

The benchmark runs on a few cores of a shared host whose speed moves by
tens of percent from one second to the next, and by as much between runs.
Every piece of code slows down together: a fixed pure-Python loop timed
right next to a workload op moves with it, so the ratio of the two is many
times steadier than either.

A ``HostClock`` times that loop (``calibrate``: the median of eight runs of
it, about 4 ms in all) at the start of a pass, between ops whenever
``CALIBRATE_EVERY_S`` has passed since the last one, and at the end of the
pass.  The stretch between two calibrations is a
*segment*; its speed factor is ``REFERENCE_S`` over the mean of the two
calibrations around it.  An op's scaled latency is its raw latency times the
factor of the segment it started in, and a pass's scaled time is the sum of
its segments' raw durations times their factors; calibration time itself is
in neither.  Scaled times are seconds on a host where the loop takes
``REFERENCE_S``; the raw times and the loop's own median are kept, and
reported per run, so the factor can be checked.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.0005  # the loop's time on the reference host
CALIBRATE_EVERY_S = 0.1
_REPEATS = 8  # loops per calibration; their median is the reading
_LOOP_STEPS = 1_500
_P = 32003


def _loop() -> int:
    """Fixed pure-Python work in the library's own idiom: modular row
    arithmetic on lists and counting in a dict keyed by tuples."""
    row = list(range(1, 65))
    seen: dict[tuple[int, int], int] = {}
    for i in range(_LOOP_STEPS):
        j = i & 63
        x = (row[j] * 7919 + row[(j + 1) & 63] + i) % _P
        row[j] = x
        key = (j, x & 15)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def calibrate() -> float:
    """Seconds one run of the calibration loop takes now: the median of
    ``_REPEATS`` runs, so that one run interrupted by the scheduler does not
    set the factor."""
    times = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def factor(cal_before: float, cal_after: float) -> float:
    return REFERENCE_S / ((cal_before + cal_after) / 2)


class HostClock:
    """Calibrations and segments of one pass; see the module docstring."""

    def __init__(self):
        self.calibrations: list[float] = []  # every calibration of the run

    def start(self):
        self._cal: list[float] = []
        self._seg_s: list[float] = []  # raw duration of each segment
        self._op_seg: list[int] = []  # per op: the segment it started in
        self._calibrate()

    def _calibrate(self):
        now = perf_counter()
        if self._cal:
            self._seg_s.append(now - self._seg_start)
        c = calibrate()
        self._cal.append(c)
        self.calibrations.append(c)
        self._seg_start = perf_counter()

    def op(self):
        """Call at the start of each op, before it is timed."""
        if perf_counter() - self._seg_start >= CALIBRATE_EVERY_S:
            self._calibrate()
        self._op_seg.append(len(self._cal) - 1)

    def finish(self, latencies: list[float]) -> tuple[float, float, list[float]]:
        """End the pass: (raw pass s, scaled pass s, scaled op latencies)."""
        self._calibrate()
        f = [factor(a, b) for a, b in zip(self._cal, self._cal[1:])]
        raw = sum(self._seg_s)
        scaled = sum(s * k for s, k in zip(self._seg_s, f))
        return raw, scaled, [t * f[s] for t, s in zip(latencies, self._op_seg)]

    def median_calibration(self) -> float:
        return statistics.median(self.calibrations)
