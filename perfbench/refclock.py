"""Times normalised to the speed of a fixed reference loop.

The shared host this benchmark was built on changes speed by up to 2x in
episodes of seconds to minutes (a fixed pure-Python loop, timed in 3 s
buckets over 90 s, took from 7.6 to 15.2 ms), and all work slows together.
Raw wall times of two runs of identical code differed by 30%.  So every
timed unit is bracketed by runs of a reference loop of exact Fraction
arithmetic, the same kind of work the program does, and reported as

    raw_ms * REFERENCE_MS / median(reference times of it and its neighbours)

that is, in milliseconds on a machine where the loop takes REFERENCE_MS.
Seven repeats of one operation list gave raw medians of 74-129 ms and
normalised medians no more than 11% apart.  A change to the program moves
the normalised time; a change in machine speed cancels.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the loop's time on this benchmark's reference machine (2 vCPUs, Python 3.11)
REFERENCE_MS = 1.5
REFERENCE_RUNS = 3
WINDOW_MS = 500.0


def reference_loop() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 500):
        acc += Fraction(k * k + 1, 2 * k + 3)
    return acc


def reference_ms() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t0) * 1e3


def timed(fn, *args):
    """``(result, raw_ms, reference times)`` of ``fn(*args)``, with REFERENCE_RUNS
    runs of the reference loop just before and just after it."""
    refs = [reference_ms() for _ in range(REFERENCE_RUNS)]
    t0 = time.perf_counter()
    result = fn(*args)
    raw_ms = (time.perf_counter() - t0) * 1e3
    return result, raw_ms, refs + [reference_ms() for _ in range(REFERENCE_RUNS)]


def add_scales(records: list[dict]) -> None:
    """Set ``record["scale"]`` from the reference times (``record["ref"]``) of the
    record and of its neighbours that ran within WINDOW_MS of it: one run of the
    loop can be disturbed, while an episode of machine speed lasts seconds."""
    for i, record in enumerate(records):
        near = list(record["ref"])
        for step in (-1, 1):
            j, gap = i + step, 0.0
            while 0 <= j < len(records) and gap + records[j]["raw_ms"] <= WINDOW_MS:
                gap += records[j]["raw_ms"]
                near += records[j]["ref"]
                j += step
        record["scale"] = REFERENCE_MS / statistics.median(near)
