"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared host the same pure-Python and numpy code runs up to twice
as slow in some stretches as in others, in phases several seconds long.
``run.py`` times this kernel just before and just after every timed
pass and every cold start, and reports each of those times as a multiple
of the kernel's time next to it, scaled by ``REFERENCE_S``.  A host that
slows down slows the kernel as well, and the ratio stays put; a program
that slows down does not slow the kernel, and the ratio grows.

The kernel imports nothing from ``amecodes``, so no change to the
program can move it.  It mixes, in about equal shares, the kinds of work
the program does: an interpreter loop over ints and a dict (the parsers,
the per-subset loops), many numpy calls on small arrays (the dense
oracle, the site-subset scans), transcendental functions over float
arrays (the repeater cost curves), and integer arithmetic over 8 MiB
(the weight-class arrays).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the reference host (see README.md); it
# turns ratios back into seconds and has no effect on any comparison
REFERENCE_S = 0.040
REPEATS = 3  # kernel runs per calibration; their median discards a stray slow one

_SMALL = np.arange(64, dtype=np.int64)
_FLOATS = np.linspace(0.01, 50.0, 100_000)
_ARRAY = np.arange(1 << 20, dtype=np.int64)  # 8 MiB


def _kernel() -> int:
    acc = 0
    table = {}
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    for i in range(1_500):
        acc += int(np.count_nonzero((_SMALL * (i % 7 + 1) + acc) % 5))
    total = 0.0
    for j in range(6):
        p = 1.0 - 0.98 * np.exp(-_FLOATS / (20.0 + j))
        total += float((p**13 * (1.0 - p)).sum())
    acc += int(np.count_nonzero((_ARRAY * 7 + acc) % 1_009 == 5))
    return acc + len(table) + int(total)


def calibrate() -> float:
    """The host's current CPU time for one kernel run, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        _kernel()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def trimmed_mean(values) -> float:
    """Mean of the middle 60% of ``values``.  Unlike the median it does not
    jump from one mode to the other when the samples are bimodal, as the
    passes that allocate the largest weight-class arrays are."""
    ordered = sorted(values)
    cut = len(ordered) // 5
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def normalised(elapsed: list[float], hosts: list[float]) -> float:
    """CPU times ``elapsed`` in reference seconds: their trimmed mean over
    the trimmed mean of the calibrations ``hosts`` of the same run."""
    return REFERENCE_S * trimmed_mean(elapsed) / trimmed_mean(hosts)
