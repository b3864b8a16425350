"""Calibration kernel: a fixed amount of numpy and pure-Python work.

The machine this benchmark was tuned on drifts in slow phases of several
seconds that slow numpy and the interpreter together (see README.md).  The
harness runs this kernel right before every timed operation and reports each
operation time also as a multiple of the kernel time (unit ``ref``), which
cancels the drift.  The kernel must never change: every ``*_ref`` figure is
measured in its units.  It does not touch karamata_kit.
"""

from time import perf_counter

import numpy as np

# 16 Ki doubles (128 KiB) stay in the L2 cache, so the ufunc pass measures
# the core, not the memory system
_ARRAY = np.linspace(0.0, 1.0, 1 << 14)
_OUT = np.empty_like(_ARRAY)


def calibrate() -> float:
    """Run the kernel once and return its wall time in seconds (about 4 ms)."""
    t0 = perf_counter()
    np.sin(_ARRAY, out=_OUT)
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return perf_counter() - t0
