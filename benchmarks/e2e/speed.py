"""Machine-speed calibration: every timing at one reference speed.

The benchmark was written on a shared two-vCPU virtual machine whose
speed swings by up to 1.8x with its neighbours' load, for seconds to
minutes at a time, so a whole run can land in a slow spell and no
statistic taken inside the run can tell.  The benchmark therefore times
a fixed interpreter-style loop (:func:`calibrate`) beside everything it
measures and reports each timing scaled to the machine speed at which
that loop takes :data:`REFERENCE` seconds::

    reported = measured * REFERENCE / loop

A change to the program moves the measured time and not the loop, so it
moves the reported time by the same share.
"""

from __future__ import annotations

import time

#: CPU seconds the calibration loop takes at the reference speed; about
#: what it takes on an idle vCPU of a 2.1 GHz Xeon, so reported times
#: read close to wall times there.
REFERENCE = 0.004
_STEPS = 12_000


def _step(regs: list, mem: dict, i: int) -> int:
    r = i & 7
    value = (regs[r - 1] + regs[r] + i) & 0xFFFF
    regs[r] = value
    mem[value & 255] = mem.get((value >> 3) & 255, 0) + 1
    return value & 1


def calibrate() -> float:
    """CPU seconds the calling thread takes for the fixed loop, now.

    Thread CPU time leaves out waits for the interpreter lock, so the
    loop reads the processor's speed even while other threads run.
    """
    regs, mem, taken = [0] * 8, {}, 0
    start = time.thread_time()
    for i in range(_STEPS):
        taken += _step(regs, mem, i)
    return time.thread_time() - start


def reference_factor(before: float, after: float) -> float:
    """Factor taking a time measured between two calibrations that read
    ``before`` and ``after`` to the reference speed."""
    return 2 * REFERENCE / (before + after)
