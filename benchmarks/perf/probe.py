"""Machine-speed probe: host times in reference seconds.

The box this benchmark was sized on is a shared two-core VM whose speed
moves between regimes that last from seconds to minutes and slow
pure-Python and NumPy code alike by 1.3x or more.  Raw wall-clock (and
CPU) time of an identical repetition then scatters by 15-30 % between
quartiles, more than any regression bound worth having, and the median
of a few back-to-back repetitions inherits the regime they ran in.

So the measuring child samples its own speed while it works.  An
interval timer interrupts the (single) thread 25 times a second and runs
a fixed ~1.3 ms kernel of the two kinds of work the program does — an
interpreter-bound loop and small float32 matmuls — and every host time
is reported as

    (measured seconds - seconds spent in the probe)
        * REFERENCE_S / (mean kernel time over the same interval)

that is, in seconds of a machine that runs the kernel in
``REFERENCE_S``.  On an idle machine of the reference kind the factor is
1.  Normalised this way, single repetitions scatter by about 5 %.

The kernel and ``REFERENCE_S`` define the unit: changing either makes
numbers incomparable with earlier ones.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional

import numpy as np

__all__ = ["SpeedProbe", "REFERENCE_S", "INTERVAL_S"]

#: Kernel time on the sizing machine in its fast regime (5th percentile
#: of 2000 samples on an otherwise idle run).
REFERENCE_S = 1.30e-3
INTERVAL_S = 0.04

_A = np.ones((8, 288), dtype=np.float32)
_B = np.full((288, 768), 1e-3, dtype=np.float32)


def _kernel() -> None:
    acc = 0
    table = {}
    for i in range(4000):
        acc += i * i
        table[i & 255] = acc
    x = _A
    for _ in range(12):
        x = (x @ _B)[:, :288] * 0.5


class SpeedProbe:
    """Times the kernel on a timer, in the thread that is being measured.

    Python runs signal handlers between bytecodes of the main thread, so
    a sample measures exactly the speed the program is getting at that
    moment and never interrupts a NumPy call half-way.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._running = False

    def _tick(self, _signum, _frame) -> None:
        if self._running:  # a tick that fell due during the kernel
            return
        self._running = True
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        self._running = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mark(self) -> int:
        """Position in the sample list; brackets an interval."""
        return len(self.samples)

    def reference_seconds(self, seconds: float, first: int,
                          last: Optional[int] = None) -> float:
        """``seconds`` measured while ``samples[first:last]`` were taken,
        in reference seconds.  An interval too short to hold a sample
        borrows the mean of every sample taken so far."""
        inside = self.samples[first:last]
        window = inside or self.samples
        if not window:
            return seconds
        return ((seconds - sum(inside)) * REFERENCE_S
                / (sum(window) / len(window)))
