"""Host calibration: express measured CPU time in reference seconds.

A shared host runs the same code at different speeds from minute to
minute (frequency scaling, a busy sibling hyperthread, cache pressure
from neighbours), and ``time.process_time`` cannot see any of it.  So
between timed calls -- never inside one -- the benchmark runs a fixed
~1 ms pure-Python slice (dict writes, float math, tuple allocation, a
sort) and times it: right before the first call of a window and right
after its last.  Every timed call in the window is scaled by
``reference / measured``: a window that caught the host at half speed
has its calls counted at half their raw time.

The reference slice time is a constant in ``config.json``, measured
once and never re-measured, so figures taken on different hosts, or in
different phases of one host, compare like with like.
"""

from __future__ import annotations

import gc
import statistics
from time import process_time

#: Iterations of the slice loop; sized to take about 1 ms.
SLICE_ITERATIONS = 2400


def calibration_slice(iterations: int = SLICE_ITERATIONS) -> float:
    """The fixed pure-Python workload; returns a value so it cannot be elided."""
    table = {}
    rows = []
    acc = 0.0
    for i in range(iterations):
        x = (i * 0.6180339887498949) % 1.0
        acc += x * x - 0.5 * x
        table[i & 255] = acc
        rows.append((x, i))
    rows.sort()
    return acc + rows[0][0] + len(table)


def time_slice() -> float:
    """CPU seconds one calibration slice takes right now.

    The garbage collector is paused for the slice: a collection
    triggered by its allocations would scan the server's heap and
    charge it to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        # Untimed warm-up: the first pass after a long server call runs
        # ~25% slow on cold caches, which is not host speed.
        calibration_slice(SLICE_ITERATIONS // 4)
        start = process_time()
        calibration_slice()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Collects raw call times in windows and scales each closed window.

    Before a timed call, ``open`` starts a window with a fresh slice if
    none is open; after it, ``add`` records the call's time, and every
    ``window`` calls ``close`` runs a second slice.  The window's calls
    are scaled by ``reference`` over the mean of the two slices that
    bound it, so the slices stay outside every timed call.
    """

    def __init__(self, reference: float, window: int) -> None:
        self.reference = reference
        self.window = window
        self.raw: list[float] = []
        self.normalised: list[float] = []
        #: ``reference / measured`` of every closed window.
        self.factors: list[float] = []
        #: CPU seconds spent in calibration slices.
        self.overhead = 0.0
        self._open: list[float] = []
        self._opened: float | None = None

    def _slice(self) -> float:
        measured = time_slice()
        self.overhead += measured
        return measured

    def open(self) -> None:
        """Start a window unless one is open (call before a timed call)."""
        if self._opened is None:
            self._opened = self._slice()

    def add(self, seconds: float) -> None:
        """Record one timed call (call right after it)."""
        self._open.append(seconds)
        if len(self._open) >= self.window:
            self.close()

    def close(self) -> None:
        """Calibrate and scale the open window, if it holds any call."""
        if not self._open:
            return
        measured = self._slice()
        factor = self.reference / ((self._opened + measured) / 2.0)
        self._opened = None
        self.factors.append(factor)
        self.raw.extend(self._open)
        self.normalised.extend(s * factor for s in self._open)
        self._open.clear()

    def effective_factor(self) -> float:
        """Normalised over raw time: the run's overall calibration factor."""
        raw = sum(self.raw)
        return sum(self.normalised) / raw if raw else 1.0

    def factor_spread(self) -> float:
        """Interquartile range of the window factors over their median."""
        if len(self.factors) < 2:
            return 0.0
        q1, q2, q3 = statistics.quantiles(self.factors, n=4)
        return (q3 - q1) / q2
