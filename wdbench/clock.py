"""Program time measured against a probe of the machine's speed.

The benchmark machine is shared: its speed changes from one stretch of tens
of milliseconds to the next, for seconds at a time the same code runs up to
1.7 times slower, and raw medians of whole runs spread by 20%.  `ProbeClock`
measures that speed while the program runs.  A timer signal interrupts the
process every INTERVAL_S seconds and times a fixed probe of exact-fraction
and dictionary work, the kind of interpreter work wdexp does.  The garbage
collector is off during a probe, so collections the program's allocations
call for run in program time.

The probes' own time is left out of a timed interval, and each stretch of
program time between two probes is scaled by NOMINAL_PROBE_S over the
median of the WINDOW probes around it.  The median follows the machine's
changes of speed, which last many probes, but ignores a minority of probes
that were delayed, whether by the host or by the program, so one slow
probe cannot erase the program time before it.  `check.py` adds known work
to rounds and confirms that corrected times grow by its share.  A corrected
time is what the interval would have taken on a machine where the probe
takes NOMINAL_PROBE_S, about the probe's full-speed time on the machine the
baseline was recorded on (Intel Xeon, 2 vCPUs, CPython 3.11).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_PROBE_S = 130e-6
INTERVAL_S = 0.01
WINDOW = 9


def _probe_work() -> Fraction:
    d: dict[int, int] = {}
    x = Fraction(0)
    for k in range(60):
        d[k % 17] = d.get(k % 17, 0) + k * k
        x += Fraction(k % 5 + 1, k % 7 + 1)
    return x


class ProbeClock:
    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._speed: list[float] = []  # median probe time around each probe

    def _probe(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _probe_work()
        self.lengths.append(perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.lengths:
            raise RuntimeError("no probe ran; the run is shorter than the probe interval")
        half, n = WINDOW // 2, len(self.lengths)
        self._speed = [statistics.median(self.lengths[max(0, i - half):min(n, i + half + 1)])
                       for i in range(n)]

    def slowdown(self) -> float:
        """Median probe time over the nominal one: how much slower than
        the nominal machine this run went."""
        return statistics.median(self.lengths) / NOMINAL_PROBE_S

    def corrected(self, start: float, end: float) -> float:
        """Program time between perf_counter readings `start` and `end`,
        scaled to the nominal machine speed.  Call after stop()."""
        starts, lengths, speed = self.starts, self.lengths, self._speed
        i = bisect.bisect_left(starts, start)
        if i > 0 and starts[i - 1] + lengths[i - 1] > start:
            # `start` was read inside a probe; its rest is not program time.
            start = starts[i - 1] + lengths[i - 1]
        total = 0.0
        while i < len(starts) and starts[i] < end:
            total += max(0.0, starts[i] - start) * NOMINAL_PROBE_S / speed[i]
            start = starts[i] + lengths[i]
            i += 1
        # The tail after the last probe goes at the speed around the next one.
        total += max(0.0, end - start) * NOMINAL_PROBE_S / speed[min(i, len(speed) - 1)]
        return total
