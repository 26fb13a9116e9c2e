"""Machine-speed probe: rescale a measured time to a fixed nominal speed.

The benchmark runs on a few cores of a shared host whose speed swings by up to
half within seconds and drifts over minutes; the CPU time of a pass follows
its wall time, so neither is steady on its own. While a ``SpeedProbe`` is
open, a ``SIGALRM`` timer interrupts the process every ``INTERVAL_S`` and runs
a fixed pure-Python kernel, recording how long it took. The mean kernel time
over a timed section says how fast the machine ran during that section, and
``SpeedProbe.timed`` reports

    (wall time - time spent in the probes) * (NOMINAL_PROBE_S / mean probe time) ** SENSITIVITY

that is, the seconds the same work takes on a machine on which the kernel
takes ``NOMINAL_PROBE_S``. Work the program saves shows in full; a slower or
faster host shows in the probe and cancels out.

``SENSITIVITY`` is measured, not derived: the small kernel runs from the
first-level cache, while the program misses it, so a slow phase of the host
slows the program more than the kernel. Over slow and fast phases of a 2-core
sandbox, pass times of plans226, bigtargets and demo grew as the kernel's
time to a power of 1.3 to 1.75 (fits of 8 to 10 passes each); with a power
of 1, a phase 1.5x slower in wall time still read about 15% slower.

Only the standard library is imported, so a fresh interpreter can open a
probe before it imports the package whose set-up it times. Signals reach the
main thread only, so a probe is opened and read there.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
NOMINAL_PROBE_S = 1.3e-4  # about the kernel's time amid the program on a 2-core sandbox
SENSITIVITY = 1.5
KERNEL_STEPS = 1500


def _kernel() -> int:
    total = 0
    for i in range(KERNEL_STEPS):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the machine's speed while open; times calls at nominal speed."""

    def __init__(self):
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """(seconds of ``fn(*args)`` at nominal speed, wall seconds, its value)."""
        first = len(self.durations)
        start = time.perf_counter()
        value = fn(*args)
        wall = time.perf_counter() - start
        probes = self.durations[first:]
        work = wall - sum(probes)
        if not probes:  # shorter than one interval: sample right after it
            self._sample()
            probes = self.durations[first:]
        speed = NOMINAL_PROBE_S / statistics.fmean(probes)
        return work * speed**SENSITIVITY, wall, value
