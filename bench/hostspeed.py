"""Host-speed calibration, so that run times read in nominal-host seconds.

On a shared host the throughput of one vCPU can swing by up to half over
seconds to minutes, with the load other tenants put on the same cores: on
a 2-vCPU virtual machine that reported no steal time, one conformal-check
input took 2.25 s in one run and 3.26 s a few seconds later, while the
bound on a timing is 25%. Raw wall time cannot resolve that bound there, so the
benchmark times a short fixed pure-Python loop every 0.1 s while the
workload runs, in a SIGALRM handler (the loop runs on the same vCPU, between
the workload's bytecodes), and scales each measured interval by
``NOMINAL_S`` over the loop's mean time during it. The loops' own time
(about 5%) is subtracted first. On modes-meshes, over ten seeds, this took
the spread of a run's median iteration time (quartile distance over median)
from 0.26 in wall time to 0.11 in one set of runs and from 0.16 to 0.05 in
another.

The correction is not exact, because not all work slows alike: per
iteration, log wall time moved 1.36 times as much as log loop time on
modes-meshes (interpreter and memory bound), 0.73 times on collar-maps and
0.54 times on headline (BLAS bound). Scaled times therefore still follow
the host a little, and when the host was calm headline's scaled spread
(0.08) was above its wall spread (0.06).

The loop is the benchmark's own code and touches nothing of evosq, so a
change to the program moves the scaled time as it moves wall time. Raw wall
times are recorded next to the scaled ones.
"""

import contextlib
import signal
import statistics
import time

NOMINAL_S = 0.005  # the unit: seconds on a host where one calibration loop takes 5 ms
INTERVAL_S = 0.1
LOOP_STEPS = 30_000


def calibration_loop():
    """Fixed interpreter work: integer arithmetic and dict stores."""
    acc, table = 0, {}
    for i in range(LOOP_STEPS):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


class HostClock:
    """Times ``calibration_loop`` on demand and, while armed, every ``INTERVAL_S``."""

    def __init__(self):
        self.samples = []  # (start, seconds) of every loop run

    def sample(self):
        start = time.perf_counter()
        calibration_loop()
        self.samples.append((start, time.perf_counter() - start))

    def _tick(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def armed(self, on=True):
        """Sample on a timer inside the block (only where ``on``)."""
        if not on:
            yield self
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, start, end):
        """Seconds spent in loops that started in ``[start, end)``."""
        return sum(s for t, s in self.samples if start <= t < end)

    def loop_s(self, start, end):
        """Mean loop time over ``[start, end]``, with the nearest sample on each side."""
        before = [i for i, (t, _) in enumerate(self.samples) if t < start]
        after = [i for i, (t, _) in enumerate(self.samples) if t > end]
        lo = before[-1] if before else 0
        hi = after[0] + 1 if after else len(self.samples)
        return statistics.fmean(s for _, s in self.samples[lo:hi])

    def nominal(self, seconds, start, end):
        """``seconds`` measured over ``[start, end]``, scaled to the nominal host."""
        return seconds * NOMINAL_S / self.loop_s(start, end)
