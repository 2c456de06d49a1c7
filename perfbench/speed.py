"""Scale measured times to a reference interpreter speed.

The hosts this benchmark runs on are shared, and the speed at which they
run the same Python code changes by tens of percent within seconds. A
child therefore runs a fixed pure-Python kernel (Fraction, dict and tuple
work, like the library's) every CALIBRATE_EVERY_S of the time it measures,
and scales each stretch of measured time by REFERENCE_S over the time of
the kernel run that ends the stretch (SpeedClock). Between ops the kernel
runs after every CALIBRATE_EVERY_S of op time. Set-up and ops longer than
CALIBRATE_EVERY_S have no such gaps, so there a timer signal runs the
kernel from a signal handler, which Python calls between bytecodes; the
time in the handler is left out.

Measured on 2 shared CPUs with Python 3.11, spreads being interquartile
range over median across five or more seeds:
* the unit-to-unit variation of ops_per_s fell from 8-10% wall-clock to
  1-2% scaled, on every workload;
* scaling each op by the median of the 7 kernel runs around it instead
  lagged the host's short slow spells, which make up the latency tail:
  flag_agree's op_p99_ms spread 18% that way and 5% this way;
* interrupting short ops with the timer too gave 13% for flag_agree's
  op_p99_ms against 5% (6 seeds, the two runs interleaved), while
  scaling long ops by the kernel run after them alone left coset_sweep's
  ops_per_s spread at 3-5% against 2-3% with the timer;
* kernel runs just before and after set-up did not track it, as the
  host's speed changes within a set-up; setup_s spread 10-20% wall-clock
  and 1-5% scaled, up to 10% on flag_count.
The kernel is benchmark code, so a change to the library does not move it;
it adds about 10% to a child's wall time but nothing to measured times.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

CALIBRATE_EVERY_S = 0.005
REFERENCE_S = 5e-4  # kernel time that defines the reference speed


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
        table[i, i % 7] = acc.numerator % 97, tuple(range(i % 9))
    return perf_counter() - t0


class SpeedClock:
    """Kernel runs, and the scaling of timed intervals by them.

    While armed, a timer signal runs the kernel every CALIBRATE_EVERY_S
    from a signal handler, which Python calls between bytecodes. The clock
    is armed through set-up and through each op, but an op shorter than
    CALIBRATE_EVERY_S is never interrupted: for ops, after_op() runs the
    kernel between them once CALIBRATE_EVERY_S of op time has passed.
    """

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # kernel run start, end, time
        self._since = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        k = kernel()
        self.marks.append((t0, perf_counter(), k))
        self._since = 0.0

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def after_op(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= CALIBRATE_EVERY_S:
            self._sample()

    def stop(self) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scaled(self, intervals) -> list[float]:
        """Each (start, end) perf_counter interval at reference speed: less
        the kernel runs inside it, each part scaled by REFERENCE_S over the
        time of the kernel run that ends it. The intervals are in order, do
        not overlap and end before stop()."""
        marks = self.marks
        out = []
        j = 0
        for t0, t1 in intervals:
            while marks[j][1] <= t0:  # kernel runs before the interval
                j += 1
            total, since = 0.0, t0
            while marks[j][0] < t1:  # kernel runs inside it
                h0, h1, k = marks[j]
                total += (h0 - since) * REFERENCE_S / k
                since = h1
                j += 1
            out.append(total + (t1 - since) * REFERENCE_S / marks[j][2])
        return out
