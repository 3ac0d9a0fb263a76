"""Machine-speed yardstick: rescales measured times to a fixed reference speed.

On a shared virtual machine the speed of the CPU drifts by up to a factor of
two over seconds, which swamps differences between commits.  The worker
therefore runs ``calibrate``, a fixed interpreter-bound min-plus relaxation
that shares no code with regcount, before and after each stretch of measured
work, and multiplies that work's measured time by ``REFERENCE_S`` over the
mean of the two calibration times.  A reported time is the time the work
would take at the speed where ``calibrate`` takes ``REFERENCE_S``; a change
to regcount moves it, a change in machine speed mostly does not.
"""

from __future__ import annotations

import time

#: Calibration time that defines the reference speed.
REFERENCE_S = 0.004
#: Rounds of the calibration relaxation (about 4 ms on a 2-vCPU cloud VM).
ROUNDS = 400
_BIG = 1 << 60


def calibrate() -> float:
    """Seconds taken by a fixed amount of interpreter work."""
    started = time.perf_counter()
    row = [_BIG] * 32
    row[0] = 0
    for _ in range(ROUNDS):
        new = [_BIG] * 32
        for q in range(32):
            c = row[q]
            if c == _BIG:
                continue
            for s in (1, 3, 5, 7):
                t = (q * s + 1) & 31
                if c + s < new[t]:
                    new[t] = c + s
        row = new
    return time.perf_counter() - started


class Yardstick:
    """Collects raw times between calibrations and rescales them in batches."""

    def __init__(self):
        self.last = calibrate()
        self.pending: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)

    def recalibrate(self) -> None:
        now = calibrate()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.scaled.extend(x * factor for x in self.pending)
        self.pending.clear()
        self.last = now
