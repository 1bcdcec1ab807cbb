"""Sample the host's speed while the benchmark runs, and correct times for it.

On a shared host the benchmark's CPU runs at one of two speeds, about 1.7x
apart, and switches between them every few milliseconds to seconds under
load from outside the machine; the share of time spent slow drifts from
minute to minute.  Wall times then follow the neighbours' load rather than
the program.

``SpeedProbe`` runs a fixed pure-Python loop from a ``SIGALRM`` interval
timer every ``PERIOD_S`` seconds and records when it ran and how long it
took.  A stretch of wall time is corrected in two steps:

- the probes that ran inside it are subtracted, since they are not the
  program's work;
- the rest is divided by the stretch's slowdown: the mean probe time in and
  around it over ``REF_S``, the probe's time when the host runs at full
  speed.

The result is the time the stretch takes where the probe loop takes
``REF_S``.  On the machine ``REF_S`` was taken on (a 2-vCPU KVM guest on a
2.0 GHz Xeon) that is the time at its fast speed; elsewhere it is the same
figure on the same scale.  The handler runs between Python bytecodes only,
so during a long call into C it waits, and the probes sample that stretch
unevenly; they still sample the same CPU at nearly the same moments as the
program.  The probe also runs slower while the program has just filled the
caches with its own data, so the correction depends a little on the
program's memory traffic as well as on the host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01
LOOP = 2000
REF_S = 110e-6
# probes either side of a stretch that also count toward its slowdown, so a
# stretch shorter than PERIOD_S still has some
MARGIN = 3


class SpeedProbe:
    """Context manager that samples the host's speed from SIGALRM."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old_handler = None

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        d = {}
        for i in range(LOOP):
            d[i & 255] = i
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def stretch(self, t0: float, t1: float) -> tuple[float, float]:
        """Probe time inside ``[t0, t1]``, and the slowdown in and around it."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        near = self.durations[max(0, i - MARGIN):j + MARGIN]
        if not near:
            raise ValueError("no probe ran near the stretch")
        return sum(self.durations[i:j]), statistics.fmean(near) / REF_S

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds ``[t0, t1]`` takes at the reference speed, without probes."""
        inside, slowdown = self.stretch(t0, t1)
        return (t1 - t0 - inside) / slowdown

    def slowdown(self) -> float:
        """Mean slowdown over every probe so far."""
        return statistics.fmean(self.durations) / REF_S
