"""The host's speed, sampled while an operation runs.

On a shared host the same operation can take twice as long in one spell as
in another, and a slow spell slows every kind of work in the process
alike.  ``Sampler.run`` times a short fixed pure-Python loop on a wall-clock
timer (``SIGALRM``) while the operation runs.  The operation's wall time,
net of the samples, divided by the mean sample is its cost in loop times:
a ratio taken over the same stretch of time, which stays when the host's
speed changes.
"""

from __future__ import annotations

import signal
import time

LOOP_ITERATIONS = 20_000
INTERVAL_S = 0.02


def loop_time() -> float:
    """Wall time of one pass of the fixed loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


class Sampler:
    """Samples the loop's time during an operation, every ``interval_s`` of wall time.

    With ``interval_s=None`` the loop is timed only just before and just after
    the operation, so that nothing runs inside it (the traced run, whose spans
    would otherwise hold the samples).
    """

    def __init__(self, interval_s: float | None = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.inside_s = 0.0
        self._armed = False
        if interval_s is not None:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if not self._armed:
            return
        self._armed = False  # no sample inside a sample
        start = time.perf_counter()
        self.samples.append(loop_time())
        self.inside_s += time.perf_counter() - start
        self._armed = True

    def run(self, fn):
        """Call ``fn()``; return its output, its wall time net of the samples
        taken inside it, and the mean sample."""
        self.samples = [loop_time()]
        self.inside_s = 0.0
        if self.interval_s is not None:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - start
            self._armed = False
            if self.interval_s is not None:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self.interval_s is None:
            self.samples.append(loop_time())
        return out, elapsed - self.inside_s, sum(self.samples) / len(self.samples)
