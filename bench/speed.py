"""Reference seconds: CPU time weighted by the CPU's speed at the time.

The host's CPU speed drifts by half or more within seconds and changes
within milliseconds, as other work on the machine comes and goes, and wall
times of the same job differ by 30% from one run to the next.  So the
benchmark reports times in reference seconds: CPU time multiplied by the
CPU's speed relative to a reference CPU, on which the speed loop below
takes REFERENCE_S of CPU time.  A timer signal samples the speed every
EVERY seconds, inside long calls too.  The benchmark pins itself and every
command it starts to one CPU, so the samples describe the CPU the measured
work runs on.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

MASK81 = (1 << 81) - 1
REFERENCE_S = 0.0006  # CPU seconds of one speed loop on the reference CPU
EVERY = 0.02  # seconds between samples
# fixed data for the loop: 24 six-point masks on 81 points, a permutation
LINES = [sum(1 << (j * 7 + 3 * k * k) % 81 for k in range(6)) for j in range(24)]
PERM = tuple(i * 37 % 81 for i in range(81))


def members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def speed_loop() -> float:
    """CPU seconds a fixed loop takes now.  Half of it is integer bit
    arithmetic, half builds and counts over lists, dicts, sets and tuples,
    as pg552 does: under contention for the CPU the first part slows less
    than pg552 and the second more, and their mix tracks it best."""
    t0 = time.thread_time()
    acc = 0
    table = {}
    for i in range(60):
        x = (i * 0x9E3779B97F4A7C15) & MASK81
        while x:
            low = x & -x
            acc += low.bit_length()
            x ^= low
        table[i & 255] = acc
    adj = [0] * 81
    for m in LINES:
        for p in members(m):
            adj[p] |= m
    counts: dict[int, int] = {}
    for m in LINES[:10]:
        for p in members(m):
            for u in members(adj[p]):
                counts[u] = counts.get(u, 0) + 1
    {sum(1 << PERM[p] for p in members(m)) for m in LINES}
    sorted(tuple(PERM[x] for x in PERM[i:] + PERM[:i]) for i in range(4))
    return time.thread_time() - t0


class Clock:
    """Integrates this thread's CPU time, weighted by the sampled speed, into
    reference seconds; the samples' own CPU time is left out.  A context
    manager: the timer runs inside the ``with`` block only."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._ticks = 0
        self._work = 0.0
        self._cpu = 0.0

    def __enter__(self) -> "Clock":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_) -> None:
        cpu = time.thread_time()
        speed = REFERENCE_S / speed_loop()
        if self.speeds:
            self._work += (cpu - self._cpu) * (self.speeds[-1] + speed) / 2
        self.speeds.append(speed)
        self.times.append(time.perf_counter())
        self._cpu = time.thread_time()
        self._ticks += 1

    def work(self) -> float:
        """Reference seconds this thread has worked so far."""
        while True:  # a tick may land between the reads; then read again
            ticks = self._ticks
            value = self._work + (time.thread_time() - self._cpu) * self.speeds[-1]
            if ticks == self._ticks:
                return value

    def mean_speed(self, t0: float, t1: float) -> float:
        """Mean speed sampled from t0 to t1 (wall clock), or the latest
        sample before t1 when none was taken in between."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        return statistics.fmean(self.speeds[i:j]) if j > i else self.speeds[max(j - 1, 0)]
