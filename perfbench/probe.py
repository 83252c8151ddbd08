"""Frozen machine-speed probe for speed-normalised wall metrics.

The loop below is stdlib-only (heap, dict and tuple churn, the same
mix of operations the simulator's event queue and controllers spend
their time on) and imports nothing from ``repro``: no change to the
program can move it, so its rate measures only how fast this machine
runs Python right now.  The benchmark runs it in short rounds around
and inside the timed pieces of work (:func:`timed`) and scales every
wall-clock metric to ``P_NOMINAL``, the rate this loop reached on the
reference machine.

Do not edit the loop or ``P_NOMINAL``: both are part of every metric's
definition, and changing either makes old and new results incomparable.
"""

import heapq
import signal
import statistics
import time

#: Probe rate (operations/s) on the reference machine: a 2-core x86-64
#: VM running CPython 3.11, median of 200 ``probe()`` calls.
P_NOMINAL = 865000.0

#: Operations in one probe round (about 5 ms at ``P_NOMINAL``).
ROUND_OPS = 4000


def probe_round(ops: int = ROUND_OPS) -> float:
    """Run ``ops`` heap/dict/tuple operations; return operations/s."""
    heap = []
    table = {}
    push, pop = heapq.heappush, heapq.heappop
    started = time.perf_counter()
    for i in range(ops):
        key = (i * 7919) % 1021
        push(heap, (key, i, (key, i)))
        table[key] = table.get(key, 0) + 1
        if len(heap) > 64:
            old, _, _ = pop(heap)
            count = table[old] - 1
            if count:
                table[old] = count
            else:
                del table[old]
    return ops / (time.perf_counter() - started)


def probe(rounds: int = 5) -> float:
    """Median rate of ``rounds`` back-to-back probe rounds."""
    return statistics.median(probe_round() for _ in range(rounds))


class SpeedSampler:
    """Probe rounds interleaved *inside* a timed step.

    While active, an interval timer interrupts the main thread every
    ``interval_s`` and runs one short probe round in the signal
    handler, so the speed samples come from the same seconds as the
    work.  The handler's own time is kept in ``probe_s`` and left out
    of the step's wall time.  Forked workers inherit no interval timer,
    so only the process that armed it is probed.
    """

    def __init__(self, interval_s: float = 0.05, ops: int = 2000) -> None:
        self.interval_s = interval_s
        self.ops = ops
        self.rates = []
        self.probe_s = 0.0
        self._active = False
        self._sampling = False

    def _sample(self, signum, frame) -> None:
        # Skip a signal delivered after __exit__ disarmed the timer, or
        # one arriving while a sample is still running.
        if not self._active or self._sampling:
            return
        self._sampling = True
        started = time.perf_counter()
        self.rates.append(probe_round(self.ops))
        self.probe_s += time.perf_counter() - started
        self._sampling = False

    def __enter__(self) -> "SpeedSampler":
        self._active = True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._active = False

    def speed(self) -> float:
        """Harmonic mean of the samples: the rate at which the sampled
        seconds would have done the probe's work (0.0: no samples)."""
        if not self.rates:
            return 0.0
        return len(self.rates) / sum(1.0 / rate for rate in self.rates)


def timed(step, sample_here: bool = True) -> "tuple[float, float]":
    """Run ``step()``; return (wall seconds without probe time, speed).

    The speed is the harmonic mean of one probe right before the step,
    the samples taken while it ran, and one probe right after it.  With
    ``sample_here`` the samples come from this process.  A step whose
    work runs elsewhere samples there itself and returns
    ``(rates, probe_s)``: its samples and the probe seconds that
    lengthened its wall.
    """
    sampler = SpeedSampler()
    sampler.rates.append(probe())
    started = time.perf_counter()
    if sample_here:
        with sampler:
            remote = step()
    else:
        remote = step()
    wall = time.perf_counter() - started - sampler.probe_s
    if remote is not None:
        rates, probe_s = remote
        sampler.rates.extend(rates)
        wall -= probe_s
    sampler.rates.append(probe())
    return wall, sampler.speed()
