"""A clock that reads elapsed time at the reference speed of the machine.

The speed of a shared machine drifts: on the 2-core box this benchmark was
written on, a fixed pure-Python loop took anywhere from 2.1 to 3.6 ms, and the
same block of 20 branch solves took from 1.5 to 3.0 s within two minutes.  Raw
times of identical work then differ by more than any useful regression bound.

ReferenceClock measures the speed while the program runs.  Every PERIOD
seconds a SIGALRM handler times a fixed probe: PROBE_LOOPS steps of integer
arithmetic and of a walk around a random cycle in a 1 MB array, so that it
waits on memory too, with no allocation that the garbage collector tracks.
The stretch of time since
the previous probe is scaled by REFERENCE_PROBE_S over the median of the last
three probe times, so a stretch run at half speed counts half.  The probes'
own time is left out.  Timed over the same 90 s, raw times of 20-solve blocks
had a quartile spread of 0.47 of their median and scaled ones 0.08.

The signal handler runs between bytecodes of the main thread and touches no
state of the program under test.  Interrupted system calls are retried by
Python itself (PEP 475).
"""

from __future__ import annotations

import random
import signal
from array import array
from time import perf_counter

PERIOD = 0.1
PROBE_LOOPS = 15_000
REFERENCE_PROBE_S = 0.002  # about the probe's time on that box at its fastest

# a random cyclic permutation of 2^18 slots (1 MB array), walked by the probe
# so that it also waits on memory the way the program's big tables make it wait
_CHAIN_SIZE = 1 << 18


def _make_chain(rnd) -> array:
    """Sattolo's shuffle: chain[i] is the successor of i on one cycle through all slots."""
    chain = array("i", range(_CHAIN_SIZE))
    for i in range(_CHAIN_SIZE - 1, 0, -1):
        j = int(rnd.random() * i)
        chain[i], chain[j] = chain[j], chain[i]
    return chain


def _probe(chain: array) -> int:
    x, j = 0, 0
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) % 65521
        j = chain[j]
    return x + j


class ReferenceClock:
    def __init__(self):
        self._chain = _make_chain(random.Random(0))
        self._scaled = 0.0
        self._mark = perf_counter()
        self._factor = 1.0
        self._recent = [REFERENCE_PROBE_S] * 3  # last probe times, overwritten in turn
        self._ticks = 0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        scaled = self._scaled + (start - self._mark) * self._factor
        _probe(self._chain)
        end = perf_counter()
        # no new container objects here: they would move the garbage
        # collector's schedule inside the program under test
        recent = self._recent
        recent[self._ticks % 3] = end - start
        a, b, c = recent
        self._scaled = scaled
        self._factor = REFERENCE_PROBE_S / max(min(a, b), min(max(a, b), c))
        self._mark = end
        self._ticks += 1

    def now(self) -> float:
        """Reference seconds since the clock started."""
        while True:
            ticks = self._ticks
            value = self._scaled + (perf_counter() - self._mark) * self._factor
            if ticks == self._ticks:  # no probe ran while reading
                return value

    def __enter__(self) -> "ReferenceClock":
        for _ in range(3):
            self._tick()
        self._scaled = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
