"""Host-speed sampling, so timed metrics do not follow the host's speed.

The benchmark shares a few cores of a host whose speed drifts: a fixed
pure-Python loop takes 20-40 % longer for seconds at a time, and the
same pass of the program slows with it.  One probe timed before a pass
does not track that drift, so :class:`SpeedSampler` samples the host's
speed *during* the timed code: a ``SIGALRM`` interval timer interrupts
the main thread every :data:`INTERVAL_S` seconds and times one fixed
probe loop of :data:`PROBE_ITERS` iterations there.

A timed interval is then reported twice:

* raw: its host seconds minus the seconds the probes took;
* calibrated: the raw seconds scaled to the reference host speed, that
  is ``raw * REF_PROBE_S / mean probe thread-CPU seconds``, the seconds
  the interval would take on a host where one probe takes
  :data:`REF_PROBE_S`.

Signals run their handler between bytecodes of the main thread only, so
the probes never overlap the program's own work in this process and the
program needs no change.  Interval timers are not inherited by child
processes.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional, Tuple

#: Seconds between two probes.
INTERVAL_S = 0.05
#: Iterations of the probe loop (1.3-1.7 ms on a 2-core cloud VM).
PROBE_ITERS = 20_000
#: Probe seconds that define the reference host speed.
REF_PROBE_S = 1e-3


def probe() -> Tuple[float, float]:
    """Host and thread-CPU seconds one fixed pure-Python loop takes."""
    t0 = time.perf_counter()
    c0 = time.thread_time()
    acc = 0.0
    for i in range(PROBE_ITERS):
        acc += (i & 7) * 0.5
    cpu = time.thread_time() - c0 + 0.0 * acc
    return time.perf_counter() - t0, cpu


class SpeedSampler:
    """Context manager that samples host speed while its block runs.

    A probe runs on entry, every :data:`INTERVAL_S` seconds inside the
    block, and on exit.  :meth:`interval` then gives the raw and
    calibrated seconds of any part of the block; ``raw_s`` and ``cal_s``
    hold those of the whole block.  Only one sampler may run at a time,
    in the main thread.
    """

    def __init__(self) -> None:
        #: ``(perf_counter at start, host s, thread-CPU s)`` per probe.
        self.samples: List[Tuple[float, float, float]] = []
        self.t0 = 0.0
        self.t1 = 0.0
        self.raw_s = 0.0
        self.cal_s = 0.0
        self._previous: Optional[object] = None

    def _probe(self) -> None:
        self.samples.append((time.perf_counter(), *probe()))

    def _tick(self, signum, frame) -> None:
        self._probe()

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        self.raw_s, self.cal_s = self.interval(self.t0, self.t1)

    def interval(self, start: float, end: float) -> Tuple[float, float]:
        """``(raw, calibrated)`` seconds from ``start`` to ``end``
        (``perf_counter`` values inside the block).

        The speed is the mean thread-CPU seconds of the probes that
        started inside the interval, or of all the block's probes when
        none did.  CPU seconds leave out the time a probe waited for a
        core, so probes in a process whose children keep every core busy
        still measure the speed of the host."""
        inside = self._inside(start, end)
        raw = max(end - start - sum(s[1] for s in inside), 0.0)
        return raw, self._scale(raw, inside or self.samples)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done from ``start`` to ``end`` in another
        process, scaled to the reference host speed like
        :meth:`interval` does."""
        return self._scale(seconds, self._inside(start, end) or self.samples)

    def _inside(self, start: float, end: float) -> list:
        return [s for s in self.samples if start <= s[0] < end]

    @staticmethod
    def _scale(seconds: float, samples) -> float:
        return seconds * REF_PROBE_S * len(samples) / sum(
            s[2] for s in samples)
