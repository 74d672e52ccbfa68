"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a shared virtual machine whose CPU speed drifts by a
third or more over seconds, with no steal time to show for it.  So every
timing is also taken in units of a fixed calibration chunk: a short,
unchanging piece of pure-Python `Fraction` and integer arithmetic, the kind
of work qhahn does.  `Sampler` runs one chunk on a wall-clock timer
(`signal.setitimer`, every `INTERVAL` seconds) while a timed pass runs, in
the same process and on the same CPU, and takes the chunks' own time out of
the pass.  `scaled()` turns the pass's remaining wall seconds into seconds at
the reference speed, `REFERENCE_CHUNK_S` per chunk: it multiplies them by the
mean of REFERENCE_CHUNK_S / chunk seconds over the samples, which is the
pass's mean speed over time.  The chunk does not touch qhahn, so a change to
qhahn moves the scaled seconds exactly as much as the wall seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.1
# Median seconds of one chunk on the reference machine, a 2-CPU Intel Xeon
# virtual machine under Python 3.11; the scaled seconds are seconds at that speed.
REFERENCE_CHUNK_S = 0.0025


def chunk() -> None:
    """The fixed calibration work: a rational recurrence whose terms grow to a
    few hundred bits, summed with small-denominator fractions."""
    for _ in range(3):
        x, s = Fraction(1, 3), Fraction(0)
        for i in range(1, 60):
            x = x * Fraction(7, 5) - Fraction(i, 11)
            s += x / (i + 2)
        d = {}
        for i in range(200):
            d[i % 17] = d.get(i % 17, 0) + i * i


def chunk_seconds() -> float:
    """Wall seconds of one chunk, with the collector off so that it runs
    the same whatever the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        chunk()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(samples: list[float]) -> float:
    """Mean speed relative to the reference over chunk samples, as a factor
    that turns wall seconds into reference seconds."""
    return statistics.fmean(REFERENCE_CHUNK_S / s for s in samples)


class Sampler:
    """Samples the machine's speed during a timed section.  Use as a context
    manager; `spent` is the wall time its handler took, `samples` the chunk
    times.  A section shorter than INTERVAL gets one chunk on exit, outside
    the section."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append(chunk_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(chunk_seconds())

    def scaled(self, wall: float) -> float:
        """Reference seconds of a section that took `wall` seconds under
        this sampler, the sampler's own time taken out."""
        return (wall - self.spent) * speed(self.samples)
