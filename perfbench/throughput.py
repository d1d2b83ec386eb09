"""In-band throughput sampler: corrects pass times for the machine's speed.

On small shared machines the speed of a CPU drifts by up to 2x over tens of
seconds, and a process's CPU time drifts with it, so neither wall time nor
CPU time of one pass is steady.  A calibration loop run before or after a
pass tracks that drift only partly, because the drift changes within the
pass.  This sampler therefore runs a fixed chunk of pure-Python object
arithmetic (the kind of work fibrum's DScalar code does) from a SIGALRM
handler every 20 ms *while* the pass runs, on the same thread, and records
how long each chunk took.

A pass's corrected time is its wall time minus the time spent in chunks,
scaled by ``REFERENCE_CHUNK_S / mean chunk time``: the time the pass would
have taken on a machine where one chunk takes ``REFERENCE_CHUNK_S``.  The
mean, not the median: chunks are spaced evenly in time, so their mean is
the time-average of the slowdown that the pass integrates, and a median
would ignore slow phases shorter than half the pass.  The chunk shares no
code with fibrum, so a change to fibrum cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
CHUNK_STEPS = 150
# Typical mean chunk time inside fibrum passes on a 2-core x86_64 sandbox
# (Python 3.11.7): corrected times read as typical wall seconds there.
REFERENCE_CHUNK_S = 320e-6


class _Dual:
    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    def __mul__(self, other):
        return _Dual(self.value * other.value,
                     tuple(self.value * gb + ga * other.value
                           for ga, gb in zip(self.grad, other.grad)))


_FACTOR = _Dual(1.0000001, (0.1, 0.2))


def _chunk() -> None:
    acc = _Dual(1.0, (0.5, 0.25))
    for _ in range(CHUNK_STEPS):
        acc = acc * _FACTOR


class Sampler:
    """``with sampler:`` samples chunk times until the block ends."""

    def __init__(self):
        self.chunks: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _chunk()
        self.chunks.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def corrected(wall_s: float, chunks: list[float]) -> float:
    """Wall time of a sampled span, less its chunks, at reference speed."""
    return (wall_s - sum(chunks)) * REFERENCE_CHUNK_S / statistics.mean(
        chunks)
