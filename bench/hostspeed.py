"""The host's speed, measured next to the ops it scales.

On a shared host the speed of a core drifts: on the 2-vCPU VM of the
baseline, the same paper-spec ops took 31 ms in one run and 54 ms in the
next, with the process' CPU time equal to its wall time, so the core did
less work per second rather than the process waiting for it.  A fixed
reference kernel — interpreted Python and small numpy array work, like
the program's own ops — is timed between the ops, and each op's time is
scaled by ``REFERENCE_S`` over the median of the samples nearest it: the
op's time on a host that runs the reference kernel in ``REFERENCE_S``.
In eight runs each of paper-spec and fail-recover on that VM, the timing
metrics spread 7–20% over the runs (interquartile range over median)
unscaled and 2–5% scaled.

A set-up launch starts a fresh process, which the scheduler may place on
another core than the benchmark's: with 2 vCPUs whose speeds drift
apart, launches free to run on either core, scaled by samples taken in
the benchmark process, spread 15–21% over runs.  So the benchmark holds
itself, and with it the launch it starts, on the core it is running on
while it samples, launches and samples again, and scales the launch by
those samples alone (4–14% over runs).

The reference is timed in the benchmark's own thread CPU time, with the
garbage collector off, so that neither other threads nor the program's
heap can make the reference look slow and the program look fast.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time

import numpy as np

#: reference-kernel time of the host every scaled time is expressed on.
REFERENCE_S = 0.002
#: op time between two reference samples.
SAMPLE_EVERY_S = 0.02
#: reference samples whose median scales one op.
NEIGHBOURS = 11
#: samples taken before and after one call timed by ``HostSpeed.around``.
AROUND_CALL = 3
#: the "processor" field of ``/proc/<pid>/stat``, counted after the
#: parenthesised command name.
_STAT_PROCESSOR = 36

_VALUES = np.random.default_rng(0).random(20_000)
_GATHER = np.random.default_rng(1).integers(0, _VALUES.size, _VALUES.size)
_RANKED = [2 * x for x in range(2000)]
# The kernel writes its arrays into these buffers and keeps few Python
# objects alive at once: a 160 KB temporary is mapped fresh from the OS
# or not depending on the program's heap, and with ~900 page faults a
# sample took twice as long in one process as in another.
_GATHERED = np.empty_like(_VALUES)
_PREFIX = np.empty(2000)


def _reference_kernel() -> float:
    counts: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        acc += len(str(i)) * (i & 7)
    ranked = sorted(_RANKED, reverse=True)
    total = float(acc + sum(ranked[:10]))
    for _ in range(20):
        np.take(_VALUES, _GATHER, out=_GATHERED)
        np.multiply(_GATHERED, 1.5, out=_GATHERED)
        np.add(_GATHERED, _VALUES, out=_GATHERED)
        total += float(_GATHERED.sum())
        np.cumsum(_VALUES[:2000], out=_PREFIX)
        total += float(_PREFIX[-1])
    return total


class HostSpeed:
    """Reference-kernel samples, each at a position in a run's op order."""

    def __init__(self) -> None:
        self.positions: list[int] = []
        self.seconds: list[float] = []
        self._since_sample = 0.0
        for _ in range(3):  # warm the kernel's code and data
            _reference_kernel()

    def measure(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            _reference_kernel()
            return time.thread_time() - start
        finally:
            if enabled:
                gc.enable()

    def after_op(self, position: int, op_seconds: float) -> None:
        """Sample once ``SAMPLE_EVERY_S`` of op time has passed."""
        self._since_sample += op_seconds
        if self._since_sample >= SAMPLE_EVERY_S or not self.seconds:
            self.positions.append(position)
            self.seconds.append(self.measure())
            self._since_sample = 0.0

    def factor(self, position: int) -> float:
        """``REFERENCE_S`` over the median of the samples nearest ``position``."""
        at = bisect.bisect_left(self.positions, position)
        half = NEIGHBOURS // 2
        lo = max(0, min(at - half, len(self.seconds) - NEIGHBOURS))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + NEIGHBOURS])

    def around(self, call) -> float:
        """The seconds ``call()`` reports, on the reference host: scaled
        by samples taken just before and after it, on the core that
        ``call`` and the processes it starts are held to."""
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {current_cpu()})
        try:
            samples = [self.measure() for _ in range(AROUND_CALL)]
            seconds = call()
            samples += [self.measure() for _ in range(AROUND_CALL)]
        finally:
            os.sched_setaffinity(0, allowed)
        return seconds * REFERENCE_S / statistics.median(samples)


def current_cpu() -> int:
    """The core this process last ran on."""
    with open("/proc/self/stat") as fh:
        stat = fh.read()
    return int(stat.rsplit(")", 1)[1].split()[_STAT_PROCESSOR])
