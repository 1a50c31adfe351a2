"""Host-speed calibration for the end-to-end timings.

On a shared machine the speed the host gives this process drifts by tens of
percent within a second, so raw wall times of the same code spread more
between runs than any useful regression bound. The benchmark therefore times
a fixed reference loop (``sample``) before and after each pass and between
the runs inside it, and reports each timing at the reference host speed: the
raw time multiplied by ``REFERENCE_S`` over the mean of the samples taken
across it.

The reference loop mixes the three costs a solver step is made of:
interpreter work, numpy calls on 100-element arrays (a step at N=100) and
numpy calls on 10^4-element arrays (a step at N=10^4). Of the loops tried,
the mix tracked the drift of all three workloads best; a loop of only one of
these costs tracked its own workload better and the others worse. The loop
is benchmark code, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median duration of ``_reference_loop`` on the host the bounds were set on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4); it only sets the scale of
# the reported seconds.
REFERENCE_S = 0.0085
# Consecutive samples are correlated over a few tens of milliseconds, so one
# call takes two to average out the shortest swings.
SAMPLES_PER_CALL = 2

_PY_ITERATIONS = 30_000
_SMALL_ITERATIONS = 300
_LARGE_ITERATIONS = 100
_A = np.linspace(1.0, 2.0, 100)
_B = _A + 1.0
_A_LARGE = np.linspace(1.0, 2.0, 10_000)
_B_LARGE = _A_LARGE + 1.0


def _reference_loop() -> float:
    acc = 0.0
    for i in range(_PY_ITERATIONS):
        acc += (i % 7) * 0.5
    for _ in range(_SMALL_ITERATIONS):
        c = np.sqrt(_A * _B + 1.0)
        c = np.maximum(c, _A) / _B
        acc += float(c.min())
    for _ in range(_LARGE_ITERATIONS):
        c = np.sqrt(_A_LARGE * _B_LARGE + 1.0)
        c = np.maximum(c, _A_LARGE) / _B_LARGE
        c = np.where(c > 1.2, c, _A_LARGE) * _B_LARGE - _A_LARGE
        acc += float(c.min())
    return acc


class HostSpeed:
    """Every reference-loop duration of the run, in order."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(SAMPLES_PER_CALL):
            started = time.perf_counter()
            _reference_loop()
            self.samples.append(time.perf_counter() - started)

    def mark(self) -> int:
        return len(self.samples)

    def spent_since(self, mark: int) -> float:
        """Seconds spent in the reference loop since ``mark``."""
        return sum(self.samples[mark:])

    def factor_since(self, mark: int) -> float:
        """``REFERENCE_S`` over the mean sample since ``mark``: multiply a
        raw time measured across those samples by it."""
        return REFERENCE_S / statistics.fmean(self.samples[mark:])
