"""Host-speed reference for timings taken on a shared machine.

On a shared host the speed of one core drifts by up to 2x within a minute,
far more than the changes the benchmark has to resolve, and the drift is too
slow to average out within one run. So every timed repetition is bracketed
by a fixed reference loop of numpy operations, and a timing is
reported scaled by REFERENCE_S / (mean of the two bracketing reference
times): the seconds it would have taken on a host where the reference loop
takes REFERENCE_S. The raw wall-clock times are reported beside them.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# median reference-loop time on the 2-vCPU host the baseline was recorded on
REFERENCE_S = 0.016

_A = np.array([[0.9, 0.1], [0.0, 0.9]])
_SAMPLES = (np.arange(90000) % 57 - 28).astype(np.int8)
_POINTS = (np.arange(200) % 50 - 25.0).reshape(-1, 2)
_GRID = np.arange(256.0) - 128.0


def reference_loop() -> None:
    """Fixed work in three parts of about equal time, shaped like the
    package's hot paths: many tiny matrix products (the per-bin filters),
    medians over a long int8 segment (threshold estimation), and Gaussian
    rows with a 256x256 product (the sorter's density estimate)."""
    v = np.ones(2)
    for _ in range(700):
        v = _A @ v + 0.001
        _A @ np.eye(2) @ _A.T
    for _ in range(3):
        x = _SAMPLES.astype(np.float64)
        np.median(np.abs(x - np.median(x)))
    for _ in range(10):
        rows = np.exp(-0.5 * ((_GRID[None, :] - _POINTS[:, 0:1]) / 5.0) ** 2)
        density = rows.T @ rows
        density / density.sum()


class Pacer:
    """Times calls against the bracketing reference loop."""

    def __init__(self):
        self._ref = self._time_reference()
        self.reference_times = [self._ref]

    @staticmethod
    def _time_reference() -> float:
        # a collection here would scan the workload's heap, not the loop's
        gc.disable()
        try:
            t0 = perf_counter()
            reference_loop()
            return perf_counter() - t0
        finally:
            gc.enable()

    def time(self, fn, *args, reps: int = 1):
        """Call ``fn(*args)`` *reps* times.

        Returns (last result, wall seconds per call, reference-scaled seconds
        per call, scale factor).
        """
        t0 = perf_counter()
        for _ in range(reps):
            out = fn(*args)
        wall = (perf_counter() - t0) / reps
        ref = self._time_reference()
        scale = REFERENCE_S / ((self._ref + ref) / 2.0)
        self._ref = ref
        self.reference_times.append(ref)
        return out, wall, wall * scale, scale
