"""Host-speed calibration kernel, timed twice before and twice after every pass.

On a shared machine the speed of one core drifts by tens of percent over tens
of seconds, as neighbours come and go on the same physical cores. The drift
slows this kernel about as much as it slows riskrl, because both are mostly
interpreter work with small numpy calls. Dividing a pass time by the kernel
time measured next to it therefore cancels most of the drift. The kernel
never calls riskrl, so a change to riskrl moves the ratio and leaves the
kernel alone. It runs for about 50 ms on a 2.1 GHz Xeon core.
"""

from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 60_000


def kernel() -> float:
    total = 0.0
    recent = []
    for i in range(ITERATIONS):
        x = i * 1e-3
        a, b = math.hypot(x, 1.5), math.atan2(x, 2.0)
        recent.append((a, b))
        if i % 8 == 0:
            v = np.array([a, b])
            total += float(v @ v)
        if len(recent) == 64:  # keep allocating, but hold no memory that would show in peak RSS
            recent.clear()
    return total


def calibration_s(runs: int = 2) -> list[float]:
    """Wall times of ``runs`` back-to-back kernel runs."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times
