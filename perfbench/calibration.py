"""Machine-speed probe, shared by the benchmark and its import timer.

A fixed unit of interpreted float arithmetic that does not touch kgbound.
It imports only math and time, so a fresh interpreter can run it before
and after ``import kgbound.cli`` without importing anything kgbound would
import itself.
"""

import math
from time import perf_counter


def calibrate() -> float:
    """Seconds for one run of the calibration unit (about 2 ms)."""
    start = perf_counter()
    acc = 0.0
    for i in range(24000):
        acc += math.sqrt(i + 0.5) * 1.0000001
    return perf_counter() - start
