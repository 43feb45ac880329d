"""Machine-speed calibration for the timings the benchmark reports.

On a shared virtual machine the speed of a vCPU drifts by tens of
percent over seconds. The benchmark times a fixed piece of its own code
(interpreter loop, dict updates and small NumPy operations, the mix the
simulator itself runs) right before each timed unit and scales that
unit's timing to a reference machine on which the calibration takes
:data:`REFERENCE_S`. The calibration never calls the program under
test, so a change to the program moves only the measured side.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: The calibration's nominal duration on the reference machine; it
#: takes 8-10 ms on a 2-vCPU Xeon VM at 2.0 GHz under CPython 3.11.
REFERENCE_S = 0.010


def _calibration_work() -> int:
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    table: dict[int, int] = {}
    for i in range(15_000):
        table[i % 613] = table.get(i % 613, 0) + i
    x = np.arange(4_096, dtype=np.float64)
    for _ in range(40):
        x = np.sqrt(x * 1.0001 + 1.0)
    return acc + len(table) + int(x[0])


def speed_factor(samples: int = 1) -> float:
    """``REFERENCE_S`` over the calibration's current duration (median
    of ``samples``): multiply a duration measured now by it to express
    the duration at reference speed; divide a rate by it."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        _calibration_work()
        times.append(perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)
