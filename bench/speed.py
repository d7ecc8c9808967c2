"""Host speed calibration.

The benchmark shares its host with other work, which can slow a core by up
to 2x for seconds at a time with no steal time showing in the guest. A fixed
workload, timed right before and right after every op, measures the host's
speed at that moment, and op times are reported scaled to the speed at which
that workload takes REFERENCE_S. The workload is exact rational elimination
with the standard library's Fraction, the library's own scalar, so it slows
down with the host the way the library does; it lives in this file, so no
change to the library can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Roughly the median time of one calibrate() call on the shared 2-vCPU Intel Xeon host
# (2.0 GHz, Python 3.11) the benchmark was defined on.
REFERENCE_S = 0.002

_MATRIX = tuple(
    tuple(Fraction((i + 1) ** (j + 1) + 7 * (i == j), j + 2) for j in range(5))
    for i in range(5)
)
_ROUNDS = 12


def _det(rows) -> Fraction:
    m = [list(row) for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, len(m)):
            factor = m[i][k] / pivot
            for j in range(k, len(m)):
                m[i][j] -= factor * m[k][j]
    return det


def calibrate() -> float:
    """Seconds the fixed workload takes right now."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        _det(_MATRIX)
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """A duration measured between two calibrations, in reference seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2)


def scale_all(
    seconds: list[float], calibrations: list[tuple[float, float]], window: int = 2
) -> list[float]:
    """Op durations in reference seconds. The host speed at op i is the
    median of the calibration pairs of ops i - window .. i + window, which
    is steadier than one pair and still follows swings lasting a second."""
    means = [(before + after) / 2 for before, after in calibrations]
    return [
        value * REFERENCE_S / statistics.median(means[max(0, i - window) : i + window + 1])
        for i, value in enumerate(seconds)
    ]
