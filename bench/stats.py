"""The tail order statistic of op latencies."""

from __future__ import annotations

from dataclasses import dataclass

TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The latency at the highest percentile that still has `beyond`
    samples above it, with that percentile and the sample count."""

    value: float
    percentile: float
    beyond: int
    samples: int


def tail(values, beyond: int = TAIL_BEYOND) -> Tail:
    """With n sorted samples, the tail is the sample at rank n - beyond
    (1-based), so exactly `beyond` samples lie beyond it; its percentile is
    100 (n - beyond) / n. With fewer than beyond + 1 samples it is the
    smallest sample, and fewer lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = max(n - beyond - 1, 0)
    return Tail(
        value=ordered[k],
        percentile=100.0 * (k + 1) / n,
        beyond=n - 1 - k,
        samples=n,
    )
