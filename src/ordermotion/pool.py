"""A serial, order-preserving map.

The library runs single-threaded: its work is pure-Python Fraction
arithmetic, which threads cannot speed up. No library code calls this; it
stays because `bench/tracing.py` resolves `pool.ordered_map` by name.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply fn to every item, in order."""
    return [fn(x) for x in items]
