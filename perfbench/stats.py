"""Pure helpers the harness shares: percentiles, interval unions, self time.

Kept free of any ``repro`` import so the unit tests exercise them without
the package on the path.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]


def percentile_rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``count`` samples.

    The nearest-rank definition picks an observed sample (no interpolation
    between two request kinds), so a percentile that sits inside one kind's
    latency band reads a latency that kind really had.
    """
    if count <= 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * count - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th
    percentile's rank — a percentile is reported only when this is >= 10."""
    return count - percentile_rank(count, q)


def min_samples_for(q: float, beyond: int = 10) -> int:
    """Smallest sample count that leaves ``beyond`` samples above the
    ``q``-th percentile."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


def union_length(intervals: Iterable[Interval], lo: float = -math.inf,
                 hi: float = math.inf) -> float:
    """Total length covered by ``intervals`` after clipping each to
    ``[lo, hi]``; overlapping intervals count once."""
    clipped: List[Interval] = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Interval]) -> float:
    """A span's duration minus the union of its children's intervals
    (clipped to the span): time the span's own layer spent, counting each
    instant once even when children ran concurrently on several threads."""
    return max(0.0, end - start) - union_length(children, start, end)


def overlap_time(start: float, end: float,
                 children: Sequence[Interval]) -> float:
    """Child time counted more than once because children overlapped:
    the sum of their clipped durations minus their union.  With it,
    ``duration == self + sum(child durations) - overlap`` holds exactly."""
    clipped = sum(max(0.0, min(e, end) - max(s, start)) for s, e in children)
    return clipped - union_length(children, start, end)
