"""Percentiles and the tail rule used for every latency the benchmark reports."""

import math

TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int, candidates=(99.9, 99, 95, 90, 75, 60, 50)):
    """Highest candidate percentile with at least ten of n samples beyond it.

    Returns None when even the median has fewer than ten samples above it.
    """
    for q in candidates:
        if round(n * (100 - q) / 100, 6) >= TAIL_MIN_BEYOND:
            return q
    return None


def median(values) -> float:
    return percentile(values, 50)
