"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import resource
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) by linear interpolation between
    order statistics (R-7, the numpy default); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-quantile."""
    return count - 1 - int(q * (count - 1))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
