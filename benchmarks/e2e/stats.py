"""Order statistics the benchmark reports and compares."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: A reported percentile must have at least this many samples above it
#: (the choosing-metrics rule), so p90 needs 100 samples.
MIN_BEYOND = 10


def nearest_rank(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    above the returned rank, so a tail percentile is never read off a
    handful of points.
    """
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q} outside (0, 1]")
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"{min_beyond} required"
        )
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3), interpolated within the observed values.

    The ``inclusive`` method never reaches past the smallest or largest
    value; the default ``exclusive`` one extrapolates, and reads two
    runs as a spread of 1.5 times their distance.
    """
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3
