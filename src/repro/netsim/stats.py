"""Small statistics helpers shared by experiments and analysis modules.

Only plain-Python implementations are used so that the statistics behave
identically regardless of the numerical backend; numpy is reserved for the
heavier measurement-study analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class SummaryStatistics:
    """Streaming summary of a sample: count, mean, min/max and percentiles.

    Samples are retained so exact percentiles can be computed; the sample
    sizes in this repository (thousands of values) make that affordable.
    """

    samples: list[float] = field(default_factory=list, init=False)

    def add(self, value: float) -> None:
        """Add a sample."""
        self.samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        """Add several samples."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100) with linear interpolation."""
        if not self.samples:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.percentile(50.0)

    def summary(self) -> dict[str, float]:
        """A dictionary of the common summary values."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.maximum,
        }
