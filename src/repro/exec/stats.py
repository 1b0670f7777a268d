"""Per-stage latency aggregation (count / total / p50 / p95).

The serving facade folds every executed span into one
:class:`StageAccumulator` per stage name; :meth:`StageAccumulator.snapshot`
produces the frozen :class:`StageStats` that ``ServiceStats`` reports.
Percentiles are nearest-rank over a bounded reservoir of the most recent
samples, so long-running services keep O(1) memory per stage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Sequence

__all__ = ["StageStats", "StageAccumulator", "percentile"]

#: Samples kept per stage for percentile estimation.
DEFAULT_RESERVOIR = 2048


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample (0 for an empty one)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class StageStats:
    """One stage's latency aggregate (seconds, like ``QueryTiming``)."""

    count: int
    total: float
    p50: float
    p95: float

    @property
    def mean(self) -> float:
        """Average duration per execution."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for logging/CLI/benchmark output."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
        }


class StageAccumulator:
    """Mutable latency accumulator behind one stage's :class:`StageStats`.

    Not thread-safe by itself — the facade serializes ``add`` calls under
    its own lock.
    """

    __slots__ = ("count", "total", "_samples")

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        self.count = 0
        self.total = 0.0
        self._samples: deque[float] = deque(maxlen=reservoir)

    def add(self, seconds: float) -> None:
        """Fold one execution's duration in."""
        self.count += 1
        self.total += seconds
        self._samples.append(seconds)

    def snapshot(self) -> StageStats:
        """Frozen aggregate over everything folded in so far."""
        samples = list(self._samples)
        return StageStats(
            count=self.count,
            total=self.total,
            p50=percentile(samples, 0.50),
            p95=percentile(samples, 0.95),
        )
