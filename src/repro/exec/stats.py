"""The one serving-statistics accumulator: named counts plus latencies.

:class:`Stats` is what ``WWTService.stats()`` and the HTTP server's
``/stats`` both read: each layer records its events into one instance and
projects a :meth:`Stats.snapshot` onto its frozen report type
(``ServiceStats``, ``ServerStats``).  Latencies come back as
:class:`StageStats` (count / total / p50 / p95); percentiles are
nearest-rank over a bounded reservoir of the most recent samples, so
long-running services keep O(1) memory per name.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["NO_SAMPLES", "Stats", "StageStats", "percentile"]

#: Samples kept per latency name for percentile estimation.
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
    """One name's latency aggregate (seconds, like ``QueryTiming``)."""

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


#: The aggregate of a name with no samples yet.
NO_SAMPLES = StageStats(count=0, total=0.0, p50=0.0, p95=0.0)


class _Latency:
    """Exact count and total of one name, plus its recent-sample window."""

    __slots__ = ("count", "total", "samples")

    def __init__(self, reservoir: int) -> None:
        self.count = 0
        self.total = 0.0
        self.samples: deque[float] = deque(maxlen=reservoir)


class Stats:
    """Thread-safe named counts and per-name latency reservoirs.

    ::

        stats = Stats()
        stats.record({"accepted": 1})
        stats.record({"in_flight": -1, "completed": 1}, [("handle", 0.004)])
        counts, latencies = stats.snapshot()

    One lock guards everything, and one :meth:`record` call is one event:
    its count deltas and latency samples land together, so no
    :meth:`snapshot` ever sees half of an event.
    """

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._counts: Dict[str, float] = {}
        self._latencies: Dict[str, _Latency] = {}

    def record(
        self,
        counts: Optional[Mapping[str, float]] = None,
        latencies: Sequence[Tuple[str, float]] = (),
    ) -> None:
        """Fold one event in: add each count delta (negative deltas are
        fine — gauges like ``in_flight``) and each ``(name, seconds)``
        latency sample, atomically."""
        with self._lock:
            if counts:
                for name, delta in counts.items():
                    self._counts[name] = self._counts.get(name, 0) + delta
            for name, seconds in latencies:
                latency = self._latencies.get(name)
                if latency is None:
                    latency = self._latencies[name] = _Latency(self._reservoir)
                latency.count += 1
                latency.total += seconds
                latency.samples.append(seconds)

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, StageStats]]:
        """``(counts, latencies)`` as of one instant.

        A name never recorded is absent from both dicts; integer deltas
        sum to ints, so a count stays an ``int`` unless a float was added.
        """
        with self._lock:
            counts = dict(self._counts)
            windows = {
                name: (latency.count, latency.total, list(latency.samples))
                for name, latency in self._latencies.items()
            }
        return counts, {
            name: StageStats(
                count=count,
                total=total,
                p50=percentile(samples, 0.50),
                p95=percentile(samples, 0.95),
            )
            for name, (count, total, samples) in windows.items()
        }
