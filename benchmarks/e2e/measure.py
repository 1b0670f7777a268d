# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""Measurement primitives: spans, percentiles, memory high-water marks.

Spans are recorded by the benchmark around calls into the engine (the
engine itself is not edited), kept in memory, and written out as JSON
lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "median",
    "percentile",
    "rss_high_water_mib",
    "self_times",
    "spin_ms",
]


class Span:
    """One timed interval; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent_id", "name",
        "start_s", "end_s", "counts",
    )

    def __init__(
        self, tracer: "Tracer", trace_id: int, span_id: int,
        parent_id: Optional[int], name: str,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = 0.0
        self.end_s = 0.0
        #: Counts taken at the same boundary as the timing (hits, rows...).
        self.counts: Dict[str, float] = {}

    def __enter__(self) -> "Span":
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end_s = time.perf_counter()
        self.tracer.spans.append(self)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        row.update(self.counts)
        return row


class Tracer:
    """In-memory span recorder.

    ``trace_id`` is the ordinal of the request the span belongs to (set-up
    repetitions count down from -1); ``parent`` is the span that caused
    this one.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 0

    def span(
        self, name: str, trace_id: int, parent: Optional[Span] = None
    ) -> Span:
        self._next_id += 1
        return Span(
            self, trace_id, self._next_id,
            parent.span_id if parent is not None else None, name,
        )

    def record(
        self, name: str, trace_id: int, parent: Optional[Span],
        start_s: float, end_s: float,
    ) -> Span:
        """A span whose interval was measured elsewhere (by the server)."""
        span = self.span(name, trace_id, parent)
        span.start_s, span.end_s = start_s, end_s
        self.spans.append(span)
        return span

    def span_cost_s(self, samples: int = 20000) -> float:
        """Measured cost of recording one empty span with this tracer.

        A query is tens of milliseconds and a span about a microsecond,
        so the overhead cannot be resolved by timing a query twice; it is
        computed from this per-span cost and the spans a query records.
        """
        probe = Tracer()
        start = time.perf_counter()
        for i in range(samples):
            with probe.span("calibrate", i):
                pass
        return (time.perf_counter() - start) / samples

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self_times(self.spans)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                row = span.to_dict()
                row["self_s"] = own[span.span_id]
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start_s
        for child in sorted(
            children.get(span.span_id, ()), key=lambda c: c.start_s
        ):
            lo = max(child.start_s, reach)
            hi = min(child.end_s, span.end_s)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.span_id] = span.duration_s - covered
    return out


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile of a non-empty sample.

    Interpolation (numpy's default rule) because some samples here are one
    value per query and only 15-59 long: a nearest-rank percentile would
    hand one query's noise straight to the metric.
    """
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    weight = position - lo
    return ordered[lo] * (1.0 - weight) + ordered[hi] * weight


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for an empty sample (a layer the workload never reached)."""
    return statistics.median(values) if values else 0.0


def rss_high_water_mib(pid: Optional[int] = None) -> float:
    """``VmHWM`` of ``pid`` (default: this process) in MiB, from /proc."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{status}: no VmHWM line")


def spin_ms() -> float:
    """Time of a fixed piece of interpreter work (the median of five).

    The host's speed changes by up to half for minutes at a time, and not
    all of that shows as stolen time in ``/proc/stat``; this reading, taken
    before and after a run, tells a slow engine from a slow host.
    """
    readings = []
    for _ in range(5):
        start = time.perf_counter()
        i = 0
        while i < 200000:
            i += 1
        readings.append((time.perf_counter() - start) * 1e3)
    return median(readings)
