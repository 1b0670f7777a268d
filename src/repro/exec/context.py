"""Execution context: deadline budget and the span tree.

An :class:`ExecutionContext` travels through one query's staged plan
(see :mod:`repro.exec.plan`) carrying two things:

- a **wall-clock budget** (``deadline_ms``) that the plan runner checks
  between stages — exceeding it triggers graceful degradation, the one
  way a plan ends early; and
- a **span tree** of per-stage wall-clock timings and counters — the
  single source of truth the serving layer's ``QueryTiming`` and
  per-stage aggregates are views over.

The context never preempts a running stage: deadline enforcement is
*between* stages, so a response is late by at most one stage's own cost
("budget + one stage granularity").
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "ExecutionContext",
    "REASON_DEADLINE",
    "Span",
    "SPAN_OK",
    "SPAN_DEGRADED",
    "SPAN_SKIPPED",
    "wall_clock",
]


def wall_clock() -> float:
    """Monotonic wall-clock read — the one sanctioned clock outside tests.

    Every timing measurement in the engine flows through this seam (or
    through an :class:`ExecutionContext` constructed with an injected
    ``clock``), so tests and replay harnesses can substitute a fake clock
    at a single point.  reprolint rule R001 enforces that no other module
    calls ``time.time``/``time.perf_counter``/``datetime.now`` directly.
    """
    return time.perf_counter()


#: Degradation reason: the deadline budget forced skips or fallbacks.
REASON_DEADLINE = "deadline"

#: Span ran normally.
SPAN_OK = "ok"
#: Span ran a degraded fallback instead of its normal stage body.
SPAN_DEGRADED = "degraded"
#: Span was skipped outright under deadline pressure (zero duration).
SPAN_SKIPPED = "skipped"


@dataclass
class Span:
    """One timed node of the execution trace.

    ``duration`` is wall-clock seconds; ``status`` is one of
    :data:`SPAN_OK`, :data:`SPAN_DEGRADED`, :data:`SPAN_SKIPPED`;
    ``note`` carries a short human-readable marker
    (e.g. the fallback algorithm a degraded stage used).
    """

    name: str
    duration: float = 0.0
    status: str = SPAN_OK
    note: str = ""
    counters: Dict[str, float] = field(default_factory=dict)
    children: List[Span] = field(default_factory=list)

    # -- queries ----------------------------------------------------------

    def find(self, name: str) -> Optional[Span]:
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def leaves(self) -> Iterator[Span]:
        """Depth-first iterator over the subtree's leaf spans."""
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def total(self, name: str) -> float:
        """Summed duration of every leaf named ``name`` in this subtree."""
        return sum(s.duration for s in self.leaves() if s.name == name)

    def stage_names(self) -> List[str]:
        """Names of the leaf stages that ran, deadline-skipped ones excluded."""
        return [s.name for s in self.leaves() if s.status != SPAN_SKIPPED]

    @property
    def degraded(self) -> bool:
        """Did any span in this subtree skip or degrade?"""
        return any(
            s.status in (SPAN_SKIPPED, SPAN_DEGRADED) for s in self.leaves()
        )

    # -- views ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe nested form (durations in milliseconds)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "ms": self.duration * 1000.0,
            "status": self.status,
        }
        if self.note:
            data["note"] = self.note
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data

    def format_tree(self, indent: int = 0) -> List[str]:
        """Human-readable trace lines (the CLI's ``query --trace`` view)."""
        label = "  " * indent + self.name
        if self.status == SPAN_SKIPPED:
            line = f"{label:<32} {'--':>9}  skipped"
        else:
            line = f"{label:<32} {self.duration * 1000.0:>7.1f}ms"
            if self.status != SPAN_OK:
                line += f"  {self.status}"
        if self.note:
            line += f" ({self.note})"
        if self.counters:
            pairs = " ".join(
                f"{k}={v:g}" for k, v in sorted(self.counters.items())
            )
            line += f"  [{pairs}]"
        lines = [line]
        for child in self.children:
            lines.extend(child.format_tree(indent + 1))
        return lines


class ExecutionContext:
    """Per-query execution state: budget and span tree.

    ::

        ctx = ExecutionContext(deadline_ms=50.0)
        with ctx.span("probe.index1"):
            hits = corpus.search(tokens)
            ctx.count("hits", len(hits))
        if ctx.out_of_budget:
            ...  # degrade

    ``clock`` is injectable for deterministic tests; it must be a
    monotonic ``() -> float`` in seconds (default
    :func:`time.perf_counter`).
    """

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
        root_name: str = "query",
    ) -> None:
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (None disables)")
        self.deadline_ms = deadline_ms
        self._clock = clock
        self._started = clock()
        #: Root of the span tree; stages append children as they run.
        self.root = Span(root_name)
        self._stack: List[Span] = [self.root]
        #: Did any stage skip or fall back?  (The answer is partial.)
        self.degraded = False
        #: Why, in first-occurrence order (:data:`REASON_DEADLINE` is the
        #: one reason).  Empty iff not degraded.
        self.degraded_reasons: List[str] = []
        #: Did the budget run out at any between-stage check?
        self.deadline_hit = False

    # -- budget -----------------------------------------------------------

    @property
    def elapsed_ms(self) -> float:
        """Milliseconds since the context was created."""
        return (self._clock() - self._started) * 1000.0

    @property
    def remaining_ms(self) -> Optional[float]:
        """Budget left (may be negative); ``None`` when no deadline."""
        if self.deadline_ms is None:
            return None
        return self.deadline_ms - self.elapsed_ms

    @property
    def out_of_budget(self) -> bool:
        """Has the deadline passed?  Always False with no deadline."""
        remaining = self.remaining_ms
        return remaining is not None and remaining <= 0.0

    def check_deadline(self) -> bool:
        """Record (and return) whether the budget has run out."""
        if not self.out_of_budget:
            return False
        self.deadline_hit = True
        return True

    # -- spans ------------------------------------------------------------

    @property
    def current(self) -> Span:
        """The innermost open span (the root between stages)."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, status: str = SPAN_OK) -> Iterator[Span]:
        """Open a child span; its duration is recorded on exit."""
        node = Span(name, status=status)
        self._stack[-1].children.append(node)
        self._stack.append(node)
        start = self._clock()
        try:
            yield node
        finally:
            node.duration += self._clock() - start
            self._stack.pop()

    def count(self, key: str, value: float) -> None:
        """Set a counter on the innermost open span."""
        self.current.counters[key] = value

    def skip(self, name: str, note: str = "deadline") -> Span:
        """Record a zero-duration skipped span and mark the run degraded."""
        node = Span(name, status=SPAN_SKIPPED, note=note)
        self._stack[-1].children.append(node)
        self.mark_degraded(REASON_DEADLINE)
        return node

    def mark_degraded(self, reason: str = REASON_DEADLINE) -> None:
        """Flag the run as having returned a partial/degraded answer.

        ``reason`` says *why* and accumulates in :attr:`degraded_reasons`
        (deduplicated, in first-occurrence order) for the serving layers
        to report.
        """
        self.degraded = True
        if reason not in self.degraded_reasons:
            self.degraded_reasons.append(reason)
