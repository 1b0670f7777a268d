"""Serving-layer counters: admission outcomes, queue health, latency.

:class:`ServerStats` is the frozen snapshot the ``/stats`` endpoint
serves (next to the engine's ``ServiceStats``).  The server records its
events into one :class:`~repro.exec.stats.Stats` under count names equal
to this class's field names, and latencies under ``queue_wait`` and
``handle`` — so queue-wait and handle times report the same
count/total/p50/p95 shape as the pipeline stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..exec.stats import NO_SAMPLES, StageStats, Stats

__all__ = ["ServerStats"]


@dataclass(frozen=True)
class ServerStats:
    """Point-in-time serving-layer counters of one server."""

    #: Requests admitted past rate limiting into the line.
    accepted: int
    #: Requests answered (2xx, degraded included).
    completed: int
    #: 429s from a full line.
    rejected_queue_full: int
    #: 429s from an empty client token bucket.
    rejected_rate_limited: int
    #: Malformed request heads (``bad_request``) and invalid bodies.
    rejected_invalid: int
    #: 503s refused while draining for shutdown.
    rejected_shutdown: int
    #: Completed answers that came back degraded (deadline shed).
    shed_degraded: int
    #: 500s — the engine raised, or the handler raised unexpectedly
    #: before admission.
    errors_internal: int
    #: Requests waiting in line right now.
    queue_depth: int
    #: Requests holding an execution slot right now.
    in_flight: int
    #: Seconds since the server started (monotonic clock seam).
    uptime_s: float
    #: Time requests spent in line before a slot took them.
    queue_wait: StageStats
    #: Execution time (engine call, excluding the wait in line).
    handle: StageStats

    @classmethod
    def of(cls, stats: Stats, queue_depth: int, uptime_s: float) -> ServerStats:
        """Project one :meth:`Stats.snapshot` (a consistent instant: never
        ``completed + errors_internal + in_flight > accepted`` while every
        500 comes from the engine)."""
        counts, latencies = stats.snapshot()

        def count(name: str) -> int:
            return int(counts.get(name, 0))

        return cls(
            accepted=count("accepted"),
            completed=count("completed"),
            rejected_queue_full=count("rejected_queue_full"),
            rejected_rate_limited=count("rejected_rate_limited"),
            rejected_invalid=count("rejected_invalid"),
            rejected_shutdown=count("rejected_shutdown"),
            shed_degraded=count("shed_degraded"),
            errors_internal=count("errors_internal"),
            queue_depth=queue_depth,
            in_flight=count("in_flight"),
            uptime_s=uptime_s,
            queue_wait=latencies.get("queue_wait", NO_SAMPLES),
            handle=latencies.get("handle", NO_SAMPLES),
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the ``/stats`` endpoint."""
        return {
            "accepted": self.accepted,
            "completed": self.completed,
            "rejected": {
                "queue_full": self.rejected_queue_full,
                "rate_limited": self.rejected_rate_limited,
                "invalid": self.rejected_invalid,
                "shutdown": self.rejected_shutdown,
            },
            "shed_degraded": self.shed_degraded,
            "errors_internal": self.errors_internal,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "uptime_s": round(self.uptime_s, 3),
            "queue_wait": self.queue_wait.to_dict(),
            "handle": self.handle.to_dict(),
        }
