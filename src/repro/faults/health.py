"""Per-failure-domain health state and the :class:`Coverage` record.

A :class:`HealthTracker` watches N independent failure domains (one per
shard of a :class:`~repro.index.sharded.ShardedCorpus`) and runs each
through a three-state machine:

- **healthy** — probes route to the domain normally.
- **retrying** — the domain failed recently; it sits out probes for a
  bounded, deterministic, exponentially growing backoff window, then is
  probed again.
- **quarantined** — more than ``max_retries`` consecutive failures;
  the domain sits out for ``reopen_after_s``, after which the next probe
  is let through as a *reopen attempt* (half-open probation).  Success
  heals the domain back to healthy; failure re-quarantines it for
  another reopen window.

All timing flows through an injectable ``clock`` (the
:func:`repro.exec.context.wall_clock` seam, reprolint R001), so the full
lifecycle — backoff, quarantine, reopen, heal — is testable on a fake
clock with exact assertions.

:class:`Coverage` is the quantitative record a partial answer carries:
how many shards answered and what fraction of the corpus's tables were
reachable.  The serving layers thread it end-to-end (``QueryState`` →
``WWTAnswer`` → ``QueryResponse`` → the serve envelope and ``/healthz``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "Coverage",
    "DOMAIN_HEALTHY",
    "DOMAIN_QUARANTINED",
    "DOMAIN_RETRYING",
    "HealthPolicy",
    "HealthTracker",
]

#: Domain answers probes normally.
DOMAIN_HEALTHY = "healthy"
#: Domain failed recently and is sitting out a backoff window.
DOMAIN_RETRYING = "retrying"
#: Domain exceeded ``max_retries`` consecutive failures; probes are held
#: back until the next reopen attempt.
DOMAIN_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class HealthPolicy:
    """Tunables for the retry/quarantine state machine.

    ``max_retries`` bounds *consecutive* failures before quarantine;
    backoff grows as ``backoff_s * backoff_factor**(failures - 1)``,
    capped at ``max_backoff_s``.  A quarantined domain gets one probe
    through every ``reopen_after_s`` seconds.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    reopen_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0.0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.max_backoff_s < self.backoff_s:
            raise ValueError("max_backoff_s must be >= backoff_s")
        if self.reopen_after_s < 0.0:
            raise ValueError("reopen_after_s must be >= 0")

    def backoff_for(self, consecutive_failures: int) -> float:
        """Deterministic backoff window after the N-th consecutive failure."""
        if consecutive_failures <= 0:
            return 0.0
        window = self.backoff_s * (
            self.backoff_factor ** (consecutive_failures - 1)
        )
        return min(window, self.max_backoff_s)


@dataclass(frozen=True)
class Coverage:
    """How much of the corpus one answer (or the corpus right now) reaches.

    ``complete`` is the invariant serving layers key on: a complete
    coverage means the answer consulted every shard and is bit-identical
    to the fault-free computation; anything else is a partial answer
    that must be flagged degraded and never cached.
    """

    shards_total: int
    shards_reachable: int
    tables_total: int
    tables_reachable: int

    @property
    def fraction(self) -> float:
        """Reachable fraction of the corpus's tables (1.0 when empty)."""
        if self.tables_total == 0:
            return 1.0
        return self.tables_reachable / self.tables_total

    @property
    def complete(self) -> bool:
        """Did every shard answer?"""
        return self.shards_reachable == self.shards_total

    @classmethod
    def full(cls, shards: int, tables: int) -> Coverage:
        """The every-shard-answered record (fault-free corpora)."""
        return cls(
            shards_total=shards,
            shards_reachable=shards,
            tables_total=tables,
            tables_reachable=tables,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for stats payloads and the serve envelope."""
        return {
            "shards_total": self.shards_total,
            "shards_reachable": self.shards_reachable,
            "tables_total": self.tables_total,
            "tables_reachable": self.tables_reachable,
            "fraction": round(self.fraction, 6),
            "complete": self.complete,
        }


class _Domain:
    """Mutable per-domain record (guarded by the tracker's lock)."""

    __slots__ = (
        "state", "consecutive", "failures", "successes", "not_before",
        "last_error",
    )

    def __init__(self) -> None:
        self.state = DOMAIN_HEALTHY
        self.consecutive = 0
        self.failures = 0
        self.successes = 0
        self.not_before = 0.0
        self.last_error = ""


class HealthTracker:
    """Thread-safe health state for ``num_domains`` failure domains.

    The scatter path asks :meth:`available` before probing a domain,
    then reports the outcome through :meth:`record_success` /
    :meth:`record_failure`; everything else (states, coverage,
    snapshots) is derived.  ``clock`` must be monotonic seconds — the
    default is the engine-wide :func:`~repro.exec.context.wall_clock`
    seam.
    """

    def __init__(
        self,
        num_domains: int,
        policy: Optional[HealthPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if num_domains < 1:
            raise ValueError("num_domains must be >= 1")
        if clock is None:
            # Imported lazily: repro.faults sits below repro.exec in the
            # import graph (the index layer imports this package), so the
            # clock-seam default cannot be a module-level import.
            from ..exec.context import wall_clock

            clock = wall_clock
        self.policy = policy if policy is not None else HealthPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._domains = [_Domain() for _ in range(num_domains)]

    @property
    def num_domains(self) -> int:
        """Number of tracked failure domains."""
        return len(self._domains)

    # -- the scatter-path API ---------------------------------------------

    def available(self, domain: int) -> bool:
        """Should a probe route to ``domain`` right now?

        Healthy domains: always.  Retrying/quarantined domains: only
        once their backoff/reopen window has elapsed — that probe *is*
        the retry or reopen attempt (half-open probation), and its
        outcome drives the next transition.
        """
        with self._lock:
            domain_state = self._domains[domain]
            if domain_state.state == DOMAIN_HEALTHY:
                return True
            return self._clock() >= domain_state.not_before

    def record_success(self, domain: int) -> None:
        """A probe of ``domain`` succeeded — heal it to healthy."""
        with self._lock:
            domain_state = self._domains[domain]
            domain_state.state = DOMAIN_HEALTHY
            domain_state.consecutive = 0
            domain_state.successes += 1
            domain_state.not_before = 0.0

    def record_failure(
        self, domain: int, error: Optional[BaseException] = None
    ) -> None:
        """A probe of ``domain`` failed — back off or quarantine it."""
        with self._lock:
            domain_state = self._domains[domain]
            domain_state.consecutive += 1
            domain_state.failures += 1
            if error is not None:
                domain_state.last_error = (
                    f"{type(error).__name__}: {error}"
                )
            now = self._clock()
            if domain_state.consecutive > self.policy.max_retries:
                domain_state.state = DOMAIN_QUARANTINED
                domain_state.not_before = now + self.policy.reopen_after_s
            else:
                domain_state.state = DOMAIN_RETRYING
                domain_state.not_before = now + self.policy.backoff_for(
                    domain_state.consecutive
                )

    # -- derived views ----------------------------------------------------

    def state(self, domain: int) -> str:
        """Current state name of one domain."""
        with self._lock:
            return self._domains[domain].state

    def states(self) -> List[str]:
        """Per-domain state names, in domain order."""
        with self._lock:
            return [d.state for d in self._domains]

    def quarantined(self) -> int:
        """Number of currently quarantined domains."""
        with self._lock:
            return sum(
                1 for d in self._domains if d.state == DOMAIN_QUARANTINED
            )

    def coverage(self, domain_weights: Sequence[int]) -> Coverage:
        """The :class:`Coverage` of a probe routed right now.

        ``domain_weights`` is the per-domain table count; only *healthy*
        domains count as reachable — a retrying/backing-off domain did
        not contribute to the answer being described.
        """
        if len(domain_weights) != len(self._domains):
            raise ValueError(
                f"got {len(domain_weights)} weights for "
                f"{len(self._domains)} domains"
            )
        with self._lock:
            healthy = [
                d.state == DOMAIN_HEALTHY for d in self._domains
            ]
        return Coverage(
            shards_total=len(healthy),
            shards_reachable=sum(healthy),
            tables_total=sum(domain_weights),
            tables_reachable=sum(
                weight for weight, ok in zip(domain_weights, healthy) if ok
            ),
        )

    def snapshot(self) -> List[Dict[str, Any]]:
        """Per-domain diagnostics for stats payloads and tests."""
        with self._lock:
            return [
                {
                    "domain": i,
                    "state": d.state,
                    "consecutive_failures": d.consecutive,
                    "failures": d.failures,
                    "successes": d.successes,
                    "last_error": d.last_error,
                }
                for i, d in enumerate(self._domains)
            ]
