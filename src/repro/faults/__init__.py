"""``repro.faults`` — deterministic fault injection and failure domains.

Two halves, both stdlib-only and fully seeded:

- :mod:`repro.faults.injection` — named fault points (``trip``) compiled
  into the risky edges of the engine (shard materialization, per-shard
  search, table-store reads, journal appends, serve workers).  Disabled
  — the default, and the only state tier-1 tests ever see — a tripped
  point is a single module-global ``None`` check.  Activated, a
  :class:`FaultInjector` evaluates deterministic trigger policies
  (every-Nth, probability-with-seed, one-shot) and raises
  :class:`InjectedFault`.
- :mod:`repro.faults.health` — per-failure-domain health state
  (healthy → retrying → quarantined) with bounded deterministic backoff
  and reopen probation on the injected clock seam, plus the
  :class:`Coverage` record that quantifies how much of the corpus a
  partial answer actually consulted.

See DESIGN.md, "Failure domains & fault injection".
"""

from .health import (
    DOMAIN_HEALTHY,
    DOMAIN_QUARANTINED,
    DOMAIN_RETRYING,
    Coverage,
    HealthPolicy,
    HealthTracker,
)
from .injection import (
    KNOWN_POINTS,
    POINT_JOURNAL_APPEND,
    POINT_SERVE_WORKER,
    POINT_SHARD_MATERIALIZE,
    POINT_SHARD_SEARCH,
    POINT_STORE_GET,
    EveryNth,
    FaultInjector,
    FaultRule,
    InjectedFault,
    Once,
    WithProbability,
    activate,
    active_injector,
    deactivate,
    injected,
    trip,
)

__all__ = [
    "Coverage",
    "DOMAIN_HEALTHY",
    "DOMAIN_QUARANTINED",
    "DOMAIN_RETRYING",
    "EveryNth",
    "FaultInjector",
    "FaultRule",
    "HealthPolicy",
    "HealthTracker",
    "InjectedFault",
    "KNOWN_POINTS",
    "Once",
    "POINT_JOURNAL_APPEND",
    "POINT_SERVE_WORKER",
    "POINT_SHARD_MATERIALIZE",
    "POINT_SHARD_SEARCH",
    "POINT_STORE_GET",
    "WithProbability",
    "activate",
    "active_injector",
    "deactivate",
    "injected",
    "trip",
]
