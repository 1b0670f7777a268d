"""``repro.faults`` — deterministic fault injection.

:mod:`repro.faults.injection` compiles named fault points (``trip``) into
the risky edges of the engine: shard materialization, per-shard search,
table-store reads, journal appends and serve workers.  Disabled — the
default, and the only state tier-1 tests ever see — a tripped point is a
single module-global ``None`` check.  Activated, a :class:`FaultInjector`
evaluates deterministic trigger policies (every-Nth,
probability-with-seed, one-shot) and raises :class:`InjectedFault`.

The injected failure takes the same path as a real one: a shard error
raises out of the corpus call that hit it and fails the query (see
DESIGN.md, "Fault injection and the failure contract").
"""

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
    "EveryNth",
    "FaultInjector",
    "FaultRule",
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
