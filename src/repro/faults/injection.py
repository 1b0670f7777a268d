"""Named fault points with deterministic, seeded trigger policies.

The engine's risky edges each call :func:`trip` with a stable point name
(and, where it helps targeting, a per-call key such as the shard ordinal
or table id).  With no injector active — the default, and the only state
tier-1 tests ever see — ``trip`` is a single module-global ``None``
check, so the seam costs nothing and changes nothing.  Tests and the
chaos harness activate a :class:`FaultInjector` (usually through the
:func:`injected` context manager), whose rules decide *deterministically*
when a point fires: the same rules over the same call sequence always
fault the same calls, which is what makes chaos runs reproducible and
their assertions exact.

Fault-point catalog (see DESIGN.md, "Fault injection and the failure
contract"):

========================  ====================================================
point                     guarded edge
========================  ====================================================
``shard.materialize``     first-probe load of a
                          :meth:`~repro.index.sharded.Shard.open` shard
                          (mmap open, decode, cross-checks)
``shard.search``          one shard's scatter-gather probe
                          (:class:`~repro.index.sharded.ShardedCorpus`)
``store.get``             :meth:`~repro.index.store.TableStore.get`
``journal.append``        :func:`~repro.index.journal.append_records`
                          (write + flush + fsync)
``serve.worker``          one worker-pool execution in
                          :class:`~repro.serve.server.ReproServer`
========================  ====================================================
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

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
    "TriggerPolicy",
    "WithProbability",
    "activate",
    "active_injector",
    "deactivate",
    "injected",
    "trip",
]

#: Materialization of a :meth:`~repro.index.sharded.Shard.open` shard.
POINT_SHARD_MATERIALIZE = "shard.materialize"
#: One shard's probe inside the scatter-gather.
POINT_SHARD_SEARCH = "shard.search"
#: A :class:`~repro.index.store.TableStore` single-table read.
POINT_STORE_GET = "store.get"
#: A write-ahead journal append (write + flush + fsync).
POINT_JOURNAL_APPEND = "journal.append"
#: One serve-worker execution, before the engine is invoked.
POINT_SERVE_WORKER = "serve.worker"

#: Every point name compiled into the engine.  :class:`FaultRule`
#: validates against this set so a typo in a chaos config fails loudly
#: at construction instead of silently never firing.
KNOWN_POINTS = frozenset({
    POINT_SHARD_MATERIALIZE,
    POINT_SHARD_SEARCH,
    POINT_STORE_GET,
    POINT_JOURNAL_APPEND,
    POINT_SERVE_WORKER,
})


class InjectedFault(RuntimeError):
    """The error a fired fault point raises.

    A distinct type so chaos tests can tell injected failures from real
    bugs, while subclassing :class:`RuntimeError` keeps production
    handlers (which catch ``Exception``) exercising their real paths.
    """

    def __init__(self, point: str, key: Optional[str] = None) -> None:
        self.point = point
        self.key = key
        at = f" (key={key!r})" if key is not None else ""
        super().__init__(f"injected fault at {point}{at}")


class TriggerPolicy:
    """Decides whether one evaluation of a rule fires.

    Policies are frozen value objects; all mutable trigger state (the
    per-rule evaluation counter and RNG) lives in the
    :class:`FaultInjector`, so one policy object can be shared between
    rules and runs without cross-talk.
    """

    def make_rng(self) -> Optional[random.Random]:
        """A private seeded RNG for the rule, or ``None`` if not needed."""
        return None

    def should_fire(
        self, evaluation: int, rng: Optional[random.Random]
    ) -> bool:
        """Fire on the ``evaluation``-th matching call (1-based)?"""
        raise NotImplementedError


@dataclass(frozen=True)
class EveryNth(TriggerPolicy):
    """Fire on every ``n``-th matching call (1-based; ``n=1`` = always)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("EveryNth needs n >= 1")

    def should_fire(
        self, evaluation: int, rng: Optional[random.Random]
    ) -> bool:
        """True on evaluations ``n, 2n, 3n, ...``."""
        return evaluation % self.n == 0


@dataclass(frozen=True)
class Once(TriggerPolicy):
    """Fire exactly once, on the ``at``-th matching call (1-based)."""

    at: int = 1

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("Once needs at >= 1")

    def should_fire(
        self, evaluation: int, rng: Optional[random.Random]
    ) -> bool:
        """True only on evaluation number ``at``."""
        return evaluation == self.at


@dataclass(frozen=True)
class WithProbability(TriggerPolicy):
    """Fire each matching call with probability ``p``, from a seeded RNG.

    Deterministic despite being "random": the injector gives each rule
    its own ``random.Random(seed)``, so the same rule over the same call
    sequence fires on exactly the same calls, every run.
    """

    p: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("WithProbability needs 0.0 <= p <= 1.0")

    def make_rng(self) -> Optional[random.Random]:
        """The rule's private ``random.Random(seed)`` stream."""
        return random.Random(self.seed)

    def should_fire(
        self, evaluation: int, rng: Optional[random.Random]
    ) -> bool:
        """One uniform draw from the rule's private stream."""
        if rng is None:
            raise RuntimeError("WithProbability rules need their seeded RNG")
        return rng.random() < self.p


@dataclass(frozen=True)
class FaultRule:
    """Arm one fault point with a trigger policy.

    ``key=None`` matches every call at the point; a non-``None`` key
    restricts the rule to calls that pass that exact key (e.g. shard
    ordinal ``"1"``), which is how chaos tests target a single failure
    domain.  Evaluation counters are per-rule: a keyed rule only counts
    calls it matched.
    """

    point: str
    policy: TriggerPolicy
    key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; known points: "
                f"{sorted(KNOWN_POINTS)}"
            )


class _RuleState:
    """Mutable trigger state for one armed rule (guarded by the injector)."""

    __slots__ = ("evaluations", "fires", "rng")

    def __init__(self, rng: Optional[random.Random]) -> None:
        self.evaluations = 0
        self.fires = 0
        self.rng = rng


class FaultInjector:
    """Evaluates armed rules at every tripped fault point.

    Thread-safe: concurrent queries (the HTTP server's workers) trip
    points concurrently, so counter and RNG updates happen under
    one lock.  The raise itself happens
    outside the lock.
    """

    def __init__(self, rules: Sequence[FaultRule]) -> None:
        self._rules: List[FaultRule] = list(rules)
        self._lock = threading.Lock()
        self._states: List[_RuleState] = [
            _RuleState(rule.policy.make_rng()) for rule in self._rules
        ]

    def check(self, point: str, key: Optional[str] = None) -> None:
        """Evaluate every rule matching ``(point, key)``; raise on fire."""
        fired: Optional[FaultRule] = None
        with self._lock:
            for rule, rule_state in zip(self._rules, self._states):
                if rule.point != point:
                    continue
                if rule.key is not None and rule.key != key:
                    continue
                rule_state.evaluations += 1
                if rule.policy.should_fire(
                    rule_state.evaluations, rule_state.rng
                ):
                    rule_state.fires += 1
                    fired = rule
                    break
        if fired is not None:
            raise InjectedFault(point, key)

    def snapshot(self) -> List[Dict[str, object]]:
        """Per-rule ``{point, key, evaluations, fires}`` (test assertions)."""
        with self._lock:
            return [
                {
                    "point": rule.point,
                    "key": rule.key,
                    "evaluations": rule_state.evaluations,
                    "fires": rule_state.fires,
                }
                for rule, rule_state in zip(self._rules, self._states)
            ]

    def fires(self, point: Optional[str] = None) -> int:
        """Total fires, optionally restricted to one point."""
        with self._lock:
            return sum(
                rule_state.fires
                for rule, rule_state in zip(self._rules, self._states)
                if point is None or rule.point == point
            )


# The module-global seam.  `trip` reads `_ACTIVE` without a lock: Python
# attribute reads are atomic, and the only states are None (disabled — a
# no-op) or a fully constructed injector, so a racing reader sees one or
# the other, never a half-built object.
_ACTIVE: Optional[FaultInjector] = None
_ACTIVATION_LOCK = threading.Lock()


def trip(point: str, key: Optional[str] = None) -> None:
    """Evaluate fault point ``point``; no-op unless an injector is active.

    This is the call compiled into the engine's risky edges.  Disabled
    cost: one global read and a ``None`` comparison.
    """
    injector = _ACTIVE
    if injector is None:
        return
    injector.check(point, key)


def activate(injector: FaultInjector) -> None:
    """Install ``injector`` as the process-wide active injector.

    Refuses to stack: activating while another injector is active raises
    ``RuntimeError``, because two overlapping chaos scopes would make
    each other's trigger sequences nondeterministic.
    """
    global _ACTIVE
    with _ACTIVATION_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError(
                "a FaultInjector is already active; deactivate() it first "
                "(fault scopes must not overlap)"
            )
        _ACTIVE = injector


def deactivate() -> None:
    """Remove the active injector (idempotent); ``trip`` is a no-op again."""
    global _ACTIVE
    with _ACTIVATION_LOCK:
        _ACTIVE = None


def active_injector() -> Optional[FaultInjector]:
    """The currently active injector, or ``None`` when disabled."""
    return _ACTIVE


@contextmanager
def injected(
    *rules: FaultRule,
) -> Iterator[FaultInjector]:
    """Activate a fresh injector over ``rules`` for the ``with`` body.

    ::

        with injected(FaultRule("shard.search", EveryNth(3), key="1")):
            corpus.search(["country"])   # shard 1's every 3rd probe faults

    Deactivation is guaranteed on exit, so a failing test cannot leak an
    armed injector into the rest of the suite.
    """
    injector = FaultInjector(list(rules))
    activate(injector)
    try:
        yield injector
    finally:
        deactivate()

