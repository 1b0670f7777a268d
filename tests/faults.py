"""Deterministic fault injection for tests: patch the real callables.

``injected(*rules)`` patches, for its ``with`` body, the callable behind
each armed point to ask the rules first whether to raise InjectedFault
(point: patched callable, and the key a rule can match):

- ``shard.search``: ``Shard.index`` as each per-shard call of
  ``ShardedCorpus._scatter`` reads it (the shard's ordinal in its corpus)
- ``shard.materialize``: ``Shard._read`` (the shard's directory name)
- ``store.get``: ``TableStore.get`` (the table id)
- ``journal.append``: ``repro.index.sharded.append_records`` (none)
- ``serve.worker``: ``WWTService.answer``, which a ``ReproServer`` handler
  thread calls per admitted request (none)

A policy is a plain callable: does the n-th matching call fire?  A rule
counts only calls it matches (its point, and its key unless ``None``);
a lock guards the counters, as concurrent served requests trip them from
several handler threads.
"""

import random
import sys
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional

import pytest

from repro.index import TableStore, sharded
from repro.index.sharded import Shard, ShardedCorpus
from repro.service import WWTService

POINT_SHARD_SEARCH = "shard.search"
POINT_SHARD_MATERIALIZE = "shard.materialize"
POINT_STORE_GET = "store.get"
POINT_JOURNAL_APPEND = "journal.append"
POINT_SERVE_WORKER = "serve.worker"


def EveryNth(n: int) -> Callable[[int], bool]:
    """Fire on every ``n``-th matching call (``n=1`` = always)."""
    if n < 1:
        raise ValueError("EveryNth needs n >= 1")
    return lambda evaluation: evaluation % n == 0


def Once(at: int = 1) -> Callable[[int], bool]:
    """Fire exactly once, on the ``at``-th matching call."""
    if at < 1:
        raise ValueError("Once needs at >= 1")
    return lambda evaluation: evaluation == at


def WithProbability(p: float, seed: int) -> Callable[[int], bool]:
    """Fire the k-th matching call iff draw k of ``Random(seed)`` is < p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("WithProbability needs 0.0 <= p <= 1.0")
    rng, draws = random.Random(seed), []

    def fire(evaluation):
        while len(draws) < evaluation:
            draws.append(rng.random())
        return draws[evaluation - 1] < p

    return fire


class FaultRule(NamedTuple):
    """Arm ``point`` with ``policy``; a non-``None`` key narrows it."""

    point: str
    policy: Callable[[int], bool]
    key: Optional[str] = None


class InjectedFault(RuntimeError):
    """What a fired rule raises, so tests can tell it from a real bug."""

    def __init__(self, point, key=None):
        self.point, self.key = point, key
        at = "" if key is None else f" (key={key!r})"
        super().__init__(f"injected fault at {point}{at}")


class FaultInjector:
    """Per-rule evaluation and fire counts of one ``injected`` scope."""

    def __init__(self, rules):
        self.rules = list(rules)
        self._counts = [{"evaluations": 0, "fires": 0} for _ in self.rules]
        self._lock = threading.Lock()

    def check(self, point, key=None):
        """Count a call against matching rules; the first to fire raises."""
        with self._lock:
            for rule, counts in zip(self.rules, self._counts):
                if rule.point == point and rule.key in (None, key):
                    counts["evaluations"] += 1
                    if rule.policy(counts["evaluations"]):
                        counts["fires"] += 1
                        break
            else:
                return
        raise InjectedFault(point, key)

    def snapshot(self):
        """Per-rule ``{point, key, evaluations, fires}``."""
        with self._lock:
            return [{"point": rule.point, "key": rule.key, **counts}
                    for rule, counts in zip(self.rules, self._counts)]

    def fires(self, point=None):
        """Total fires, optionally at one point only."""
        return sum(s["fires"] for s in self.snapshot()
                   if point in (None, s["point"]))


@contextmanager
def injected(*rules):
    """Patch the armed points' callables for the ``with`` body."""
    injector = FaultInjector(rules)

    def guard(point, fn, key=lambda *args: None):
        def guarded(*args):
            injector.check(point, key(*args))
            return fn(*args)
        return guarded

    def probed_index(shard, index=Shard.index.fget):  # trips in _scatter
        frame = sys._getframe(1)
        while frame and frame.f_code is not ShardedCorpus._scatter.__code__:
            frame = frame.f_back
        if frame:
            corpus = frame.f_locals["self"]
            injector.check(POINT_SHARD_SEARCH, str(corpus.shards.index(shard)))
        return index(shard)

    patches = {
        POINT_SHARD_SEARCH: (Shard, "index", property(probed_index)),
        POINT_SHARD_MATERIALIZE: (Shard, "_read", guard(
            POINT_SHARD_MATERIALIZE, Shard._read, lambda s: s._dir.name)),
        POINT_STORE_GET: (TableStore, "get", guard(
            POINT_STORE_GET, TableStore.get, lambda s, table_id: table_id)),
        POINT_JOURNAL_APPEND: (sharded, "append_records", guard(
            POINT_JOURNAL_APPEND, sharded.append_records)),
        POINT_SERVE_WORKER: (WWTService, "answer", guard(
            POINT_SERVE_WORKER, WWTService.answer)),
    }
    with pytest.MonkeyPatch.context() as patch:
        for point in {rule.point for rule in injector.rules}:
            patch.setattr(*patches[point])
        yield injector
