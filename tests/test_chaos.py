"""Chaos matrix over the 59-query workload.

The invariant under injected faults (ISSUE 9's acceptance bar): every
answer is either **bit-identical** to the fault-free computation or
**flagged degraded with an accurate coverage record** — never a crash,
never a silent wrong answer.  And the seam itself must be provably
inert: with no injector active (or an armed injector whose rules never
fire), a health-enabled corpus answers bit-identically to the plain
sharded baseline.

Determinism notes: every shard scatter is one serial loop and every
health tracker runs on a fake clock advanced only between queries, so
trigger sequences and backoff windows are exact — the same chaos config
replayed twice produces byte-for-byte the same outcomes, which the
replay test asserts.
"""

import pytest

from repro.exec.context import REASON_SHARD_FAILURE
from repro.faults import (
    EveryNth,
    FaultRule,
    HealthPolicy,
    WithProbability,
    injected,
)
from repro.faults.injection import (
    POINT_SHARD_SEARCH,
    POINT_STORE_GET,
)
from repro.index import ShardedCorpus, build_sharded_corpus
from repro.service import WWTService

NUM_SHARDS = 3

#: Never heals within a run (the fake clock stays at 0): a shard that
#: fails once is out for the rest of the workload — deterministic.
STICKY = HealthPolicy(
    max_retries=0, backoff_s=0.05, reopen_after_s=3600.0,
)
#: Heals between queries when the clock is advanced past the window.
HEALING = HealthPolicy(
    max_retries=0, backoff_s=0.05, reopen_after_s=5.0,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def fingerprint(full):
    """Everything the acceptance bar compares, exact floats included."""
    return {
        "stage1_ids": list(full.probe.stage1_ids),
        "stage2_ids": list(full.probe.stage2_ids),
        "seed_table_ids": list(full.probe.seed_table_ids),
        "labels": dict(full.mapping.labels),
        "rows": [
            (tuple(r.cells), r.support, r.relevance, tuple(r.source_tables))
            for r in full.answer.rows
        ],
    }


@pytest.fixture(scope="module")
def tables(small_env):
    return list(small_env.synthetic.corpus)


@pytest.fixture(scope="module")
def baseline(small_env, tables):
    """Fault-free fingerprints on the plain sharded backend (no health,
    no injector) — the bit-identity reference for every chaos run."""
    service = WWTService(build_sharded_corpus(tables, NUM_SHARDS))
    return {
        wq.query_id: fingerprint(
            service.answer_full(wq.query, use_cache=False)
        )
        for wq in small_env.queries
    }


def run_workload(tables, queries, policy=None, clock=None,
                 advance_between=0.0, journaled=False):
    """One full workload pass; returns ``(query_id, WWTAnswer)`` pairs.

    ``journaled`` deletes and re-adds one table before serving, so the
    corpus answers from shards mutated in place with unchanged content.
    """
    built = build_sharded_corpus(tables, NUM_SHARDS)
    corpus = (
        built
        if policy is None
        else ShardedCorpus(
            built.shards, built.stats,
            validate=False, health=policy, clock=clock,
        )
    )
    if journaled:
        corpus.delete_tables([tables[0].table_id])
        corpus.add_tables([tables[0]])
    service = WWTService(corpus)
    outcomes = []
    for wq in queries:
        outcomes.append(
            (wq.query_id, service.answer_full(wq.query, use_cache=False))
        )
        if clock is not None and advance_between:
            clock.advance(advance_between)
    return outcomes


def outcome_digest(outcomes):
    """Replayable value view of a chaos run (for exact-replay asserts)."""
    return [
        (
            query_id,
            full.degraded,
            tuple(full.degraded_reasons),
            None if full.coverage is None else full.coverage.to_dict(),
            fingerprint(full),
        )
        for query_id, full in outcomes
    ]


def check_invariant(outcomes, baseline, num_tables):
    """Every answer: bit-identical, or degraded with accurate coverage."""
    degraded_count = 0
    for query_id, full in outcomes:
        if not full.degraded:
            assert full.coverage is None
            assert fingerprint(full) == baseline[query_id], query_id
        else:
            degraded_count += 1
            assert full.degraded_reasons == [REASON_SHARD_FAILURE], query_id
            coverage = full.coverage
            assert coverage is not None, query_id
            assert not coverage.complete
            assert coverage.shards_total == NUM_SHARDS
            assert coverage.shards_reachable < NUM_SHARDS
            assert coverage.tables_total == num_tables
            assert 0.0 <= coverage.fraction < 1.0
    return degraded_count


class TestInertWhenDisabled:
    """Fault machinery present but quiet must change nothing at all."""

    def test_health_enabled_corpus_matches_plain_baseline(
        self, small_env, tables, baseline
    ):
        outcomes = run_workload(
            tables, small_env.queries, policy=STICKY, clock=FakeClock()
        )
        for query_id, full in outcomes:
            assert not full.degraded, query_id
            assert full.coverage is None
            assert fingerprint(full) == baseline[query_id], query_id

    def test_armed_injector_with_never_firing_rules_is_inert(
        self, small_env, tables, baseline
    ):
        rules = [
            FaultRule(POINT_SHARD_SEARCH, WithProbability(0.0, seed=1)),
            FaultRule(POINT_STORE_GET, WithProbability(0.0, seed=2)),
        ]
        with injected(*rules) as injector:
            outcomes = run_workload(
                tables, small_env.queries, policy=STICKY, clock=FakeClock()
            )
            assert injector.fires() == 0
            assert any(
                s["evaluations"] > 0 for s in injector.snapshot()
            )  # the points really were tripped, the rules just never fired
        for query_id, full in outcomes:
            assert not full.degraded, query_id
            assert fingerprint(full) == baseline[query_id], query_id


class TestChaosMatrix:
    def test_probabilistic_faults_never_crash_or_lie(
        self, small_env, tables, baseline
    ):
        rules = [
            FaultRule(POINT_SHARD_SEARCH, WithProbability(0.10, seed=101)),
            FaultRule(POINT_STORE_GET, WithProbability(0.02, seed=202)),
        ]
        with injected(*rules) as injector:
            outcomes = run_workload(
                tables, small_env.queries, policy=STICKY, clock=FakeClock()
            )
            assert injector.fires() > 0  # the run actually saw chaos
        degraded = check_invariant(outcomes, baseline, len(tables))
        assert degraded > 0

    def test_clean_journaled_corpus_degrades_exactly_like_its_base(
        self, small_env, tables, baseline
    ):
        """Regression: a journaled corpus once read tables past the health
        tracker, so a table-read fault crashed the query instead."""
        rules = [
            FaultRule(POINT_SHARD_SEARCH, WithProbability(0.05, seed=303)),
            FaultRule(POINT_STORE_GET, WithProbability(0.05, seed=404)),
        ]
        runs = []
        for journaled in (False, True):
            with injected(*rules):
                runs.append(run_workload(
                    tables, small_env.queries, policy=STICKY,
                    clock=FakeClock(), journaled=journaled,
                ))
        plain, journaled = runs
        assert check_invariant(journaled, baseline, len(tables)) > 0
        assert outcome_digest(journaled) == outcome_digest(plain)

    def test_every_nth_faults_replay_byte_identically(
        self, small_env, tables, baseline
    ):
        def run():
            with injected(
                FaultRule(POINT_SHARD_SEARCH, EveryNth(7))
            ):
                return run_workload(
                    tables, small_env.queries,
                    policy=STICKY, clock=FakeClock(),
                )

        first = run()
        check_invariant(first, baseline, len(tables))
        assert outcome_digest(run()) == outcome_digest(first)

    def test_single_shard_outage_heals_between_queries(
        self, small_env, tables, baseline
    ):
        clock = FakeClock()
        # Shard 1 fails every other probe that reaches it; the clock
        # jumps past the reopen window between queries, so the shard
        # oscillates outage -> probation heal -> outage deterministically.
        with injected(
            FaultRule(POINT_SHARD_SEARCH, EveryNth(2), key="1")
        ):
            outcomes = run_workload(
                tables, small_env.queries, policy=HEALING, clock=clock,
                advance_between=10.0,
            )
        degraded = check_invariant(outcomes, baseline, len(tables))
        # The outage is real but not total: some queries answered at full
        # coverage (healed windows), some were flagged partial.
        assert 0 < degraded < len(small_env.queries)
        for _, full in outcomes:
            if full.degraded:
                assert full.coverage.shards_reachable == NUM_SHARDS - 1
