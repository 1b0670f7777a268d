"""Chaos matrix over the 59-query workload.

The invariant under injected faults is the strict failure contract:
every query either returns the **bit-identical** fault-free answer or
**raises** the shard error that hit it — never a degraded flag, never a
silently different answer.  And a failed query leaves nothing behind:
once the injector is disarmed, the *same* service, with its result,
feature and PMI² caches on, answers every query bit-identically.

The matrix runs twice: at the default parameters, and with PMI² on
(``w3 = 0.5``), where every query also scatters dozens of containment
probes (§3.2.3) whose H/B sets land in corpus-level caches.

Determinism notes: every shard scatter is one serial loop, so trigger
sequences are exact — the same chaos config replayed twice produces
byte-for-byte the same outcomes, which the replay test asserts.  The
patched callables themselves must be inert: an armed injector whose
rules never fire changes no answer.
"""

import pytest

from repro.core.params import ModelParams
from repro.index import build_sharded_corpus
from repro.service import EngineConfig, WWTService

from .faults import (
    POINT_SHARD_SEARCH,
    POINT_STORE_GET,
    EveryNth,
    FaultRule,
    InjectedFault,
    WithProbability,
    injected,
)

NUM_SHARDS = 3

#: The two parameter settings the matrix runs at.
PARAMS = {
    "default": ModelParams(),
    "pmi2": ModelParams().with_values(w3=0.5),
}

#: Fault rules of the matrix; each fails some queries at both settings
#: and leaves others untouched.
RULES = {
    "probabilistic": (
        FaultRule(POINT_SHARD_SEARCH, WithProbability(0.001, seed=101)),
        FaultRule(POINT_STORE_GET, WithProbability(0.01, seed=202)),
    ),
    "every_nth": (
        FaultRule(POINT_SHARD_SEARCH, EveryNth(1009)),
        FaultRule(POINT_STORE_GET, EveryNth(97)),
    ),
}


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


def make_service(tables, params=PARAMS["default"], journaled=False):
    """A fresh service over a fresh sharded corpus, caches on.

    ``journaled`` deletes and re-adds one table first, so the corpus
    answers from shards mutated in place with unchanged content.
    """
    corpus = build_sharded_corpus(tables, NUM_SHARDS)
    if journaled:
        corpus.delete_tables([tables[0].table_id])
        corpus.add_tables([tables[0]])
    return WWTService(corpus, EngineConfig(params=params))


@pytest.fixture(scope="module")
def baselines(small_env, tables):
    """Fault-free fingerprints per parameter setting — the bit-identity
    reference for every chaos run."""
    out = {}
    for name, params in PARAMS.items():
        service = make_service(tables, params)
        out[name] = {
            wq.query_id: fingerprint(
                service.answer_full(wq.query, use_cache=False)
            )
            for wq in small_env.queries
        }
    return out


def run_workload(service, queries):
    """One full workload pass: ``(query_id, WWTAnswer or exception)``."""
    outcomes = []
    for wq in queries:
        try:
            outcomes.append((wq.query_id, service.answer_full(wq.query)))
        except Exception as exc:  # the strict contract: the query fails
            outcomes.append((wq.query_id, exc))
    return outcomes


def outcome_digest(outcomes):
    """Replayable value view of a chaos run: which queries raised, and
    what (for exact-replay asserts)."""
    return [
        (query_id, type(out).__name__, str(out))
        if isinstance(out, Exception)
        else (query_id, fingerprint(out))
        for query_id, out in outcomes
    ]


def check_invariant(outcomes, baseline):
    """Every query: the fault-free answer, or the injected fault raised.

    Returns the number of queries that raised.
    """
    raised = 0
    for query_id, out in outcomes:
        if isinstance(out, Exception):
            assert isinstance(out, InjectedFault), (query_id, out)
            raised += 1
        else:
            assert not out.degraded, query_id
            assert out.degraded_reasons == [], query_id
            assert fingerprint(out) == baseline[query_id], query_id
    return raised


def check_after_pass(service, queries, baseline):
    """With the injector disarmed, the same service answers every query
    bit-identically — nothing a failed query computed was kept."""
    for wq in queries:
        full = service.answer_full(wq.query)
        assert not full.degraded, wq.query_id
        assert fingerprint(full) == baseline[wq.query_id], wq.query_id


class TestInertWhenDisabled:
    """Patched callables whose rules never fire must change nothing."""

    def test_armed_injector_with_never_firing_rules_is_inert(
        self, small_env, tables, baselines
    ):
        rules = [
            FaultRule(POINT_SHARD_SEARCH, WithProbability(0.0, seed=1)),
            FaultRule(POINT_STORE_GET, WithProbability(0.0, seed=2)),
        ]
        with injected(*rules) as injector:
            outcomes = run_workload(make_service(tables), small_env.queries)
            assert injector.fires() == 0
            assert any(
                s["evaluations"] > 0 for s in injector.snapshot()
            )  # the patches really were called, the rules just never fired
        assert check_invariant(outcomes, baselines["default"]) == 0


class TestChaosMatrix:
    @pytest.mark.parametrize("rules", sorted(RULES))
    @pytest.mark.parametrize("params", sorted(PARAMS))
    def test_every_query_is_exact_or_raises_and_nothing_sticks(
        self, small_env, tables, baselines, params, rules
    ):
        service = make_service(tables, PARAMS[params])
        with injected(*RULES[rules]) as injector:
            outcomes = run_workload(service, small_env.queries)
            assert injector.fires() > 0  # the run actually saw chaos
        raised = check_invariant(outcomes, baselines[params])
        assert 0 < raised < len(small_env.queries)
        check_after_pass(service, small_env.queries, baselines[params])

    def test_clean_journaled_corpus_fails_exactly_like_its_base(
        self, small_env, tables, baselines
    ):
        """Regression: a journaled corpus once read tables past the fault
        point, so a table-read fault was silently skipped."""
        rules = [
            FaultRule(POINT_SHARD_SEARCH, WithProbability(0.05, seed=303)),
            FaultRule(POINT_STORE_GET, WithProbability(0.005, seed=404)),
        ]
        runs = []
        for journaled in (False, True):
            with injected(*rules):
                runs.append(run_workload(
                    make_service(tables, journaled=journaled),
                    small_env.queries,
                ))
        plain, journaled = runs
        assert check_invariant(journaled, baselines["default"]) > 0
        assert outcome_digest(journaled) == outcome_digest(plain)

    def test_every_nth_faults_replay_byte_identically(
        self, small_env, tables, baselines
    ):
        def run():
            with injected(FaultRule(POINT_SHARD_SEARCH, EveryNth(7))):
                return run_workload(make_service(tables), small_env.queries)

        first = run()
        assert check_invariant(first, baselines["default"]) > 0
        assert outcome_digest(run()) == outcome_digest(first)

    def test_single_shard_outage_heals_between_queries(
        self, small_env, tables, baselines
    ):
        # Shard 1 fails every third probe that reaches it.  Nothing is
        # latched, so the queries it misses answer in full.
        service = make_service(tables)
        with injected(FaultRule(POINT_SHARD_SEARCH, EveryNth(3), key="1")):
            outcomes = run_workload(service, small_env.queries)
        raised = check_invariant(outcomes, baselines["default"])
        assert 0 < raised < len(small_env.queries)
        for _, out in outcomes:
            if isinstance(out, Exception):
                assert (out.point, out.key) == (POINT_SHARD_SEARCH, "1")
        check_after_pass(service, small_env.queries, baselines["default"])
