"""Tests for the staged query-execution engine (``repro.exec``).

Covers the generic machinery (spans, context, plan, degradation policy,
the ``Stats`` accumulator) with a deterministic fake clock, then the
acceptance bar of the refactor: with no deadline, executor answers are
bit-identical — rows, scores, mappings, timing stage set — to the
pre-refactor straight-line pipeline (re-implemented verbatim below as the
reference) over the full 59-query workload on the default build, on
k in {1, 2, 4} shards, and on a journaled corpus.
"""

import random

import pytest

from repro.consolidate.merge import consolidate
from repro.consolidate.ranker import rank_answer
from repro.core.model import build_problem
from repro.exec import (
    ExecutionContext,
    ExecutionPlan,
    QUERY_STAGES,
    QueryState,
    SPAN_DEGRADED,
    SPAN_OK,
    SPAN_SKIPPED,
    Span,
    Stage,
    Stats,
    build_query_plan,
    percentile,
)
from repro.exec.query import FALLBACK_INFERENCE
from repro.inference import (
    REGISTRY,
    AlgorithmTable,
    UnknownAlgorithmError,
    get_algorithm,
    independent_inference,
)
from repro.pipeline.probe import ProbeConfig
from repro.pipeline.wwt import QueryTiming
from repro.service import EngineConfig, WWTService


class FakeClock:
    """Deterministic clock: advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSpan:
    def build(self):
        root = Span("query")
        a = Span("probe.index1", duration=0.010)
        b = Span("probe.index2", duration=0.005, status=SPAN_SKIPPED)
        c = Span("column_map", duration=0.020, counters={"tables": 4})
        root.children = [a, b, c]
        return root

    def test_find_and_total(self):
        root = self.build()
        assert root.find("column_map").counters == {"tables": 4}
        assert root.find("missing") is None
        assert root.total("probe.index1") == pytest.approx(0.010)
        assert root.total("missing") == 0.0

    def test_leaves_and_stage_names_exclude_skipped(self):
        root = self.build()
        assert [s.name for s in root.leaves()] == [
            "probe.index1", "probe.index2", "column_map",
        ]
        assert root.stage_names() == ["probe.index1", "column_map"]

    def test_degraded_property(self):
        assert self.build().degraded
        ok = Span("query", children=[Span("parse")])
        assert not ok.degraded

    def test_to_dict_and_format_tree(self):
        root = self.build()
        data = root.to_dict()
        assert data["name"] == "query"
        assert [c["name"] for c in data["children"]] == [
            "probe.index1", "probe.index2", "column_map",
        ]
        assert data["children"][0]["ms"] == pytest.approx(10.0)
        lines = root.format_tree()
        assert lines[0].startswith("query")
        assert any("skipped" in line for line in lines)
        assert any("tables=4" in line for line in lines)


class TestExecutionContext:
    def test_budget_accounting(self):
        clock = FakeClock()
        ctx = ExecutionContext(deadline_ms=50.0, clock=clock)
        assert ctx.remaining_ms == pytest.approx(50.0)
        assert not ctx.out_of_budget
        clock.advance(0.049)
        assert not ctx.out_of_budget
        clock.advance(0.002)
        assert ctx.out_of_budget
        assert ctx.remaining_ms == pytest.approx(-1.0)

    def test_no_deadline_never_expires(self):
        clock = FakeClock()
        ctx = ExecutionContext(clock=clock)
        clock.advance(1e6)
        assert ctx.remaining_ms is None
        assert not ctx.out_of_budget
        assert not ctx.check_deadline()

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            ExecutionContext(deadline_ms=0)
        with pytest.raises(ValueError):
            ExecutionContext(deadline_ms=-5)
        for non_finite in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ExecutionContext(deadline_ms=non_finite)

    def test_span_nesting_and_durations(self):
        clock = FakeClock()
        ctx = ExecutionContext(clock=clock)
        with ctx.span("outer"):
            clock.advance(0.010)
            with ctx.span("inner"):
                clock.advance(0.002)
                ctx.count("items", 3)
        outer = ctx.root.find("outer")
        inner = ctx.root.find("inner")
        assert outer.duration == pytest.approx(0.012)
        assert inner.duration == pytest.approx(0.002)
        assert inner in outer.children
        assert inner.counters == {"items": 3}
        assert ctx.current is ctx.root  # stack unwound

    def test_skip_marks_degraded(self):
        ctx = ExecutionContext()
        assert not ctx.degraded
        ctx.skip("probe.index2")
        assert ctx.degraded
        span = ctx.root.find("probe.index2")
        assert span.status == SPAN_SKIPPED
        assert span.duration == 0.0


def _recording_stage(name, log, cost=0.0, clock=None, **stage_kwargs):
    """A Stage whose body logs its name (and burns fake-clock time)."""

    def fn(ctx, state):
        log.append(name)
        if clock is not None and cost:
            clock.advance(cost)

    return Stage(name, fn, **stage_kwargs)


class TestExecutionPlan:
    def test_runs_stages_in_order(self):
        log = []
        plan = ExecutionPlan(
            [_recording_stage(n, log) for n in ("a", "b", "c")]
        )
        ctx = ExecutionContext()
        plan.run(ctx, None)
        assert log == ["a", "b", "c"]
        assert [s.name for s in ctx.root.children] == ["a", "b", "c"]
        assert not ctx.degraded and not ctx.deadline_hit

    def test_duplicate_stage_names_rejected(self):
        stage = Stage("x", lambda ctx, s: None)
        with pytest.raises(ValueError, match="duplicate stage names"):
            ExecutionPlan([stage, stage])

    def test_skippable_stages_skipped_after_deadline(self):
        clock = FakeClock()
        log = []
        plan = ExecutionPlan([
            _recording_stage("a", log, cost=0.010, clock=clock),
            _recording_stage("b", log, skippable=True),
            _recording_stage("c", log),  # required: runs over budget
        ])
        ctx = ExecutionContext(deadline_ms=5.0, clock=clock)
        plan.run(ctx, None)
        assert log == ["a", "c"]
        assert ctx.degraded and ctx.deadline_hit
        assert ctx.root.find("b").status == SPAN_SKIPPED
        assert ctx.root.find("c").status == SPAN_OK

    def test_fallback_used_after_deadline(self):
        clock = FakeClock()
        log = []

        def fallback(ctx, state):
            ctx.current.note = "fallback=cheap"
            log.append("cheap")

        plan = ExecutionPlan([
            _recording_stage("slow", log, cost=0.010, clock=clock),
            Stage("map", lambda ctx, s: log.append("full"),
                  fallback=fallback),
        ])
        ctx = ExecutionContext(deadline_ms=5.0, clock=clock)
        plan.run(ctx, None)
        assert log == ["slow", "cheap"]
        span = ctx.root.find("map")
        assert span.status == SPAN_DEGRADED
        assert span.note == "fallback=cheap"

    def test_within_budget_runs_everything(self):
        clock = FakeClock()
        log = []
        plan = ExecutionPlan([
            _recording_stage("a", log, cost=0.001, clock=clock),
            _recording_stage("b", log, skippable=True),
            Stage("map", lambda ctx, s: log.append("full"),
                  fallback=lambda ctx, s: log.append("cheap")),
        ])
        ctx = ExecutionContext(deadline_ms=100.0, clock=clock)
        plan.run(ctx, None)
        assert log == ["a", "b", "full"]
        assert not ctx.degraded and not ctx.deadline_hit

    def test_probe_timing_spans_match_plan(self):
        """The shared timing-field mapping is pinned to the plan's actual
        probe stage names — renames must touch both or fail here."""
        from repro.pipeline.wwt import _PROBE_TIMING_SPANS

        assert [span for _, span in _PROBE_TIMING_SPANS] == [
            s.name for s in QUERY_STAGES if s.name.startswith("probe.")
        ]
        assert [fld for fld, _ in _PROBE_TIMING_SPANS] == [
            "index1", "read1", "confidence", "index2", "read2",
        ]

    def test_stage_names(self):
        plan = build_query_plan()
        assert plan.stage_names() == [
            "parse", "probe.index1", "probe.read1", "probe.confidence",
            "probe.index2", "probe.read2", "column_map", "consolidate",
            "rank",
        ]


class TestStageStats:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.95) == 3.0
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == pytest.approx(50.0, abs=1.0)
        assert percentile(values, 0.95) == pytest.approx(95.0, abs=1.0)

    def test_accumulator_snapshot(self):
        acc = Stats()
        for v in (0.010, 0.020, 0.030):
            acc.record({"events": 1}, [("stage", v)])
        counts, latencies = acc.snapshot()
        assert counts == {"events": 3}
        stats = latencies["stage"]
        assert stats.count == 3
        assert stats.total == pytest.approx(0.060)
        assert stats.mean == pytest.approx(0.020)
        assert stats.p50 == pytest.approx(0.020)
        data = stats.to_dict()
        assert set(data) == {"count", "total", "mean", "p50", "p95"}

    def test_reservoir_bounds_memory(self):
        acc = Stats(reservoir=4)
        for i in range(100):
            acc.record(latencies=[("stage", float(i))])
        stats = acc.snapshot()[1]["stage"]
        assert stats.count == 100  # count/total are exact
        assert stats.total == pytest.approx(sum(range(100)))
        assert stats.p50 >= 96.0  # percentiles over the recent window

    def test_counts_are_signed_deltas_and_keep_their_type(self):
        acc = Stats()
        assert acc.snapshot() == ({}, {})
        acc.record({"in_flight": 1, "seconds": 0.5})
        acc.record({"in_flight": -1, "done": 1, "seconds": 0.25})
        counts, latencies = acc.snapshot()
        assert counts == {"in_flight": 0, "done": 1, "seconds": 0.75}
        assert type(counts["done"]) is int
        assert latencies == {}

    def test_one_record_is_one_event_under_concurrency(self):
        """A snapshot never sees half of a record() call, and no update
        is lost."""
        import sys
        import threading

        acc = Stats()
        writes = 3000

        def writer():
            for _ in range(writes):
                acc.record({"a": 1, "b": 1}, [("x", 0.001)])

        threads = [threading.Thread(target=writer) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                counts, latencies = acc.snapshot()
                assert counts.get("a", 0) == counts.get("b", 0)
                if "x" in latencies:
                    assert latencies["x"].count == counts["a"]
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        counts, latencies = acc.snapshot()
        assert counts == {"a": 6 * writes, "b": 6 * writes}
        assert latencies["x"].count == 6 * writes


class TestRegistryFastest:
    """The deadline fallback is a constant: the table's cheapest entry."""

    def test_default_registry_fastest_is_non_collective(self):
        assert FALLBACK_INFERENCE == "none"
        assert REGISTRY[FALLBACK_INFERENCE] is independent_inference

    def test_empty_registry_raises(self):
        with pytest.raises(UnknownAlgorithmError):
            AlgorithmTable({}).get_algorithm(FALLBACK_INFERENCE)


# -- bit-identity vs the pre-refactor pipeline ----------------------------


def reference_probe(query, corpus, config, params):
    """The pre-refactor ``two_stage_probe`` body, kept verbatim as the
    equivalence baseline (timings stripped; same RNG discipline)."""
    from repro.inference.base import column_distributions
    from repro.inference.max_marginals import all_max_marginals
    from repro.pipeline.probe import ProbeResult
    from repro.text.tokenize import tokenize

    rng = random.Random(config.seed)

    def _trim(hits):
        if not hits:
            return hits
        floor = hits[0].score * config.min_score_fraction
        if hits[-1].score >= floor:
            return hits
        return [h for h in hits if h.score >= floor]

    stage1_hits = _trim(
        corpus.search(query.all_tokens(), limit=config.stage1_limit)
    )
    stage1_ids = [h.doc_id for h in stage1_hits]
    stage1_tables = corpus.get_many(stage1_ids)
    if not stage1_tables:
        return ProbeResult(
            tables=[], stage1_ids=[], stage2_ids=[], used_second_stage=False
        )

    problem = build_problem(query, stage1_tables, corpus.stats, params)
    distributions = column_distributions(problem, all_max_marginals(problem))
    confidences = []
    for ti in range(len(stage1_tables)):
        best = 0.0
        for tc in problem.table_columns(ti):
            dist = distributions[tc]
            mass = max(dist[l] for l in problem.labels.query_labels())
            best = max(best, mass)
        confidences.append(best)
    ranked = sorted(
        range(len(stage1_tables)), key=lambda i: -confidences[i]
    )
    seeds = [
        stage1_tables[i]
        for i in ranked[: config.num_seed_tables]
        if confidences[i] >= config.seed_confidence
    ]

    stage2_ids = []
    if seeds:
        sample_tokens = []
        all_rows = [row for table in seeds for row in table.body_rows()]
        rng.shuffle(all_rows)
        for row in all_rows[: config.num_sample_rows]:
            for cell in row:
                sample_tokens.extend(tokenize(cell.text))
        probe2 = query.all_tokens() + sample_tokens
        stage2_hits = _trim(corpus.search(probe2, limit=config.stage2_limit))
        seen = set(stage1_ids)
        stage2_ids = [h.doc_id for h in stage2_hits if h.doc_id not in seen]

    tables = stage1_tables + corpus.get_many(stage2_ids)
    return ProbeResult(
        tables=tables,
        stage1_ids=stage1_ids,
        stage2_ids=stage2_ids,
        used_second_stage=bool(stage2_ids),
        seed_table_ids=[t.table_id for t in seeds],
    )


def reference_compute(query, corpus, config):
    """The pre-refactor ``WWTService._compute`` straight line: probe ->
    column map -> consolidate -> rank, no caches, no executor."""
    algorithm = get_algorithm(config.inference)
    probe = reference_probe(query, corpus, config.probe, config.params)
    problem = build_problem(query, probe.tables, corpus.stats, config.params)
    mapping = algorithm(problem)
    mappings = {
        ti: mapping.table_mapping(ti) for ti in mapping.relevant_tables()
    }
    relevance = {ti: mapping.table_relevance_score(ti) for ti in mappings}
    answer = rank_answer(consolidate(query, probe.tables, mappings, relevance))
    return probe, mapping, answer


def answer_fingerprint(probe, mapping, answer):
    """Everything the acceptance bar compares, exact floats included."""
    return {
        "stage1_ids": list(probe.stage1_ids),
        "stage2_ids": list(probe.stage2_ids),
        "seed_table_ids": list(probe.seed_table_ids),
        "labels": dict(mapping.labels),
        "rows": [
            (tuple(r.cells), r.support, r.relevance, tuple(r.source_tables))
            for r in answer.rows
        ],
    }


#: Expected timing stage set — must never drift (Figure 7's schema).
TIMING_STAGES = {
    "1st Index", "1st Table Read", "2nd Index", "2nd Table Read",
    "Column Map", "Consolidate",
}


class TestExecutorBitIdentity:
    """No deadline => executor answers == pre-refactor pipeline answers,
    over the 59-query workload, whatever shape the corpus has."""

    def _check_workload(self, corpus, queries, expected):
        service = WWTService(corpus)
        for wq in queries:
            full = service.answer_full(wq.query)
            got = answer_fingerprint(full.probe, full.mapping, full.answer)
            assert got == expected[wq.query_id], wq.query_id
            assert not full.degraded
            slices = full.timing.as_dict()
            assert set(slices) == TIMING_STAGES
            assert slices["2nd Index"] == full.spans.total("probe.index2")

    @pytest.fixture(scope="class")
    def expected(self, small_env):
        """Reference fingerprints, computed once on the default build
        with the verbatim pre-refactor pipeline (rankings do not depend
        on the shard count, per the PR 2-4 guarantees)."""
        config = EngineConfig()
        return {
            wq.query_id: answer_fingerprint(
                *reference_compute(wq.query, small_env.synthetic.corpus,
                                   config)
            )
            for wq in small_env.queries
        }

    def test_default_build(self, small_env, expected):
        assert len(small_env.queries) == 59
        self._check_workload(
            small_env.synthetic.corpus, small_env.queries, expected
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_sharded(self, small_env, expected, k):
        from repro.index import build_sharded_corpus

        tables = list(small_env.synthetic.corpus)
        with build_sharded_corpus(tables, k) as corpus:
            self._check_workload(corpus, small_env.queries, expected)

    def test_journaled(self, small_env, expected, tmp_path):
        from repro.index import build_sharded_corpus, load_corpus

        tables = list(small_env.synthetic.corpus)
        build_sharded_corpus(tables, 2).save(tmp_path / "corpus")
        with load_corpus(tmp_path / "corpus") as corpus:
            self._check_workload(corpus, small_env.queries, expected)


class TestProbeThroughExecutor:
    def test_budgeted_probe_degrades_instead_of_erroring(self, small_env):
        """A budget gone before the first stage skips the whole probe."""
        clock = FakeClock()
        ctx = ExecutionContext(deadline_ms=1.0, clock=clock)
        clock.advance(1.0)  # budget already gone before the first stage
        state = QueryState(
            query=small_env.queries[0].query,
            corpus=small_env.synthetic.corpus,
            probe_config=ProbeConfig(),
            params=EngineConfig().params,
            rng=random.Random(0),
        )
        build_query_plan().run(ctx, state)
        assert ctx.degraded
        assert state.probe.tables == []
        assert not state.probe.used_second_stage


class TestServiceDegradation:
    def test_tight_deadline_returns_degraded_flagged_response(self, small_env):
        service = WWTService(
            small_env.synthetic.corpus, EngineConfig(deadline_ms=0.001)
        )
        response = service.answer("country | currency")
        assert response.degraded
        assert "probe.index2" not in response.stages_ran
        assert "rank" in response.stages_ran  # finalizers always run
        assert response.trace is not None
        stats = service.stats()
        assert stats.deadline_hits == 1
        assert stats.degraded_answers == 1
        # The fallback's latency aggregates under its own key — it must
        # not pollute the configured solver's column_map percentiles.
        assert "column_map:degraded" in stats.stages
        assert "column_map" not in stats.stages

    def test_degraded_answers_are_not_cached(self, small_env):
        service = WWTService(
            small_env.synthetic.corpus, EngineConfig(deadline_ms=0.001)
        )
        first = service.answer("country | gdp")
        second = service.answer("country | gdp")
        assert first.degraded and second.degraded
        assert not second.cache_hit  # a degraded answer never parks in cache
        assert service.stats().result_cache.hits == 0

    def test_generous_deadline_never_degrades(self, small_env):
        bounded = WWTService(
            small_env.synthetic.corpus, EngineConfig(deadline_ms=600000.0)
        )
        unbounded = WWTService(small_env.synthetic.corpus)
        a = bounded.answer("country | currency")
        b = unbounded.answer("country | currency")
        assert not a.degraded
        assert [r.cells for r in a.rows] == [r.cells for r in b.rows]
        assert bounded.stats().deadline_hits == 0

    def test_fallback_inference_recorded_in_trace(self, small_env):
        # A budget that survives the probe but not column_map is hard to
        # time reliably; instead check the trace/note contract on the
        # fully degraded path where column_map must use the fallback.
        service = WWTService(
            small_env.synthetic.corpus, EngineConfig(deadline_ms=0.001)
        )
        response = service.answer("dog breed")
        span = response.trace.find("column_map")
        assert span.status == SPAN_DEGRADED
        assert span.note == "fallback=none"

    def test_fallback_skips_edge_construction(self, small_env):
        """The non-collective fallback never reads cross-table edges, so
        the degraded column_map must not pay to build them."""
        from repro.exec.query import (
            _stage_column_map,
            _stage_column_map_fallback,
        )

        wq = next(
            q for q in small_env.queries
            if small_env.candidates[q.query_id].num_candidates >= 2
        )
        config = EngineConfig()
        state = QueryState(
            query=wq.query,
            corpus=small_env.synthetic.corpus,
            probe_config=config.probe,
            params=config.params,
            inference=config.inference,
            rng=random.Random(config.probe.seed),
        )
        ctx = ExecutionContext()
        # The plan up to (not including) column_map: parse and the probe.
        names = [stage.name for stage in QUERY_STAGES]
        ExecutionPlan(QUERY_STAGES[: names.index("column_map")]).run(
            ctx, state
        )

        with ctx.span("column_map"):
            _stage_column_map_fallback(ctx, state)
        assert state.problem.edges == []
        assert state.fallback_inference == "none"
        assert state.answer is None  # mapping only; consolidate not run

        state.algorithm = get_algorithm(config.inference)
        with ctx.span("column_map_full"):
            _stage_column_map(ctx, state)
        assert len(state.problem.edges) > 0  # the full stage does build them

    def test_batch_respects_deadline(self, small_env):
        service = WWTService(
            small_env.synthetic.corpus,
            EngineConfig(deadline_ms=0.001),
        )
        texts = ["country | currency", "dog breed", "country | gdp"]
        responses = service.answer_batch(texts)
        assert all(r.degraded for r in responses)
        assert service.stats().degraded_answers == len(texts)


class TestServiceStageStats:
    def test_per_stage_aggregates_populated(self, small_env):
        service = WWTService(small_env.synthetic.corpus)
        for wq in small_env.queries[:5]:
            service.answer(wq.query)
        stats = service.stats()
        assert set(stats.stages) >= {
            "parse", "probe.index1", "probe.read1", "probe.confidence",
            "probe.index2", "probe.read2", "column_map", "consolidate",
            "rank",
        }
        column_map = stats.stages["column_map"]
        assert column_map.count == 5
        assert column_map.total > 0.0
        assert column_map.p95 >= column_map.p50 >= 0.0
        data = stats.to_dict()
        assert "stages" in data and "deadline_hits" in data
        assert data["stages"]["column_map"]["count"] == 5

    def test_cached_spans_not_double_counted(self, small_env):
        from repro.service import QueryRequest

        service = WWTService(small_env.synthetic.corpus)
        service.answer("country | currency")
        # A result-cache hit carries the original spans; they were not
        # re-executed, so they are not re-counted.
        assert service.answer("country | currency").cache_hit
        assert service.stats().stages["probe.index1"].count == 1
        # A result-cache miss runs, and counts, every stage once.
        service.answer(
            QueryRequest.parse("country | currency", inference="none")
        )
        stats = service.stats()
        assert stats.stages["probe.index1"].count == 2
        assert stats.stages["column_map"].count == 2

    def test_timing_is_view_over_spans(self, small_env):
        service = WWTService(small_env.synthetic.corpus)
        full = service.answer_full("country | currency")
        rebuilt = QueryTiming.from_spans(full.spans)
        assert rebuilt == full.timing
        assert full.timing.consolidate == pytest.approx(
            full.spans.total("consolidate") + full.spans.total("rank")
        )


class TestQueryStateDefaults:
    def test_parse_stage_fills_defaults(self, small_env):
        state = QueryState(
            text="country | currency",
            corpus=small_env.synthetic.corpus,
            params=EngineConfig().params,
            inference="none",
        )
        ctx = ExecutionContext()
        build_query_plan().run(ctx, state)
        assert str(state.query) == "country | currency"
        assert state.algorithm is get_algorithm("none")
        assert isinstance(state.rng, random.Random)
        assert isinstance(state.probe_config, ProbeConfig)
        assert state.answer is not None
