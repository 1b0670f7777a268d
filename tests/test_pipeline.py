"""Integration tests: two-stage probe, end-to-end service, answer quality."""

import pytest

import repro.core.model as core_model
import repro.pipeline.probe as probe_module
from repro.core.model import build_problem
from repro.evaluation.answer_quality import answer_row_error, answer_rows
from repro.pipeline.probe import ProbeConfig, table_confidences, two_stage_probe
from repro.query.model import Query
from repro.query.workload import query_by_id
from repro.service import EngineConfig, WWTService


def uncached_service(corpus, **config):
    """A service that recomputes every query (no result/probe cache)."""
    return WWTService(
        corpus, EngineConfig(cache_size=0, probe_cache_size=0, **config)
    )


class TestTwoStageProbe:
    def test_probe_returns_candidates(self, small_env):
        wq = query_by_id("country | currency")
        result = two_stage_probe(wq.query, small_env.synthetic.corpus)
        assert result.num_candidates > 0
        assert len(result.stage1_ids) > 0
        ids = [t.table_id for t in result.tables]
        assert len(set(ids)) == len(ids)  # no duplicates across stages

    def test_second_stage_adds_content_matches(self, small_env):
        # The second probe must fire for a meaningful share of queries (the
        # paper reports ~65% at full scale; the small test corpus yields
        # fewer confident seed tables, so the bar here is lower).
        fired = sum(
            1 for probe in small_env.candidates.values() if probe.used_second_stage
        )
        assert fired >= 8

    def test_empty_corpus(self):
        from repro.index.builder import build_corpus_index

        corpus = build_corpus_index([])
        result = two_stage_probe(Query.parse("anything"), corpus)
        assert result.tables == []
        assert not result.used_second_stage

    def test_probe_deterministic_given_seed(self, small_env):
        wq = query_by_id("country | gdp")
        config = ProbeConfig(seed=3)
        a = two_stage_probe(wq.query, small_env.synthetic.corpus, config)
        b = two_stage_probe(wq.query, small_env.synthetic.corpus, config)
        assert [t.table_id for t in a.tables] == [t.table_id for t in b.tables]


class TestConfidencePass:
    def test_builds_no_edges_and_matches_with_edges_values(
        self, small_env, monkeypatch
    ):
        """Max-marginals never read edges, so the pass must not build
        them — and skipping them must not move a single confidence."""
        corpus = small_env.synthetic.corpus
        params = EngineConfig().params
        cases = [
            (wq.query, small_env.candidates[wq.query_id].tables)
            for wq in small_env.queries
            if small_env.candidates[wq.query_id].tables
        ][:12]
        assert len(cases) >= 10

        def build_with_edges(*args, **kwargs):
            kwargs.pop("with_edges", None)
            return build_problem(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(probe_module, "build_problem", build_with_edges)
            expected = [
                table_confidences(q, t, corpus, params) for q, t in cases
            ]

        calls = []
        real = core_model.build_edges
        monkeypatch.setattr(
            core_model, "build_edges",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        got = [table_confidences(q, t, corpus, params) for q, t in cases]
        assert calls == []
        assert got == expected


class TestEndToEndService:
    def test_end_to_end_answer(self, small_env):
        service = uncached_service(small_env.synthetic.corpus)
        wq = query_by_id("country | currency")
        result = service.answer_full(wq.query)
        assert result.answer.num_rows > 0
        assert result.answer.header() == ["country", "currency"]
        # A real country/currency pair should surface near the top.
        top = {row.cells[0].lower() for row in result.answer.rows[:20]}
        assert top & {"france", "japan", "germany", "brazil", "india",
                      "china", "canada", "united states"}

    def test_timing_breakdown_complete(self, small_env):
        service = uncached_service(small_env.synthetic.corpus)
        result = service.answer_full(Query.parse("dog breed"))
        timing = result.timing.as_dict()
        assert set(timing) == {
            "1st Index", "1st Table Read", "2nd Index", "2nd Table Read",
            "Column Map", "Consolidate",
        }
        assert sum(timing.values()) == pytest.approx(result.timing.total)
        # The confidence pass is mapper work, not part of the 2nd probe.
        assert timing["2nd Index"] == result.timing.index2
        assert timing["Column Map"] == (
            result.timing.confidence + result.timing.column_map
        )

    def test_inference_choice_validated(self, small_env):
        with pytest.raises(ValueError):
            uncached_service(small_env.synthetic.corpus, inference="nope")

    def test_all_inference_engines_run(self, small_env):
        query = Query.parse("name of explorers | nationality")
        for inference in ("none", "table-centric", "alpha-expansion"):
            service = uncached_service(
                small_env.synthetic.corpus, inference=inference
            )
            result = service.answer_full(query)
            assert result.mapping.algorithm


class TestAnswerQuality:
    def test_identical_labelings_have_zero_error(self, small_env):
        wq = query_by_id("country | currency")
        probe = small_env.candidates[wq.query_id]
        gold = small_env.gold(wq)
        assert answer_row_error(wq.query, probe.tables, gold, gold) == 0.0

    def test_empty_vs_gold_is_total_error(self, small_env):
        wq = query_by_id("country | currency")
        probe = small_env.candidates[wq.query_id]
        gold = small_env.gold(wq)
        from repro.core.labels import LabelSpace

        space = LabelSpace(wq.query.q)
        all_nr = {tc: space.nr for tc in gold}
        if answer_rows(wq.query, probe.tables, gold):
            assert answer_row_error(wq.query, probe.tables, all_nr, gold) == 100.0

    def test_rows_projected_by_mapping(self, small_env):
        wq = query_by_id("country | currency")
        probe = small_env.candidates[wq.query_id]
        gold = small_env.gold(wq)
        rows = answer_rows(wq.query, probe.tables, gold)
        for row in rows:
            assert len(row) == 2
