"""Tests for the experiment harness (easy/hard split, binning, methods)."""

import pytest

from repro.core.params import UNSEGMENTED_PARAMS
from repro.evaluation.answer_quality import answer_rows
from repro.evaluation.harness import (
    METHODS,
    MethodRun,
    answer_row_errors,
    bin_queries,
    probe_statistics,
    run_method,
    split_easy_hard,
)
from repro.query.workload import query_by_id


class TestMethodRuns:
    def test_basic_runs_over_workload(self, small_env):
        run = run_method(small_env, "basic")
        assert len(run.errors) == len(small_env.queries)
        for err in run.errors.values():
            assert 0.0 <= err <= 100.0

    def test_wwt_runs_over_subset(self, small_env):
        ids = [wq.query_id for wq in small_env.queries[:4]]
        run = run_method(small_env, "wwt", query_ids=ids)
        assert set(run.errors) == set(ids)

    def test_mean_error_subset(self):
        run = MethodRun(
            method="x",
            labels={},
            errors={"a": 10.0, "b": 30.0, "c": 50.0},
        )
        assert run.mean_error() == pytest.approx(30.0)
        assert run.mean_error(["a", "b"]) == pytest.approx(20.0)
        assert run.mean_error([]) == 0.0

    def test_all_methods_registered(self):
        assert "basic" in METHODS
        assert "wwt" in METHODS
        assert "wwt-trws" in METHODS

    def test_unknown_method_raises(self, small_env):
        with pytest.raises(KeyError):
            run_method(small_env, "bogus")

    def test_problem_built_once_per_parameter_set(self, small_env):
        wq = small_env.queries[0]
        assert small_env.problem(wq) is small_env.problem(wq)
        assert small_env.problem(wq, UNSEGMENTED_PARAMS) is not (
            small_env.problem(wq)
        )

    def test_edge_ablations_share_the_problem_not_the_edges(self, small_env):
        wq = query_by_id("country | currency")
        full = small_env.problem(wq)
        before = list(full.edges)
        runs = {
            method: run_method(small_env, method, [wq.query_id])
            for method in METHODS if method.startswith("wwt-")
        }
        assert full.edges == before  # ablations copy, never mutate
        assert {"wwt-no-edges", "wwt-no-gating", "wwt-unnormalized",
                "wwt-all-pairs"} <= set(runs)
        for run in runs.values():
            assert 0.0 <= run.errors[wq.query_id] <= 100.0


class TestWorkloadStatistics:
    def test_gold_mapping_has_no_row_error_and_yields_rows(self, small_env):
        wq = query_by_id("country | currency")
        gold = small_env.gold(wq)
        tables = small_env.candidates[wq.query_id].tables
        assert answer_rows(wq.query, tables, gold)
        run = MethodRun("gold", {wq.query_id: gold}, {})
        assert answer_row_errors(small_env, run, [wq.query_id]) == {
            wq.query_id: 0.0
        }

    def test_probe_statistics_are_consistent(self, small_env):
        stats = probe_statistics(small_env)
        assert stats["queries"] == len(small_env.queries)
        assert stats["candidates"] == sum(
            p.num_candidates for p in small_env.candidates.values()
        )
        assert 0 < stats["stage1_relevant"] <= stats["stage1_candidates"]
        assert stats["stage2_relevant"] <= stats["stage2_candidates"]
        assert 0.0 < stats["mean_relevant_fraction"] <= 100.0
        assert stats["recall_one_stage"] <= stats["recall_two_stage"] <= 100.0


class TestGrouping:
    def test_split_easy_hard(self):
        runs = {
            "a": MethodRun("a", {}, {"q1": 10.0, "q2": 50.0}),
            "b": MethodRun("b", {}, {"q1": 10.2, "q2": 20.0}),
        }
        easy, hard = split_easy_hard(runs, ["q1", "q2"])
        assert easy == ["q1"]
        assert hard == ["q2"]

    def test_bin_queries_descending_reference(self):
        errors = {f"q{i}": float(100 - i) for i in range(14)}
        groups = bin_queries(errors, list(errors), num_groups=7)
        assert len(groups) == 7
        assert all(len(g) == 2 for g in groups)
        # Group 1 holds the highest-error queries.
        assert groups[0] == ["q0", "q1"]

    def test_bin_queries_uneven(self):
        errors = {f"q{i}": float(i) for i in range(10)}
        groups = bin_queries(errors, list(errors), num_groups=7)
        assert sum(len(g) for g in groups) == 10
        assert all(groups)  # no empty group when n >= num_groups

    def test_bin_queries_empty(self):
        groups = bin_queries({}, [], num_groups=7)
        assert groups == [[] for _ in range(7)]
