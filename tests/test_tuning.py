"""Tests for grid training (Section 3.4)."""

import pytest

from repro.core.params import (
    DEFAULT_PARAMS, UNSEGMENTED_PARAMS, ModelParams, enumerate_grid,
)
from repro.evaluation import run_method, tuning
from repro.evaluation.tuning import tune_basic_params, tune_model_params


class TestEnumerateGrid:
    def test_grid_size(self):
        grid = list(enumerate_grid(
            w1_grid=(1.0, 2.0), w2_grid=(0.1,), w3_grid=(0.0,),
            w4_grid=(0.5,), w5_grid=(-0.3, -0.1), we_grid=(0.5,),
        ))
        assert len(grid) == 4

    def test_grid_preserves_base_switches(self):
        base = ModelParams(use_segmented=False)
        grid = list(enumerate_grid(w1_grid=(1.0,), base=base))
        assert all(not p.use_segmented for p in grid)


class TestTuneOnEnvironment:
    def test_tune_basic_small(self, small_env):
        ids = [wq.query_id for wq in small_env.queries[:6]]
        params, err = tune_basic_params(
            small_env,
            relevance_grid=(0.1, 0.2),
            column_grid=(0.2,),
            query_ids=ids,
        )
        assert 0.0 <= err <= 100.0
        assert params.column_threshold == 0.2

    def test_tune_model_small(self, small_env):
        ids = [wq.query_id for wq in small_env.queries[:4]]
        grid = [DEFAULT_PARAMS, DEFAULT_PARAMS.with_values(w4=2.0)]
        best, err, trace = tune_model_params(
            small_env, grid, query_ids=ids
        )
        assert len(trace) == 2
        assert err == min(e for _p, e in trace)

    def test_served_problems_are_reweighted_not_rebuilt(
        self, small_env, monkeypatch
    ):
        """With the served feature switches, training re-weights
        ``env.problems`` and extracts nothing; the trace is the one of the
        version that rebuilt every problem (values recorded from it)."""
        calls = []
        real = tuning.reextracted_problem
        monkeypatch.setattr(
            tuning, "reextracted_problem",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        grid = [DEFAULT_PARAMS, DEFAULT_PARAMS.with_values(w4=2.0)]
        ids = [wq.query_id for wq in small_env.queries[:4]]
        _best, _err, trace = tune_model_params(small_env, grid, query_ids=ids)
        assert [e for _p, e in trace] == [22.22222222222222, 13.88888888888889]
        _best, _err, trace = tune_model_params(small_env, grid)
        assert [e for _p, e in trace] == [31.285924201611326, 33.7294598065846]
        assert calls == []

        ids = [wq.query_id for wq in small_env.queries[:2]]
        tune_model_params(
            small_env, [UNSEGMENTED_PARAMS], query_ids=ids,
            base_params=UNSEGMENTED_PARAMS,
        )
        assert len(calls) == 2

    def test_unsegmented_paths_keep_the_served_edges(
        self, small_env, monkeypatch
    ):
        """Fig. 8's run and unsegmented training extract features again but
        build no edges: Section 3.3's edges depend only on the tables and
        the corpus statistics, so the served problem's are reused."""
        from repro.core import model
        from repro.core.edges import build_edges
        from repro.evaluation.harness import reextracted_problem

        wq = small_env.queries[0]
        served = small_env.problems[wq.query_id]
        rebuilt = build_edges(served.tables, small_env.synthetic.corpus.stats)
        assert repr(rebuilt) == repr(served.edges)
        problem = reextracted_problem(small_env, wq, UNSEGMENTED_PARAMS)
        assert problem.edges is served.edges
        assert problem.params == UNSEGMENTED_PARAMS

        calls = []
        monkeypatch.setattr(
            model, "build_edges", lambda *a, **k: calls.append(a) or [],
        )
        ids = [wq.query_id for wq in small_env.queries[:3]]
        run_method(small_env, "wwt-unsegmented", query_ids=ids)
        tune_model_params(
            small_env, [UNSEGMENTED_PARAMS], query_ids=ids,
            base_params=UNSEGMENTED_PARAMS,
        )
        assert calls == []

    def test_feature_switch_mismatch_rejected(self, small_env):
        ids = [wq.query_id for wq in small_env.queries[:2]]
        bad_grid = [DEFAULT_PARAMS.with_values(use_segmented=False)]
        with pytest.raises(ValueError):
            tune_model_params(small_env, bad_grid, query_ids=ids)

    def test_empty_grid_rejected(self, small_env):
        ids = [wq.query_id for wq in small_env.queries[:2]]
        with pytest.raises(ValueError, match="empty grid"):
            tune_model_params(small_env, [], query_ids=ids)
