"""The paper's tables and figures as pinned numbers (``reproduction.json``).

Every test computes one table or figure of Section 5 on the full-scale
evaluation environment and compares it with the ``ours`` column of the data
file, which carries the paper's value beside each number.  Tier-1 collects
everything except Table 2's BP and TRWS columns (~30 s each); those are
collected when this file is named on the command line, as CI's
reproduction step does: ``python -m pytest tests/test_reproduction.py``.
"""

import functools
import json
import time
from pathlib import Path
from statistics import mean

import pytest

from repro.evaluation.harness import (
    answer_row_errors,
    bin_queries,
    build_environment,
    probe_statistics,
    run_method,
    split_easy_hard,
)
from repro.service import EngineConfig, WWTService

DATA = json.loads(
    Path(__file__).with_name("reproduction.json").read_text(encoding="utf-8")
)

TABLE2_COLUMNS = {
    "None": "wwt-none", "a-exp": "wwt-alpha", "BP": "wwt-bp",
    "TRWS": "wwt-trws", "Table-centric": "wwt",
}
SLOW_COLUMNS = ("BP", "TRWS")


def table2_columns(config):
    """Table 2's columns to run: all five only when this file is named."""
    named = any(
        Path(arg.split("::")[0]).name == Path(__file__).name
        for arg in config.args
    )
    return [c for c in TABLE2_COLUMNS if named or c not in SLOW_COLUMNS]


def pytest_generate_tests(metafunc):
    if "column" in metafunc.fixturenames:
        metafunc.parametrize("column", table2_columns(metafunc.config))


@pytest.fixture(scope="module")
def env():
    return build_environment(scale=1.0, seed=42)


@pytest.fixture(scope="module")
def runs(env):
    """``runs(method)`` -> that method's run over the workload, run once."""
    return functools.lru_cache(maxsize=None)(functools.partial(run_method, env))


def pinned(section):
    return {
        key: row["ours"]
        for key, row in DATA[section].items() if not key.startswith("_")
    }


def at_stored_precision(value):
    """Percentages rounded to the two decimals the data file stores."""
    if isinstance(value, float):
        return round(value, 2)
    if isinstance(value, list):
        return [at_stored_precision(v) for v in value]
    return value


def check(section, measured, whole=True):
    expected = pinned(section)
    if not whole:
        expected = {key: expected[key] for key in measured}
    assert {
        key: at_stored_precision(value) for key, value in measured.items()
    } == expected


def hard_groups(env, runs, methods):
    """Easy/hard split over ``methods``; hard queries binned by Basic."""
    qids = [wq.query_id for wq in env.queries]
    easy, hard = split_easy_hard({m: runs(m) for m in methods}, qids)
    return easy, hard, bin_queries(runs("basic").errors, hard)


def test_fig5_error_reduction(env, runs):
    methods = ("basic", "pmi2", "nbrtext", "wwt")
    easy, hard, groups = hard_groups(env, runs, methods)
    basic = runs("basic")
    measured = {"easy_queries": len(easy), "hard_queries": len(hard)}
    measured["basic_error_by_group"] = [basic.mean_error(g) for g in groups]
    for method in methods:
        measured[f"{method}_error"] = runs(method).mean_error(hard)
        if method != "basic":
            measured[f"{method}_reduction_by_group"] = [
                basic.mean_error(g) - runs(method).mean_error(g)
                for g in groups
            ]
    check("fig5_error_reduction", measured)


def test_fig6_answer_rows(env, runs):
    easy, hard, groups = hard_groups(env, runs, ("basic", "wwt"))
    measured = {"easy_queries": len(easy), "hard_queries": len(hard)}
    for method in ("basic", "wwt"):
        errors = answer_row_errors(env, runs(method), hard)
        measured[f"{method}_row_error"] = mean(errors.values())
        measured[f"{method}_row_error_by_group"] = [
            mean([errors[q] for q in g]) for g in groups
        ]
    check("fig6_answer_rows", measured)


def test_fig8_segmentation(env, runs):
    seg, unseg = runs("wwt"), runs("wwt-unsegmented")
    easy, hard, _groups = hard_groups(env, runs, ("wwt", "wwt-unsegmented"))
    gaps = [seg.errors[q] - unseg.errors[q] for q in hard]
    check("fig8_segmentation", {
        "easy_queries": len(easy),
        "hard_queries": len(hard),
        "unsegmented_error": unseg.mean_error(hard),
        "segmented_error": seg.mean_error(hard),
        "below_diagonal": sum(1 for gap in gaps if gap < -1e-9),
        "on_diagonal": sum(1 for gap in gaps if abs(gap) <= 1e-9),
        "above_diagonal": sum(1 for gap in gaps if gap > 1e-9),
    })


def test_table1_and_probe_statistics(env):
    stats = probe_statistics(env)
    check("table1_workload", {
        "queries": stats["queries"],
        "candidates": stats["candidates"],
        "candidates_per_query": stats["candidates"] / stats["queries"],
        "mean_relevant_fraction": stats["mean_relevant_fraction"],
    })
    measured = {key: stats[key] for key in (
        "second_probe_fired", "stage1_candidates", "stage1_relevant",
        "stage2_candidates", "stage2_relevant",
        "recall_one_stage", "recall_two_stage",
    )}
    measured["second_probe_fired_share"] = (
        100.0 * stats["second_probe_fired"] / stats["queries"]
    )
    for stage in ("stage1", "stage2"):
        measured[f"{stage}_precision"] = (
            100.0 * stats[f"{stage}_relevant"] / stats[f"{stage}_candidates"]
        )
    check("probe_statistics", measured)


def test_table2_inference(env, runs, column, request):
    """One column: the seven hard-query groups, then overall.  The split
    is over the columns being run plus Basic, so the pinned 11/48 also
    says BP and TRWS do not move it."""
    methods = [TABLE2_COLUMNS[c] for c in table2_columns(request.config)]
    easy, hard, groups = hard_groups(env, runs, [*methods, "basic"])
    run = runs(TABLE2_COLUMNS[column])
    check("table2_inference", {
        "easy_queries": len(easy),
        "hard_queries": len(hard),
        column: [*(run.mean_error(g) for g in groups), run.mean_error(hard)],
    }, whole=False)


def test_edge_ablation(runs):
    check("edge_ablation", {
        "full": runs("wwt").mean_error(),
        "no_edges": runs("wwt-no-edges").mean_error(),
        "no_gating": runs("wwt-no-gating").mean_error(),
        "unnormalized": runs("wwt-unnormalized").mean_error(),
        "all_pairs": runs("wwt-all-pairs").mean_error(),
    })


def test_header_rows(env):
    hist = env.synthetic.census.header_row_histogram
    counts = [hist.get(k, 0) for k in range(4)]
    check("header_rows", {
        **dict(zip(("none", "one", "two", "more"), counts)),
        "shares": [100.0 * c / sum(counts) for c in counts],
    })


def test_fig7_running_time(env, runs):
    """Stage shares read off the span tree, caches off (wall-clock, so
    bounds): the two index probes are a sliver of a query, the column
    mapper is most of it, and PMI² is the expensive method (§5.1).  The
    same served answers carry the labels every pinned WWT number scores:
    the reproduction is the served engine, query by query."""
    bounds = DATA["fig7_running_time"]
    service = WWTService(
        env.synthetic.corpus, EngineConfig(cache_size=0)
    )
    wwt = runs("wwt")
    slices = {}
    for wq in env.queries:
        full = service.answer_full(wq.query)
        assert wwt.labels[wq.query_id] == full.mapping.labels, wq.query_id
        timing = full.timing
        stages = timing.as_dict()
        assert sum(stages.values()) == pytest.approx(timing.total)
        for stage, seconds in stages.items():
            slices[stage] = slices.get(stage, 0.0) + seconds
    total = sum(slices.values())
    index_share = 100.0 * (slices["1st Index"] + slices["2nd Index"]) / total
    assert index_share < bounds["index_probes_share"]["ours_below"]
    assert (
        100.0 * slices["Column Map"] / total
        > bounds["column_map_share"]["ours_above"]
    )
    sample = [wq.query_id for wq in env.queries[::6]]
    seconds = {}
    for method in ("basic", "pmi2"):
        start = time.perf_counter()
        run_method(env, method, sample)
        seconds[method] = time.perf_counter() - start
    assert (
        seconds["pmi2"] / seconds["basic"]
        > bounds["pmi2_over_basic_cost"]["ours_above"]
    )


def test_paper_claims_hold():
    """The orderings the paper argues from, over the pinned numbers: a
    re-recorded data file may move a value, never one of these."""
    fig5 = pinned("fig5_error_reduction")
    assert fig5["wwt_error"] < fig5["basic_error"]
    assert fig5["wwt_error"] < fig5["pmi2_error"]
    fig6 = pinned("fig6_answer_rows")
    assert fig6["wwt_row_error"] < fig6["basic_row_error"]
    fig8 = pinned("fig8_segmentation")
    assert fig8["segmented_error"] < fig8["unsegmented_error"]
    assert fig8["below_diagonal"] > fig8["above_diagonal"]
    table1 = pinned("table1_workload")
    assert table1["candidates_per_query"] > 10
    assert 20 <= table1["mean_relevant_fraction"] <= 95
    overall = {
        c: pinned("table2_inference")[c][-1] for c in TABLE2_COLUMNS
    }
    assert overall["Table-centric"] == min(overall.values())
    assert overall["None"] == max(overall.values())
    probe = pinned("probe_statistics")
    assert probe["second_probe_fired_share"] >= 40
    assert probe["stage2_precision"] >= probe["stage1_precision"]
    assert probe["recall_two_stage"] >= probe["recall_one_stage"]
    ablation = pinned("edge_ablation")
    assert ablation["full"] < ablation["no_edges"]
    none, one, two, _more = pinned("header_rows")["shares"]
    assert 8 <= none <= 30 and 45 <= one <= 80 and two <= 30
