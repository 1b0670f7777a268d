"""Smoke test of the benchmark (outside tier-1).

::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs all four workloads at ``--smoke`` size with and without tracing and
checks the contract: ``BENCHMARK.json`` is well formed, every metric it
names is reported and finite, equal seeds give equal request digests and
equal exact-repeat counts, and ``compare`` judges as documented.  The
traced runs use a second seed, so no claim rests on one seed alone.
"""

import math
import re

import pytest

from benchmarks.e2e.cli import WORKLOADS, load_spec, run_workload
from benchmarks.e2e.compare import verdict

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SECONDS = 0.3


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in WORKLOADS:
        for key, seed, trace in (
            ("untraced", 1, False), ("traced", 2, True), ("again", 2, True),
        ):
            out[name, key], _ = run_workload(
                name, seed, SECONDS, trace, smoke=True
            )
    return out


def test_spec_is_within_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_named_metric_is_reported(spec, results, workload):
    for mode, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
        result = results[workload, mode]
        assert result["correct"], result["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        metrics = result["metrics"]
        assert list(metrics) == [m["name"] for m in spec[key]]
        for metric in spec[key]:
            cell = metrics[metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert math.isfinite(cell["value"]), metric["name"]
        if key == "end_to_end":
            assert all(cell["value"] > 0 for cell in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_equal_seeds_repeat_exactly(results, workload):
    first, second = results[workload, "traced"], results[workload, "again"]
    assert first["digests"]["requests"] == second["digests"]["requests"]
    counts = [n for n in first["metrics"] if n.endswith("_per_query")]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    other_seed = results[workload, "untraced"]["digests"]["requests"]
    assert other_seed != first["digests"]["requests"]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.1)[0] == "ok"
    assert verdict(
        steady, [v * 1.2 for v in steady], "lower", 0.1
    )[0] == "regressed"
    assert verdict(
        steady, [v * 0.8 for v in steady], "higher", 0.1
    )[0] == "regressed"
    noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict(noisy, [50.0, 52.0, 51.0], "lower", 0.1)[0] == "ok"
