"""Tests for the cross-table edge structure (Section 3.3)."""

import subprocess
import sys
from pathlib import Path

from repro.core.edges import (
    all_similar_pairs,
    build_edges,
    column_pair_similarity,
    ColumnProfile,
)
from repro.tables.table import WebTable


def countries_table(table_id, names, header="Country"):
    return WebTable.from_rows(
        [[n, str(i)] for i, n in enumerate(names)],
        header=[header, "Value"],
        table_id=table_id,
    )


NAMES = ["France", "Japan", "Brazil", "Canada", "Norway", "Chile", "Kenya", "Spain"]


class TestColumnSimilarity:
    def test_identical_columns_high(self):
        a = countries_table("a", NAMES)
        b = countries_table("b", NAMES)
        pa = ColumnProfile.build(0, 0, a, None)
        pb = ColumnProfile.build(1, 0, b, None)
        assert column_pair_similarity(pa, pb) > 0.8

    def test_disjoint_columns_zero(self):
        a = countries_table("a", NAMES[:4])
        b = countries_table("b", ["Alpha", "Beta", "Gamma", "Delta"])
        pa = ColumnProfile.build(0, 0, a, None)
        pb = ColumnProfile.build(1, 0, b, None)
        assert column_pair_similarity(pa, pb) < 0.2


class TestBuildEdges:
    def test_overlapping_subject_columns_connected(self):
        a = countries_table("a", NAMES)
        b = countries_table("b", NAMES[2:] + ["Peru", "India"])
        edges = build_edges([a, b])
        pairs = {(e.a, e.b) for e in edges}
        assert ((0, 0), (1, 0)) in pairs

    def test_max_matching_one_neighbor_per_table_pair(self):
        # Table b has two columns similar to a's column 0; only one edge may
        # survive per table pair (max-matching robustness, Section 3.3).
        a = countries_table("a", NAMES)
        b = WebTable.from_rows(
            [[n, n] for n in NAMES],  # duplicate content columns
            header=["Capital", "Largest city"],
            table_id="b",
        )
        edges = build_edges([a, b])
        from_a0 = [e for e in edges if e.a == (0, 0) or e.b == (0, 0)]
        assert len(from_a0) <= 1

    def test_no_intra_table_edges(self):
        t = WebTable.from_rows(
            [[n, n] for n in NAMES], header=["X", "Y"], table_id="t"
        )
        assert build_edges([t]) == []

    def test_nsim_normalization_bounded(self):
        tables = [countries_table(f"t{i}", NAMES) for i in range(5)]
        edges = build_edges(tables)
        sums = {}
        for e in edges:
            sums.setdefault(e.a, 0.0)
            sums.setdefault(e.b, 0.0)
            sums[e.a] += e.nsim_ab
            sums[e.b] += e.nsim_ba
        for total in sums.values():
            assert total <= 1.0 + 1e-9  # sum sim/(lambda + sum sims) < 1

    def test_weak_similarity_dropped(self):
        a = countries_table("a", NAMES)
        b = countries_table("b", ["France"] + [f"x{i}" for i in range(20)])
        edges = build_edges([a, b])
        assert all(e.sim >= 0.1 for e in edges)

    def test_deterministic_order(self):
        tables = [countries_table(f"t{i}", NAMES) for i in range(3)]
        assert build_edges(tables) == build_edges(tables)

    def test_edges_do_not_depend_on_the_hash_seed(self):
        """Blocking iterates sets of cell values; neither the edge set nor
        one bit of sim/nsim may follow that order into another process —
        nor may the labels and distributions inferred over those edges,
        whose max-marginals travel through the feature cache's memo."""
        script = (
            "from repro.core import FeatureCache\n"
            "from repro.core.model import build_problem\n"
            "from repro.evaluation.harness import build_environment\n"
            "from repro.inference import REGISTRY\n"
            "from repro.query.workload import WORKLOAD\n"
            "env = build_environment(0.4, 42, queries=WORKLOAD[:12])\n"
            "solve = REGISTRY.get_algorithm('table-centric')\n"
            "for wq in env.queries:\n"
            "    tables = env.candidates[wq.query_id].tables\n"
            "    stats = env.synthetic.corpus.stats\n"
            "    problem = build_problem(\n"
            "        wq.query, tables, stats, feature_cache=FeatureCache())\n"
            "    mapping = solve(problem)\n"
            "    print(repr(problem.edges))\n"
            "    print('labels', repr(sorted(mapping.labels.items())))\n"
            "    print('dist', repr(sorted(mapping.distributions.items())))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, text=True,
                env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            )
            for seed in ("1", "2")
        ]
        first, second = (proc.communicate(timeout=120)[0] for proc in procs)
        assert all(proc.returncode == 0 for proc in procs)
        assert first.count("MappingEdge(") > 500
        assert first.count("labels [((0, 0), ") == first.count("dist [") == 12
        assert first == second


class TestAllSimilarPairs:
    def test_includes_unmatched_pairs(self):
        # all_similar_pairs (NbrText's structure) keeps *both* look-alike
        # columns, where build_edges keeps at most one.
        a = countries_table("a", NAMES)
        b = WebTable.from_rows(
            [[n, n] for n in NAMES],
            header=["Capital", "Largest city"],
            table_id="b",
        )
        pairs = all_similar_pairs([a, b])
        touching_a0 = [p for p in pairs if p[0] == (0, 0) or p[1] == (0, 0)]
        assert len(touching_a0) == 2

    def test_sims_above_floor(self):
        tables = [countries_table(f"t{i}", NAMES) for i in range(3)]
        for _a, _b, sim in all_similar_pairs(tables):
            assert sim >= 0.1
