"""Tests for the cross-table edge structure (Section 3.3)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.edges import all_similar_pairs, build_edges
from repro.tables.table import WebTable
from repro.text.tfidf import TermStatistics
from repro.text.tokenize import tokenize

from . import reference_edges


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
        sims = {(x, y): sim for x, y, sim in all_similar_pairs([a, b])}
        assert sims[(0, 0), (1, 0)] > 0.8

    def test_disjoint_columns_zero(self):
        a = countries_table("a", NAMES[:4])
        b = countries_table("b", ["Alpha", "Beta", "Gamma", "Delta"])
        pairs = all_similar_pairs([a, b], sim_floor=0.0)
        assert ((0, 0), (1, 0)) not in {(x, y) for x, y, _sim in pairs}


# -- bit-identity with the pre-kernel construction -------------------------


def table_stats(tables):
    """Document frequencies over the tables' cell tokens."""
    stats = TermStatistics()
    for table in tables:
        stats.add_document(
            token for row in table.grid for cell in row
            for token in tokenize(cell.text)
        )
    return stats


def rows_table(table_id, columns, header=None):
    """A table from column lists (padded with empty cells)."""
    height = max(len(c) for c in columns)
    rows = [
        [c[r] if r < len(c) else "" for c in columns] for r in range(height)
    ]
    return WebTable.from_rows(rows, header=header, table_id=table_id)


def numbered(prefix, n):
    return [f"{prefix} {i}" for i in range(n)]


#: Hand-built candidate sets, one per blocking or matching rule.
HAND_CASES = {
    "empty-value-sets": [
        rows_table("a", [["", "", ""], NAMES[:3]], header=["Blank", "Country"]),
        rows_table("b", [["", ""], NAMES[:3]], header=["Blank", "Country"]),
    ],
    # Four values each, one shared: blocked only once a column is small.
    "one-shared-value": [
        rows_table("a", [["France", "w1", "w2", "w3"]], header=["Country"]),
        rows_table("b", [["France", "x1", "x2", "x3"]], header=["Country"]),
        rows_table("c", [["France", "y1", "y2"]], header=["Country"]),
    ],
    # 61 columns hold "euro": a stop value; 60 would block.  The last two
    # also share four other values, and "euro" still counts in their
    # overlap.
    "stop-value-61": [
        rows_table(f"s{i}", [["euro", f"coin {i}"]], header=["Currency"])
        for i in range(59)
    ] + [
        rows_table(name, [["euro", "dollar", "yen", "pound", "franc"]])
        for name in ("x", "y")
    ],
    "stop-value-60": [
        rows_table(f"s{i}", [["euro", f"coin {i}"]], header=["Currency"])
        for i in range(60)
    ],
    "header-less": [
        rows_table("a", [NAMES, numbered("n", 8)]),
        rows_table("b", [NAMES[2:], numbered("n", 6)]),
        rows_table("c", [NAMES[:5]], header=["Country"]),
    ],
    # a0 ~ b1 and a1 ~ b0: two candidates that share no column.
    "two-crossing": [
        rows_table("a", [NAMES, numbered("city", 8)], header=["Country", "City"]),
        rows_table("b", [numbered("city", 8), NAMES], header=["City", "Country"]),
    ],
    # a0 resembles all three of b's columns: the matching must choose.
    "three-conflicting": [
        rows_table("a", [NAMES], header=["Country"]),
        rows_table(
            "b", [NAMES, NAMES[:6], NAMES[1:7]],
            header=["Country", "Nation", "State"],
        ),
    ],
}


def assert_same_as_reference(tables, stats):
    assert repr(build_edges(tables, stats)) == repr(
        reference_edges.build_edges(tables, stats)
    )
    assert repr(all_similar_pairs(tables, stats)) == repr(
        reference_edges.all_similar_pairs(tables, stats)
    )


class TestReferenceEquivalence:
    """Every float of the integer-indexed pass equals the profile-per-column
    construction it replaced (``tests/reference_edges.py``)."""

    @pytest.mark.parametrize("with_stats", [True, False], ids=["stats", "no-stats"])
    def test_served_candidate_sets(self, small_env, with_stats):
        stats = small_env.synthetic.corpus.stats if with_stats else None
        edges = 0
        for wq in small_env.queries:
            tables = small_env.candidates[wq.query_id].tables
            assert_same_as_reference(tables, stats)
            edges += len(build_edges(tables, stats))
        assert len(small_env.queries) == 59 and edges > 1000

    @pytest.mark.parametrize("case", sorted(HAND_CASES))
    @pytest.mark.parametrize("with_stats", [True, False], ids=["stats", "no-stats"])
    def test_hand_built(self, case, with_stats):
        tables = HAND_CASES[case]
        stats = table_stats(tables) if with_stats else None
        assert_same_as_reference(tables, stats)

    def test_hand_built_cases_exercise_their_rule(self):
        def pairs(case):
            return {(a, b) for a, b, _s in all_similar_pairs(HAND_CASES[case])}

        assert pairs("empty-value-sets") == {((0, 1), (1, 1))}
        one = pairs("one-shared-value")
        assert ((0, 0), (1, 0)) not in one
        assert {((0, 0), (2, 0)), ((1, 0), (2, 0))} <= one
        assert pairs("stop-value-61") == {((59, 0), (60, 0))}
        assert len(pairs("stop-value-60")) == 60 * 59 // 2
        assert ((0, 0), (1, 0)) in pairs("header-less")
        crossing = build_edges(HAND_CASES["two-crossing"])
        assert [(e.a, e.b) for e in crossing] == [((0, 0), (1, 1)), ((0, 1), (1, 0))]
        conflicting = build_edges(HAND_CASES["three-conflicting"])
        assert [(e.a, e.b) for e in conflicting] == [((0, 0), (1, 0))]
        assert len(pairs("three-conflicting")) == 3


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
