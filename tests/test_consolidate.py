"""Tests for dedup, consolidation, and ranking (Section 2.2.3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consolidate.dedup import (
    _CELL_SIM_THRESHOLD,
    cells_compatible,
    rows_duplicate,
    subject_key,
)
from repro.consolidate.merge import AnswerRow, consolidate
from repro.consolidate.ranker import rank_answer, rank_rows
from repro.query.model import Query
from repro.tables.table import WebTable


class TestDedup:
    def test_subject_key_normalizes(self):
        assert subject_key(" Vasco  da Gama ") == subject_key("vasco da gama")

    def test_cells_compatible_empty_wildcard(self):
        assert cells_compatible("", "anything")
        assert cells_compatible("x", "")

    def test_cells_compatible_exact(self):
        assert cells_compatible("Dutch", "dutch")
        assert not cells_compatible("Dutch", "Portuguese")

    def test_cells_compatible_token_overlap(self):
        assert cells_compatible("Sea route to India", "sea route india")

    def test_rows_duplicate_same_subject(self):
        a = ["Abel Tasman", "Dutch", "Oceania"]
        b = ["abel tasman", "", "Oceania"]
        assert rows_duplicate(a, b)

    def test_rows_not_duplicate_different_subject(self):
        a = ["Abel Tasman", "Dutch", "Oceania"]
        b = ["James Cook", "Dutch", "Oceania"]
        assert not rows_duplicate(a, b)

    def test_rows_not_duplicate_conflicting_attributes(self):
        a = ["Abel Tasman", "Dutch", "Oceania"]
        b = ["Abel Tasman", "Portuguese", "Oceania"]
        assert not rows_duplicate(a, b)

    def test_width_mismatch(self):
        assert not rows_duplicate(["a", "b"], ["a"])

    def test_empty_subjects_never_duplicate(self):
        assert not rows_duplicate(["", "x"], ["", "x"])

    def test_similarity_threshold_boundary(self):
        """Token Jaccard exactly at ``_CELL_SIM_THRESHOLD`` is compatible;
        just below is not."""
        assert _CELL_SIM_THRESHOLD == pytest.approx(0.6)
        # |{a,b,c} & {a,b,c,d,e}| / |union| = 3/5 = 0.6 -> compatible.
        assert cells_compatible("alpha beta gamma",
                                "alpha beta gamma delta eps")
        # 2/4 = 0.5 < 0.6 -> incompatible.
        assert not cells_compatible("alpha beta", "alpha beta gamma delta")


class TestConsolidate:
    def make_tables(self):
        t0 = WebTable.from_rows(
            [
                ["Abel Tasman", "Dutch", "Oceania"],
                ["Vasco da Gama", "Portuguese", "Sea route to India"],
            ],
            header=["Name", "Nationality", "Areas"],
            table_id="t0",
        )
        t1 = WebTable.from_rows(
            [
                ["Sea route to India", "Vasco da Gama"],
                ["Caribbean", "Christopher Columbus"],
            ],
            header=["Exploration", "Who"],
            table_id="t1",
        )
        return [t0, t1]

    def test_merges_duplicates_across_tables(self):
        query = Query.parse("explorer | areas")
        tables = self.make_tables()
        mappings = {0: {0: 1, 2: 2}, 1: {1: 1, 0: 2}}
        answer = consolidate(query, tables, mappings)
        subjects = {row.cells[0] for row in answer.rows}
        assert "Vasco da Gama" in subjects
        assert "Christopher Columbus" in subjects
        vasco = next(r for r in answer.rows if r.cells[0] == "Vasco da Gama")
        assert vasco.support == 2
        assert set(vasco.source_tables) == {"t0", "t1"}

    def test_missing_query_columns_left_empty(self):
        query = Query.parse("explorer | nationality | areas")
        tables = self.make_tables()
        answer = consolidate(query, tables, {1: {1: 1, 0: 3}})
        row = answer.rows[0]
        assert row.cells[1] == ""  # nationality absent from t1

    def test_duplicate_fills_empty_cells(self):
        query = Query.parse("explorer | nationality | areas")
        tables = self.make_tables()
        mappings = {1: {1: 1, 0: 3}, 0: {0: 1, 1: 2, 2: 3}}
        answer = consolidate(query, tables, mappings)
        vasco = next(r for r in answer.rows if "Vasco" in r.cells[0])
        assert vasco.cells[1] == "Portuguese"  # filled from t0

    def test_empty_mapping_ignored(self):
        query = Query.parse("explorer")
        answer = consolidate(query, self.make_tables(), {0: {}})
        assert answer.num_rows == 0

    def test_header_is_query_columns(self):
        query = Query.parse("explorer | areas")
        answer = consolidate(query, self.make_tables(), {})
        assert answer.header() == ["explorer", "areas"]

    def test_ragged_source_rows_are_padded(self):
        """Rows shorter than the table width consolidate as empty cells
        (the WebTable grid pads), not as an error."""
        ragged = WebTable.from_rows(
            [
                ["Abel Tasman", "Dutch", "Oceania"],
                ["Vasco da Gama"],  # short row
                ["James Cook", "British"],  # medium row
            ],
            header=["Name", "Nationality", "Areas"],
            table_id="ragged",
        )
        query = Query.parse("explorer | nationality | areas")
        answer = consolidate(query, [ragged], {0: {0: 1, 1: 2, 2: 3}})
        by_subject = {r.cells[0]: r.cells for r in answer.rows}
        assert by_subject["Vasco da Gama"] == ["Vasco da Gama", "", ""]
        assert by_subject["James Cook"] == ["James Cook", "British", ""]

    def test_mapping_beyond_row_width_projects_empty(self):
        """A mapping referencing a column the table does not have (stale
        mapping, corrupted input) yields empty cells, not IndexError."""
        query = Query.parse("explorer | areas")
        tables = self.make_tables()  # t0 is 3 columns wide
        answer = consolidate(query, tables, {0: {0: 1, 7: 2}})
        assert answer.num_rows > 0
        for row in answer.rows:
            assert row.cells[1] == ""

    def test_all_empty_subject_cells(self):
        """Rows whose subject cell is empty never merge with each other
        (empty subjects are not evidence of identity) and rows that are
        empty on every query column are dropped."""
        table = WebTable.from_rows(
            [
                ["", "Dutch"],
                ["", "Portuguese"],
                ["", ""],  # fully empty -> dropped
            ],
            header=["Name", "Nationality"],
            table_id="t-empty",
        )
        query = Query.parse("explorer | nationality")
        answer = consolidate(query, [table], {0: {0: 1, 1: 2}})
        assert answer.num_rows == 2  # the two non-empty rows, unmerged
        assert all(row.support == 1 for row in answer.rows)
        assert {row.cells[1] for row in answer.rows} == {
            "Dutch", "Portuguese",
        }


    def test_filled_cell_takes_part_in_later_comparisons(self):
        """A cell a merge filled is compared under its new value: the empty
        wildcard it replaced no longer matches a conflicting row."""
        table = WebTable.from_rows(
            [["Tasman", ""], ["Tasman", "Dutch"], ["Tasman", "Portuguese"]],
            header=["Name", "Nationality"],
            table_id="t",
        )
        query = Query.parse("explorer | nationality")
        answer = consolidate(query, [table], {0: {0: 1, 1: 2}})
        assert [(r.cells, r.support) for r in answer.rows] == [
            (["Tasman", "Dutch"], 2), (["Tasman", "Portuguese"], 1),
        ]

    def test_merge_reports_the_cells_it_filled(self):
        row = AnswerRow(cells=["a", "", " ", "c"])
        assert row.merge(["a", "b", "", "d"], "t", 0.5) == [1]
        assert row.cells == ["a", "b", " ", "c"]


# Cells that normalize alike, differ, overlap in tokens or are empty.
CELL = st.sampled_from([
    "", " ", "Abel Tasman", "abel  tasman", "Cook", "Dutch", "dutch",
    "Sea route to India", "sea route india", "route", "--",
])


def reference_consolidate(query, tables, mappings):
    """Consolidation as it was: every comparison re-normalizes both rows."""
    rows = []
    for ti, mapping in sorted(mappings.items()):
        inverse = {qc - 1: tc for tc, qc in mapping.items()}
        for row in tables[ti].body_rows():
            cells = [
                row[inverse[l]].text
                if l in inverse and inverse[l] < len(row) else ""
                for l in range(query.q)
            ]
            if not any(c.strip() for c in cells):
                continue
            for kept in rows:
                if rows_duplicate(kept.cells, cells):
                    kept.merge(cells, tables[ti].table_id, 1.0)
                    break
            else:
                rows.append(AnswerRow(cells=list(cells),
                                      source_tables=[tables[ti].table_id]))
    return [(r.cells, r.support, r.source_tables) for r in rows]


class TestConsolidateMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.lists(st.lists(CELL, min_size=3, max_size=3), min_size=1,
                 max_size=6),
        min_size=1, max_size=3,
    ))
    def test_same_rows_as_pairwise_rows_duplicate(self, bodies):
        query = Query.parse("a | b | c")
        tables = [
            WebTable.from_rows(body, header=["x", "y", "z"], table_id=f"t{i}")
            for i, body in enumerate(bodies)
        ]
        mappings = {i: {0: 1, 1: 2, 2: 3} for i in range(len(tables))}
        answer = consolidate(query, tables, mappings)
        assert [
            (r.cells, r.support, r.source_tables) for r in answer.rows
        ] == reference_consolidate(query, tables, mappings)


class TestRanker:
    def test_support_dominates(self):
        rows = [
            AnswerRow(cells=["b", "1"], support=1, relevance=1.0),
            AnswerRow(cells=["a", "2"], support=3, relevance=0.1),
        ]
        ranked = rank_rows(rows)
        assert ranked[0].cells[0] == "a"

    def test_relevance_breaks_support_ties(self):
        rows = [
            AnswerRow(cells=["low", "1"], support=2, relevance=0.2),
            AnswerRow(cells=["high", "2"], support=2, relevance=0.9),
        ]
        assert rank_rows(rows)[0].cells[0] == "high"

    def test_completeness_breaks_further_ties(self):
        rows = [
            AnswerRow(cells=["x", ""], support=1, relevance=0.5),
            AnswerRow(cells=["y", "full"], support=1, relevance=0.5),
        ]
        assert rank_rows(rows)[0].cells[0] == "y"

    def test_deterministic_final_tie_break(self):
        rows = [
            AnswerRow(cells=["zeta", "1"], support=1, relevance=0.5),
            AnswerRow(cells=["alpha", "1"], support=1, relevance=0.5),
        ]
        assert [r.cells[0] for r in rank_rows(rows)] == ["alpha", "zeta"]

    def test_tie_break_is_input_order_independent(self):
        """Fully tied rows order by subject key, so any input permutation
        ranks identically (the determinism the bit-identity tests rely
        on)."""
        rows = [
            AnswerRow(cells=[name, "x"], support=2, relevance=0.5)
            for name in ("delta", "alpha", "charlie", "bravo")
        ]
        expected = ["alpha", "bravo", "charlie", "delta"]
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert [r.cells[0] for r in rank_rows(shuffled)] == expected

    def test_empty_cells_rank_last_and_do_not_crash(self):
        rows = [
            AnswerRow(cells=[], support=1, relevance=0.5),
            AnswerRow(cells=["alpha"], support=1, relevance=0.5),
        ]
        ranked = rank_rows(rows)
        # Completeness ranks the cell-less row below the filled one, and
        # its empty-key tie-break must not raise on r.cells[0].
        assert [r.cells for r in ranked] == [["alpha"], []]

    def test_rank_answer_in_place(self):
        from repro.consolidate.merge import AnswerTable

        answer = AnswerTable(query=Query.parse("a"))
        answer.rows = [
            AnswerRow(cells=["b"], support=1),
            AnswerRow(cells=["a"], support=2),
        ]
        rank_answer(answer)
        assert answer.rows[0].cells == ["a"]
