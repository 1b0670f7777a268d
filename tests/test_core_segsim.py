"""Tests for the segmented similarity (SegSim / Cover, Section 3.2)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segsim import (
    DEFAULT_RELIABILITIES,
    Reliabilities,
    TablePartIndex,
    estimate_reliabilities,
    segmented_similarity,
    unsegmented_similarity,
)
from repro.tables.table import Cell, CellFormat, ContextSnippet, WebTable
from repro.text.tfidf import TermStatistics
from repro.text.tokenize import tokenize


def table(header=None, rows=(), context="", title="", header_rows=None):
    grid = []
    n_header = 0
    if header_rows is not None:
        for hr in header_rows:
            grid.append([Cell(h, CellFormat(is_th=True)) for h in hr])
            n_header += 1
    elif header is not None:
        grid.append([Cell(h, CellFormat(is_th=True)) for h in header])
        n_header = 1
    width = len(grid[0]) if grid else len(rows[0])
    n_title = 0
    if title:
        grid.insert(0, [Cell(title, CellFormat(bold=True))] + [Cell()] * (width - 1))
        n_title = 1
    for row in rows:
        grid.append([Cell(v) for v in row])
    ctx = [ContextSnippet(context, 0.9)] if context else []
    return WebTable(
        grid=grid, num_title_rows=n_title, num_header_rows=n_header,
        context=ctx, table_id="t",
    )


class TestSegSimBasics:
    def test_exact_header_match_is_one(self):
        t = table(header=["Country", "Currency"], rows=[["France", "Euro"]])
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("country"), idx, 0)
        assert math.isclose(scores.segsim, 1.0)
        assert math.isclose(scores.cover, 1.0)

    def test_no_header_table_scores_zero(self):
        t = WebTable(grid=[[Cell("France"), Cell("Euro")]], num_header_rows=0)
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("country"), idx, 0)
        assert scores.segsim == 0.0 and scores.cover == 0.0

    def test_disjoint_header_scores_zero(self):
        t = table(header=["Movie", "Year"], rows=[["Alien", "1979"]])
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("country"), idx, 0)
        assert scores.segsim == 0.0

    def test_split_header_context_case(self):
        # The paper's "Nobel prize winner" case: header has only "winner",
        # context has "Nobel prize".
        t = table(
            header=["Winner", "Year"],
            rows=[["Marie Curie", "1911"]],
            context="Nobel prize laureates by year",
        )
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("nobel prize winners"), idx, 0)
        # "winner" pins the header; "nobel prize" matches context (p=0.9).
        assert scores.segsim > 0.85

    def test_context_match_requires_header_overlap(self):
        # Without any header overlap the query cannot pin a column, even if
        # the context matches fully.
        t = table(
            header=["Item", "Year"],
            rows=[["x", "2001"]],
            context="nobel prize winners",
        )
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("nobel prize winners"), idx, 0)
        assert scores.segsim == 0.0

    def test_multi_row_header_concatenation(self):
        # Split header "Main areas" / "explored" (Figure 1, Table 1).
        t = table(
            header_rows=[["Name", "Main areas"], ["", "explored"]],
            rows=[["Tasman", "Oceania"]],
        )
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("areas explored"), idx, 1)
        # "areas" in row 0, "explored" in row 1 of the same column (Hc part,
        # reliability 0.5) or vice versa.
        assert scores.segsim > 0.5

    def test_junk_second_header_row_not_penalized(self):
        # Figure 1, Table 2: "(Chronological order)" under "Exploration"
        # must not dilute the first row's match.
        good = table(header=["Exploration"], rows=[["Oceania"]])
        noisy = table(
            header_rows=[["Exploration"], ["(Chronological order)"]],
            rows=[["Oceania"]],
        )
        q = tokenize("exploration")
        s_good = segmented_similarity(q, TablePartIndex(good), 0)
        s_noisy = segmented_similarity(q, TablePartIndex(noisy), 0)
        assert math.isclose(s_good.segsim, s_noisy.segsim)
        assert math.isclose(s_noisy.segsim, 1.0)

    def test_body_evidence(self):
        # "Black metal bands": genre column body holds "Black metal".
        t = table(
            header=["Band name", "Country", "Genre"],
            rows=[
                ["Darkfall", "Norway", "Black metal"],
                ["Emberwood", "Sweden", "Black metal"],
                ["Ironveil", "Finland", "Death metal"],
            ],
        )
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("black metal bands"), idx, 0)
        # "bands" pins the header; "black metal" found in body (p_B = 0.8).
        assert scores.segsim > 0.5

    def test_other_column_header_evidence(self):
        # "dog breeds" matching a table with adjacent "dog" and "breed"
        # columns: the other column's header is the Hr part (p = 1.0).
        t = table(header=["Dog", "Breed"], rows=[["Rex", "Boxer"]])
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("dog breeds"), idx, 0)
        assert scores.segsim > 0.9

    def test_title_evidence(self):
        t = table(
            header=["Name", "Area"],
            rows=[["Shakespeare Hills", "2236"]],
            title="Forest reserves",
        )
        idx = TablePartIndex(t)
        scores = segmented_similarity(tokenize("forest reserves name"), idx, 0)
        assert scores.segsim > 0.9  # "name" in header, rest in title (p=1.0)


class TestSegSimProperties:
    @given(st.lists(st.sampled_from(["country", "currency", "gdp", "year", "rate"]),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, query_tokens):
        t = table(
            header=["Country", "Currency"],
            rows=[["France", "Euro"], ["Japan", "Yen"]],
            context="currency rate by country",
        )
        idx = TablePartIndex(t)
        for col in (0, 1):
            s = segmented_similarity(query_tokens, idx, col)
            assert 0.0 <= s.segsim <= 1.0 + 1e-9
            assert 0.0 <= s.cover <= 1.0 + 1e-9

    def test_segmented_at_least_unsegmented_on_split_case(self):
        t = table(
            header=["Winner"],
            rows=[["Marie Curie"]],
            context="Nobel prize ceremony",
        )
        idx = TablePartIndex(t)
        q = tokenize("nobel prize winner")
        seg = segmented_similarity(q, idx, 0)
        unseg = unsegmented_similarity(q, idx, 0)
        assert seg.segsim > unseg.segsim

    def test_unsegmented_full_match(self):
        t = table(header=["Country name"], rows=[["France"]])
        idx = TablePartIndex(t)
        s = unsegmented_similarity(tokenize("country name"), idx, 0)
        assert math.isclose(s.segsim, 1.0)
        assert math.isclose(s.cover, 1.0)

    def test_stats_change_weighting(self):
        stats = TermStatistics()
        for _ in range(50):
            stats.add_document(["name"])
        stats.add_document(["country", "name"])
        t = table(header=["Country"], rows=[["France"]])
        idx = TablePartIndex(t)
        # "country" is rare -> matching it should dominate the query norm.
        s = segmented_similarity(tokenize("country name"), idx, 0, stats)
        assert s.cover > 0.8

    def test_empty_query(self):
        t = table(header=["Country"], rows=[["France"]])
        idx = TablePartIndex(t)
        s = segmented_similarity([], idx, 0)
        assert s.segsim == 0.0 and s.cover == 0.0


class TestReliabilities:
    def test_defaults_match_paper(self):
        r = DEFAULT_RELIABILITIES
        assert (r.title, r.context, r.other_header_rows, r.other_columns, r.body) == (
            1.0, 0.9, 0.5, 1.0, 0.8,
        )

    def test_estimation(self):
        estimated = estimate_reliabilities(
            {"T": (9, 10), "C": (8, 10), "Hc": (1, 2), "Hr": (5, 5), "B": (4, 5)}
        )
        assert math.isclose(estimated.title, 0.9)
        assert math.isclose(estimated.context, 0.8)
        assert math.isclose(estimated.other_header_rows, 0.5)
        assert math.isclose(estimated.other_columns, 1.0)
        assert math.isclose(estimated.body, 0.8)

    def test_estimation_defaults_for_missing(self):
        estimated = estimate_reliabilities({})
        assert estimated == DEFAULT_RELIABILITIES

    def test_part_lookup(self):
        r = Reliabilities()
        assert r.of("T") == 1.0
        assert r.of("B") == 0.8
