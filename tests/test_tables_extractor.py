"""Unit tests for table extraction + context scoring (Sections 2.1.1-2.1.2)."""

import time

from repro.html import parse_html
from repro.tables import ExtractionCensus, extract_grid, extract_tables, is_data_table
from repro.tables.context import extract_context


def page(body: str, title: str = "Test Page") -> str:
    return f"<html><head><title>{title}</title></head><body>{body}</body></html>"


DATA_TABLE = """
<table>
<tr><th>Name</th><th>Country</th></tr>
<tr><td>Denali</td><td>United States</td></tr>
<tr><td>Logan</td><td>Canada</td></tr>
</table>
"""


class TestExtractGrid:
    def test_basic_grid(self):
        root = parse_html(DATA_TABLE)
        grid = extract_grid(root.find_first("table"))
        assert len(grid) == 3
        assert grid[0][0].fmt.is_th
        assert grid[1][0].text == "Denali"

    def test_colspan_padding(self):
        html = "<table><tr><td colspan='3'>Title</td></tr><tr><td>a</td><td>b</td><td>c</td></tr></table>"
        grid = extract_grid(parse_html(html).find_first("table"))
        assert len(grid[0]) == 3
        assert grid[0][0].text == "Title"
        assert grid[0][1].is_empty()

    def test_nested_table_rows_excluded(self):
        html = (
            "<table><tr><td>outer<table><tr><td>inner</td></tr></table></td>"
            "<td>x</td></tr></table>"
        )
        root = parse_html(html)
        outer = root.find_first("table")
        grid = extract_grid(outer)
        assert len(grid) == 1

    def test_formatting_captured(self):
        html = "<table><tr><td><b>Bold</b></td><td bgcolor='#eee'>x</td></tr></table>"
        grid = extract_grid(parse_html(html).find_first("table"))
        assert grid[0][0].fmt.bold
        assert grid[0][1].fmt.background


class TestIsDataTable:
    def test_accepts_relational(self):
        root = parse_html(DATA_TABLE)
        ok, reason = is_data_table(root.find_first("table"))
        assert ok and reason == "ok"

    def test_rejects_forms(self):
        html = "<table><tr><td><input type='text'/></td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>"
        ok, reason = is_data_table(parse_html(html).find_first("table"))
        assert not ok and reason == "form"

    def test_rejects_nested_layout(self):
        html = "<table><tr><td><table><tr><td>x</td></tr></table></td></tr></table>"
        ok, reason = is_data_table(parse_html(html).find_first("table"))
        assert not ok and reason == "nested"

    def test_rejects_single_column(self):
        html = "<table><tr><td>a</td></tr><tr><td>b</td></tr></table>"
        ok, reason = is_data_table(parse_html(html).find_first("table"))
        assert not ok and reason == "single_column"

    def test_rejects_single_row(self):
        html = "<table><tr><td>a</td><td>b</td></tr></table>"
        ok, reason = is_data_table(parse_html(html).find_first("table"))
        assert not ok and reason == "too_few_rows"

    def test_rejects_calendar(self):
        rows = []
        day = 1
        for _ in range(4):
            cells = "".join(f"<td>{min(day + i, 31)}</td>" for i in range(7))
            rows.append(f"<tr>{cells}</tr>")
            day += 7
        html = f"<table>{''.join(rows)}</table>"
        ok, reason = is_data_table(parse_html(html).find_first("table"))
        assert not ok and reason == "calendar"

    def test_rejects_long_text_layout(self):
        long = "lorem ipsum " * 40
        html = f"<table><tr><td>{long}</td><td>{long}</td></tr><tr><td>{long}</td><td>{long}</td></tr></table>"
        ok, reason = is_data_table(parse_html(html).find_first("table"))
        assert not ok and reason == "layout_long_cells"

    def test_rejects_mostly_empty(self):
        html = (
            "<table><tr><td>a</td><td></td><td></td><td></td></tr>"
            "<tr><td></td><td></td><td></td><td></td></tr></table>"
        )
        ok, reason = is_data_table(parse_html(html).find_first("table"))
        assert not ok and reason == "mostly_empty"

    def test_rejects_degenerate_content(self):
        html = (
            "<table><tr><td>x</td><td>x</td></tr>"
            "<tr><td>x</td><td>x</td></tr></table>"
        )
        ok, reason = is_data_table(parse_html(html).find_first("table"))
        assert not ok and reason == "degenerate_content"


class TestExtractTables:
    def test_end_to_end_extraction(self):
        html = page("<h2>Mountains</h2><p>Tallest peaks.</p>" + DATA_TABLE)
        census = ExtractionCensus()
        tables = extract_tables(parse_html(html), url="u", census=census)
        assert len(tables) == 1
        t = tables[0]
        assert t.num_header_rows == 1
        assert t.page_title == "Test Page"
        assert census.data_tables == 1
        assert census.table_tags == 1

    def test_census_counts_rejections(self):
        html = page(
            DATA_TABLE
            + "<table><tr><td><input/></td><td>x</td></tr><tr><td>a</td><td>b</td></tr></table>"
        )
        census = ExtractionCensus()
        extract_tables(parse_html(html), census=census)
        assert census.table_tags == 2
        assert census.rejected.get("form") == 1
        assert abs(census.yield_fraction - 0.5) < 1e-9

    def test_deep_nesting_extracts_in_linear_time(self):
        """An outer table is rejected as nested before any grid is built:
        one grid per level walks the whole subtree below it, which made
        1 000 levels take seconds."""
        depth = 1000
        root = parse_html(
            "<table><tr><td>" * depth + "x" + "</td></tr></table>" * depth
        )
        census = ExtractionCensus()
        start = time.perf_counter()
        assert extract_tables(root, census=census) == []
        assert time.perf_counter() - start < 0.5
        assert census.rejected == {"nested": 999, "too_few_rows": 1}

    def test_ids_unique_per_page(self):
        html = page(DATA_TABLE + DATA_TABLE.replace("Denali", "Aconcagua"))
        tables = extract_tables(parse_html(html), id_prefix="p1_t")
        ids = [t.table_id for t in tables]
        assert len(set(ids)) == len(ids)


class TestContextExtraction:
    def test_nearby_heading_scores_highest(self):
        html = page(
            "<div><h2>Dog breeds</h2>" + DATA_TABLE + "</div>"
            "<p>Unrelated footer text far away.</p>"
        )
        root = parse_html(html)
        table = root.find_first("table")
        snippets = extract_context(root, table)
        assert snippets, "expected context snippets"
        assert snippets[0].text == "Dog breeds"

    def test_left_siblings_beat_right(self):
        html = page("<div><p>before text</p>" + DATA_TABLE + "<p>after text</p></div>")
        root = parse_html(html)
        snippets = extract_context(root, root.find_first("table"))
        scores = {s.text: s.score for s in snippets}
        assert scores["before text"] > scores["after text"]

    def test_other_tables_excluded(self):
        html = page(DATA_TABLE + DATA_TABLE.replace("Denali", "Elbrus"))
        root = parse_html(html)
        first = root.find_first("table")
        snippets = extract_context(root, first)
        assert all("Elbrus" not in s.text for s in snippets)

    def test_scores_bounded(self):
        html = page("<h1>T</h1><div><p>a</p><div>" + DATA_TABLE + "</div><p>b</p></div>")
        root = parse_html(html)
        for s in extract_context(root, root.find_first("table")):
            assert 0.0 <= s.score <= 1.0
