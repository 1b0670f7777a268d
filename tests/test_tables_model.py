"""Unit tests for repro.tables.table (WebTable model)."""

import json

import pytest

from repro.tables.table import Cell, CellFormat, ContextSnippet, WebTable


def make_table():
    grid = [
        [Cell("Explorers", CellFormat(bold=True)), Cell(""), Cell("")],
        [Cell("Name", CellFormat(is_th=True)), Cell("Nationality", CellFormat(is_th=True)),
         Cell("Areas", CellFormat(is_th=True))],
        [Cell("Abel Tasman"), Cell("Dutch"), Cell("Oceania")],
        [Cell("Vasco da Gama"), Cell("Portuguese"), Cell("Sea route to India")],
    ]
    return WebTable(
        grid=grid,
        num_title_rows=1,
        num_header_rows=1,
        context=[ContextSnippet("List of explorers", 0.9)],
        url="http://example.com",
        table_id="t1",
        page_title="Explorers - wiki",
    )


class TestShape:
    def test_counts(self):
        t = make_table()
        assert t.num_rows == 4
        assert t.num_cols == 3
        assert t.num_body_rows == 2

    def test_ragged_rows_padded(self):
        t = WebTable(grid=[[Cell("a")], [Cell("b"), Cell("c")]])
        assert t.num_cols == 2
        assert t.grid[0][1].is_empty()

    def test_invalid_row_counts_raise(self):
        with pytest.raises(ValueError):
            WebTable(grid=[[Cell("a")]], num_header_rows=2)
        with pytest.raises(ValueError):
            WebTable(grid=[[Cell("a")]], num_title_rows=-1)


class TestSections:
    def test_title_text(self):
        assert make_table().title_text() == "Explorers"

    def test_header_tokens(self):
        t = make_table()
        assert t.header_tokens(0, 0) == ["name"]
        assert t.column_header_tokens(1) == ["nationality"]

    def test_body_rows(self):
        t = make_table()
        assert len(t.body_rows()) == 2
        assert t.body_cell(1, 0).text == "Vasco da Gama"

    def test_column_values_skips_empty(self):
        grid = [[Cell("h")], [Cell("x")], [Cell("")], [Cell("y")]]
        t = WebTable(grid=grid, num_header_rows=1)
        assert t.column_values(0) == ["x", "y"]


class TestFields:
    def test_header_field_includes_title(self):
        text = make_table().field_text("header")
        assert "Name" in text and "Explorers" in text

    def test_context_field_includes_page_title(self):
        text = make_table().field_text("context")
        assert "List of explorers" in text and "wiki" in text

    def test_content_field_is_body_only(self):
        text = make_table().field_text("content")
        assert "Abel Tasman" in text
        assert "Name" not in text

    def test_unknown_field_raises(self):
        with pytest.raises(KeyError):
            make_table().field_text("nope")


class TestCell:
    def test_numeric_detection(self):
        assert Cell("1,234").is_numeric()
        assert Cell("12.5%").is_numeric()
        assert Cell("$3.99").is_numeric()
        assert not Cell("12b").is_numeric()
        assert not Cell("").is_numeric()

    def test_capitalized(self):
        assert Cell("Name Of Explorer").is_capitalized()
        assert not Cell("name of explorer").is_capitalized()
        assert not Cell("123").is_capitalized()

    def test_emphasis_count(self):
        fmt = CellFormat(is_th=True, bold=True)
        assert fmt.emphasis_count() == 2


class TestSerialization:
    def test_roundtrip(self):
        t = make_table()
        clone = WebTable.from_dict(t.to_dict())
        assert clone.table_id == t.table_id
        assert clone.num_title_rows == t.num_title_rows
        assert clone.num_header_rows == t.num_header_rows
        assert clone.num_cols == t.num_cols
        assert clone.grid[1][0].fmt.is_th
        assert clone.context[0].text == "List of explorers"
        assert clone.page_title == t.page_title

    def test_from_rows_convenience(self):
        t = WebTable.from_rows([["a", "1"], ["b", "2"]], header=["N", "V"], table_id="x")
        assert t.num_header_rows == 1
        assert t.column_values(1) == ["1", "2"]
        assert t.grid[0][0].fmt.is_th

    def test_format_flags_match_each_cell(self):
        # More distinct (un-interned) formats than the flags cache holds:
        # every cell still serializes its own format's flags.
        formats = [
            CellFormat(is_th=i % 2 == 0, bold=i % 3 == 0, italic=i % 5 == 0,
                       underline=i % 7 == 0, code=i % 11 == 0,
                       header_tag=i % 13 == 0, background=f"#{i:06x}",
                       css_class=f"c{i}")
            for i in range(1500)
        ]
        t = WebTable(grid=[[Cell(str(i), f) for i, f in enumerate(formats)]])
        for _ in range(2):
            cells = t.to_dict()["grid"][0]
            assert [c["f"] for c in cells] == [
                {"th": f.is_th, "b": f.bold, "i": f.italic, "u": f.underline,
                 "c": f.code, "h": f.header_tag, "bg": f.background,
                 "cls": f.css_class}
                for f in formats
            ]

    def test_row_json_is_unchanged(self):
        # The tables.jsonl bytes of a table, as written before the "f"
        # dicts were shared between cells.
        assert json.dumps(make_table().to_dict(), ensure_ascii=False) == (
            '{"table_id": "t1", "url": "http://example.com", '
            '"page_title": "Explorers - wiki", "num_title_rows": 1, '
            '"num_header_rows": 1, "context": [["List of explorers", 0.9]], '
            '"grid": [[{"t": "Explorers", "f": {"th": false, "b": true, '
            '"i": false, "u": false, "c": false, "h": false, "bg": "", '
            '"cls": ""}}, {"t": "", "f": {"th": false, "b": false, '
            '"i": false, "u": false, "c": false, "h": false, "bg": "", '
            '"cls": ""}}, {"t": "", "f": {"th": false, "b": false, '
            '"i": false, "u": false, "c": false, "h": false, "bg": "", '
            '"cls": ""}}], [{"t": "Name", "f": {"th": true, "b": false, '
            '"i": false, "u": false, "c": false, "h": false, "bg": "", '
            '"cls": ""}}, {"t": "Nationality", "f": {"th": true, "b": false, '
            '"i": false, "u": false, "c": false, "h": false, "bg": "", '
            '"cls": ""}}, {"t": "Areas", "f": {"th": true, "b": false, '
            '"i": false, "u": false, "c": false, "h": false, "bg": "", '
            '"cls": ""}}], [{"t": "Abel Tasman", "f": {"th": false, '
            '"b": false, "i": false, "u": false, "c": false, "h": false, '
            '"bg": "", "cls": ""}}, {"t": "Dutch", "f": {"th": false, '
            '"b": false, "i": false, "u": false, "c": false, "h": false, '
            '"bg": "", "cls": ""}}, {"t": "Oceania", "f": {"th": false, '
            '"b": false, "i": false, "u": false, "c": false, "h": false, '
            '"bg": "", "cls": ""}}], [{"t": "Vasco da Gama", "f": '
            '{"th": false, "b": false, "i": false, "u": false, "c": false, '
            '"h": false, "bg": "", "cls": ""}}, {"t": "Portuguese", "f": '
            '{"th": false, "b": false, "i": false, "u": false, "c": false, '
            '"h": false, "bg": "", "cls": ""}}, {"t": "Sea route to India", '
            '"f": {"th": false, "b": false, "i": false, "u": false, '
            '"c": false, "h": false, "bg": "", "cls": ""}}]]}'
        )
