"""Extracting data tables from crawled HTML pages (Section 2.1).

The ``<table>`` tag is mostly used for layout: on the paper's 500M-page
crawl only ~10% of table tags held relational data.  This module converts
``<table>`` elements into :class:`~repro.tables.table.WebTable` grids and
applies the layout/artifact rejection heuristics, recording a reason for
every rejection so the corpus census benchmark can report the same yield
statistics as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..html.dom import ElementNode
from .context import extract_context
from .headers import detect_header_rows
from .table import Cell, CellFormat, WebTable, shared_cell_format

__all__ = ["ExtractionCensus", "extract_grid", "is_data_table", "extract_tables"]

_EMPHASIS_BY_TAG = {
    "b": "bold", "strong": "bold",
    "i": "italic", "em": "italic",
    "u": "underline",
    "code": "code",
}
_FORM_TAGS = frozenset({"input", "select", "button", "textarea", "form"})


@dataclass
class ExtractionCensus:
    """Counts gathered while extracting a corpus, mirroring Section 2.1."""

    table_tags: int = 0
    data_tables: int = 0
    rejected: dict = field(default_factory=dict)
    header_row_histogram: dict = field(default_factory=dict)

    def record_rejection(self, reason: str) -> None:
        """Count one rejected candidate."""
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def record_headers(self, num_header_rows: int) -> None:
        """Count one accepted table's header-row count."""
        key = min(num_header_rows, 3)  # 3 == "more than two"
        self.header_row_histogram[key] = self.header_row_histogram.get(key, 0) + 1

    @property
    def yield_fraction(self) -> float:
        """Fraction of table tags that were data tables (~10% in the paper)."""
        return self.data_tables / self.table_tags if self.table_tags else 0.0


def _cell_format(cell_el: ElementNode) -> CellFormat:
    """Derive :class:`CellFormat` from a ``<td>``/``<th>`` element."""
    tags = set()
    header_tag = False
    for node in cell_el.iter_descendants():
        if isinstance(node, ElementNode):
            if node.tag in _EMPHASIS_BY_TAG:
                tags.add(_EMPHASIS_BY_TAG[node.tag])
            if node.tag in {"h1", "h2", "h3", "h4", "h5", "h6"}:
                header_tag = True
    style = cell_el.get_attr("style")
    background = cell_el.get_attr("bgcolor") or (
        "style" if "background" in style else ""
    )
    return shared_cell_format(
        is_th=cell_el.tag == "th",
        bold="bold" in tags,
        italic="italic" in tags,
        underline="underline" in tags,
        code="code" in tags,
        header_tag=header_tag,
        background=background,
        css_class=cell_el.get_attr("class"),
    )


def extract_grid(table_el: ElementNode) -> List[List[Cell]]:
    """Turn a ``<table>`` element into a rectangular cell grid.

    ``colspan`` is honoured by repeating the cell's text into the first slot
    and padding the remainder with empty cells (keeps columns aligned without
    duplicating content); ``rowspan`` is ignored — rare in data tables and
    harmless for the clues the mapper uses.  Nested tables contribute no
    cells to the outer grid.
    """
    rows: List[List[Cell]] = []
    for tr in table_el.find_all("tr"):
        # Skip rows belonging to a nested table.
        owner = next(
            (anc for anc in tr.ancestors() if anc.tag == "table"), None
        )
        if owner is not table_el:
            continue
        cells: List[Cell] = []
        for cell_el in tr.child_elements():
            if cell_el.tag not in ("td", "th"):
                continue
            text = cell_el.text_content()
            fmt = _cell_format(cell_el)
            cells.append(Cell(text=text, fmt=fmt))
            try:
                span = int(cell_el.get_attr("colspan", "1"))
            except ValueError:
                span = 1
            for _ in range(max(0, min(span, 20) - 1)):
                cells.append(Cell(text="", fmt=fmt))
        if cells:
            rows.append(cells)
    width = max((len(r) for r in rows), default=0)
    for row in rows:
        row.extend(Cell() for _ in range(width - len(row)))
    return rows


def is_data_table(
    table_el: ElementNode, grid: Optional[List[List[Cell]]] = None
) -> Tuple[bool, str]:
    """Apply the relational-data heuristics of Section 2.1.

    Returns ``(accepted, reason)`` where ``reason`` names the failed test for
    rejected candidates (``"ok"`` otherwise).
    """
    if grid is None:
        grid = extract_grid(table_el)

    # Forms / interactive widgets are never data tables.
    for node in table_el.iter_descendants():
        if isinstance(node, ElementNode) and node.tag in _FORM_TAGS:
            return False, "form"
        if isinstance(node, ElementNode) and node.tag == "table":
            return False, "nested"

    if len(grid) < 2:
        return False, "too_few_rows"
    width = len(grid[0])
    if width < 2:
        return False, "single_column"

    cells = [c for row in grid for c in row]
    non_empty = [c for c in cells if not c.is_empty()]
    if not non_empty or len(non_empty) < 0.5 * len(cells):
        return False, "mostly_empty"

    # Calendars: wide grids of small day numbers.
    numeric_small = [
        c for c in non_empty
        if c.is_numeric() and 0 <= _to_float(c.text) <= 31 and len(c.text.strip()) <= 2
    ]
    if width >= 5 and len(numeric_small) >= 0.8 * len(non_empty):
        return False, "calendar"

    # Layout tables: paragraph-sized cells.
    avg_chars = sum(len(c.text) for c in non_empty) / len(non_empty)
    if avg_chars > 200:
        return False, "layout_long_cells"

    # Layout tables: wildly ragged rows.  Rows with at most one non-empty
    # cell are title/banner rows and split header rows may be sparse, so we
    # require a dominant modal width rather than uniform widths.
    raw_widths = [sum(1 for c in row if not c.is_empty()) for row in grid]
    body_widths = [w for w in raw_widths if w > 1]
    if body_widths:
        mode_count = max(body_widths.count(w) for w in set(body_widths))
        if mode_count < 0.6 * len(body_widths):
            return False, "ragged"

    # Lists-in-disguise: almost no distinct values.
    distinct = {c.text.strip().lower() for c in non_empty}
    if len(distinct) < 3:
        return False, "degenerate_content"

    return True, "ok"


def _to_float(text: str) -> float:
    try:
        return float(text.strip().replace(",", ""))
    except ValueError:
        return -1.0


def extract_tables(
    root: ElementNode,
    url: str = "",
    id_prefix: str = "t",
    census: Optional[ExtractionCensus] = None,
) -> List[WebTable]:
    """Extract all data tables from a parsed page.

    Runs the full Section 2.1 pipeline per candidate: grid conversion,
    data-table filtering, title/header detection, and context extraction.
    """
    page_title_el = root.find_first("title")
    page_title = page_title_el.text_content() if page_title_el is not None else ""

    out: List[WebTable] = []
    for idx, table_el in enumerate(root.find_all("table")):
        if census is not None:
            census.table_tags += 1
        grid = extract_grid(table_el)
        ok, reason = is_data_table(table_el, grid)
        if not ok:
            if census is not None:
                census.record_rejection(reason)
            continue
        num_title, num_header = detect_header_rows(grid)
        if len(grid) - num_title - num_header < 1:
            if census is not None:
                census.record_rejection("no_body_rows")
            continue
        context = extract_context(root, table_el)
        table = WebTable(
            grid=grid,
            num_title_rows=num_title,
            num_header_rows=num_header,
            context=context,
            url=url,
            table_id=f"{id_prefix}{idx}",
            page_title=page_title,
        )
        if census is not None:
            census.data_tables += 1
            census.record_headers(num_header)
        out.append(table)
    return out
