"""The web-table data model.

A :class:`WebTable` is the unit everything downstream operates on: the index
stores one document per table with ``header``/``context``/``content`` fields,
the column mapper scores its header rows, title, context and body columns,
and the consolidator merges its rows into the answer.

Structure follows Section 2.1.1: a table is zero or more *title* rows,
followed by zero or more *header* rows, followed by *body* rows.  Context is
a list of scored text snippets extracted from the parent document
(Section 2.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..text.tokenize import tokenize
from .compiled import CompiledTable

__all__ = [
    "CellFormat", "Cell", "ContextSnippet", "WebTable", "shared_cell_format",
]


@dataclass(frozen=True)
class CellFormat:
    """Visual/markup features of a cell, used by header detection."""

    is_th: bool = False
    bold: bool = False
    italic: bool = False
    underline: bool = False
    code: bool = False
    header_tag: bool = False  # h1..h6 inside the cell
    background: str = ""  # bgcolor attr or style background
    css_class: str = ""

    def emphasis_count(self) -> int:
        """Number of distinct emphasis markers set on this cell."""
        return sum(
            (self.is_th, self.bold, self.italic, self.underline,
             self.code, self.header_tag)
        )


@lru_cache(maxsize=1024)
def shared_cell_format(
    is_th: bool = False,
    bold: bool = False,
    italic: bool = False,
    underline: bool = False,
    code: bool = False,
    header_tag: bool = False,
    background: str = "",
    css_class: str = "",
) -> CellFormat:
    """The one :class:`CellFormat` instance for these field values.

    A corpus holds millions of cells and a handful of distinct formats;
    every constructor of cells goes through here so equal formats are one
    object.  Sharing is only a memory saving (formats are frozen and
    compare by value), so the LRU bound costs nothing but a duplicate
    when a hostile page invents more class names than it holds.
    """
    return CellFormat(
        is_th, bold, italic, underline, code, header_tag, background,
        css_class,
    )


#: :func:`_format_flags`'s cache: ``id(fmt)`` -> ``(fmt, flags)``.  Holding
#: the format keeps its id from being reused while the entry lives.
_FORMAT_FLAGS: Dict[int, Tuple[CellFormat, Dict[str, object]]] = {}


def _format_flags(fmt: CellFormat) -> Dict[str, object]:
    """The ``"f"`` dict :meth:`WebTable.to_dict` writes for ``fmt``.

    Built once per format object, not once per cell: formats are interned
    by :func:`shared_cell_format`, so a corpus serializes a handful of
    them.  Keyed on identity because a frozen dataclass hashes all its
    fields on every lookup; bounded like :func:`shared_cell_format`, by
    starting over when a hostile page brings more than 1024 formats.
    """
    hit = _FORMAT_FLAGS.get(id(fmt))
    if hit is not None:
        return hit[1]
    flags: Dict[str, object] = {
        "th": fmt.is_th,
        "b": fmt.bold,
        "i": fmt.italic,
        "u": fmt.underline,
        "c": fmt.code,
        "h": fmt.header_tag,
        "bg": fmt.background,
        "cls": fmt.css_class,
    }
    if len(_FORMAT_FLAGS) >= 1024:
        _FORMAT_FLAGS.clear()
    _FORMAT_FLAGS[id(fmt)] = (fmt, flags)
    return flags


@dataclass(frozen=True)
class Cell:
    """One table cell: its text plus formatting."""

    text: str = ""
    fmt: CellFormat = field(default_factory=shared_cell_format)

    def is_empty(self) -> bool:
        """True when the cell holds no visible text."""
        return not self.text.strip()

    def is_numeric(self) -> bool:
        """True when the text parses as a number (commas/%/$ tolerated)."""
        stripped = self.text.strip().replace(",", "").replace("%", "").replace("$", "")
        if not stripped:
            return False
        try:
            float(stripped)
            return True
        except ValueError:
            return False

    def is_capitalized(self) -> bool:
        """True when every word starts upper-case (a header marker)."""
        words = [w for w in self.text.split() if w and w[0].isalpha()]
        return bool(words) and all(w[0].isupper() for w in words)


@dataclass(frozen=True)
class ContextSnippet:
    """A context text snippet with its extraction score in [0, 1]."""

    text: str
    score: float = 1.0


class WebTable:
    """A table extracted from a web page.

    Parameters
    ----------
    grid:
        Rectangular cell grid (rows of equal length; pad before building).
    num_title_rows, num_header_rows:
        Prefix split per Section 2.1.1; ``grid[:nt]`` are title rows,
        ``grid[nt:nt+nh]`` header rows, the rest body rows.
    context:
        Scored snippets from the parent document.
    url, table_id:
        Provenance; ``table_id`` must be unique within a corpus.
    """

    __slots__ = (
        "table_id", "url", "grid", "num_title_rows", "num_header_rows",
        "context", "page_title", "_compiled",
    )

    def __init__(
        self,
        grid: Sequence[Sequence[Cell]],
        num_title_rows: int = 0,
        num_header_rows: int = 0,
        context: Optional[Sequence[ContextSnippet]] = None,
        url: str = "",
        table_id: str = "",
        page_title: str = "",
    ) -> None:
        rows = [list(r) for r in grid]
        width = max((len(r) for r in rows), default=0)
        for row in rows:
            row.extend(Cell() for _ in range(width - len(row)))
        if num_title_rows < 0 or num_header_rows < 0:
            raise ValueError("row counts must be non-negative")
        if num_title_rows + num_header_rows > len(rows):
            raise ValueError("title + header rows exceed table height")
        self.grid: List[List[Cell]] = rows
        self.num_title_rows = num_title_rows
        self.num_header_rows = num_header_rows
        self.context: List[ContextSnippet] = list(context or [])
        self.url = url
        self.table_id = table_id
        self.page_title = page_title
        self._compiled: Optional[CompiledTable] = None

    def compiled(self) -> CompiledTable:
        """The table's token bags, tokenized on first use and then kept.

        A table is never written after construction (reprolint R009), so
        the compiled form cannot go stale.  Two threads racing on a cold
        table may both compile; they produce equal values and one wins.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledTable(self)
        return compiled

    # -- shape ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Total rows including title and header rows."""
        return len(self.grid)

    @property
    def num_cols(self) -> int:
        """Number of columns (grid is rectangular)."""
        return len(self.grid[0]) if self.grid else 0

    @property
    def num_body_rows(self) -> int:
        """Number of data rows."""
        return self.num_rows - self.num_title_rows - self.num_header_rows

    # -- row access ------------------------------------------------------------

    def title_rows(self) -> List[List[Cell]]:
        """The title rows (possibly empty list)."""
        return self.grid[: self.num_title_rows]

    def header_rows(self) -> List[List[Cell]]:
        """The header rows (possibly empty list)."""
        start = self.num_title_rows
        return self.grid[start : start + self.num_header_rows]

    def body_rows(self) -> List[List[Cell]]:
        """The data rows."""
        return self.grid[self.num_title_rows + self.num_header_rows :]

    # -- text views ------------------------------------------------------------

    def title_text(self) -> str:
        """All title-row text joined."""
        return " ".join(
            cell.text for row in self.title_rows() for cell in row if not cell.is_empty()
        )

    def header_text(self, row: int, col: int) -> str:
        """Header text of header row ``row`` (0-based) at column ``col``."""
        return self.header_rows()[row][col].text

    def header_tokens(self, row: int, col: int) -> List[str]:
        """Tokens of one header cell."""
        return tokenize(self.header_text(row, col))

    def column_header_tokens(self, col: int) -> List[str]:
        """Tokens of all header rows of ``col`` concatenated."""
        toks: List[str] = []
        for row in self.header_rows():
            toks.extend(tokenize(row[col].text))
        return toks

    def column_values(self, col: int) -> List[str]:
        """Body cell texts of column ``col`` (empty cells skipped)."""
        return [row[col].text for row in self.body_rows() if not row[col].is_empty()]

    def body_cell(self, row: int, col: int) -> Cell:
        """Body cell at (row, col), 0-based within the body."""
        return self.body_rows()[row][col]

    def context_text(self) -> str:
        """All context snippets joined (unweighted)."""
        return " ".join(snippet.text for snippet in self.context)

    def context_tokens(self) -> List[str]:
        """Tokens over all context snippets."""
        toks: List[str] = []
        for snippet in self.context:
            toks.extend(tokenize(snippet.text))
        return toks

    # -- index fields ------------------------------------------------------------

    def field_text(self, name: str) -> str:
        """Text of one of the three Lucene-style fields.

        ``header`` = header rows + title rows, ``context`` = context snippets
        + page title, ``content`` = body cells.
        """
        if name == "header":
            header = " ".join(
                cell.text for row in self.header_rows() for cell in row
            )
            return (header + " " + self.title_text()).strip()
        if name == "context":
            return (self.context_text() + " " + self.page_title).strip()
        if name == "content":
            return " ".join(
                cell.text for row in self.body_rows() for cell in row
                if not cell.is_empty()
            )
        raise KeyError(f"unknown field {name!r}")

    def all_tokens(self) -> List[str]:
        """Distinct-ish token stream over all three fields (for df stats)."""
        toks: List[str] = []
        for fld in ("header", "context", "content"):
            toks.extend(tokenize(self.field_text(fld)))
        return toks

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (formats reduced to flags).

        Cells of one format share one ``"f"`` dict (see
        :func:`_format_flags`): serialize the result, don't edit it.
        """
        return {
            "table_id": self.table_id,
            "url": self.url,
            "page_title": self.page_title,
            "num_title_rows": self.num_title_rows,
            "num_header_rows": self.num_header_rows,
            "context": [[s.text, s.score] for s in self.context],
            "grid": [
                [{"t": cell.text, "f": _format_flags(cell.fmt)} for cell in row]
                for row in self.grid
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> WebTable:
        """Inverse of :meth:`to_dict`."""
        grid = [
            [
                Cell(
                    text=str(c["t"]),
                    fmt=shared_cell_format(
                        is_th=bool(c["f"]["th"]),
                        bold=bool(c["f"]["b"]),
                        italic=bool(c["f"]["i"]),
                        underline=bool(c["f"]["u"]),
                        code=bool(c["f"]["c"]),
                        header_tag=bool(c["f"]["h"]),
                        background=str(c["f"]["bg"]),
                        css_class=str(c["f"]["cls"]),
                    ),
                )
                for c in row
            ]
            for row in data["grid"]
        ]
        return cls(
            grid=grid,
            num_title_rows=int(data["num_title_rows"]),
            num_header_rows=int(data["num_header_rows"]),
            context=[ContextSnippet(str(t), float(s)) for t, s in data["context"]],
            url=str(data["url"]),
            table_id=str(data["table_id"]),
            page_title=str(data.get("page_title", "")),
        )

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[str]],
        header: Optional[Sequence[str]] = None,
        **kwargs: Any,
    ) -> WebTable:
        """Convenience constructor from plain string rows.

        >>> t = WebTable.from_rows([["a", "1"]], header=["Name", "Rank"])
        >>> t.num_header_rows, t.num_body_rows
        (1, 1)
        """
        grid: List[List[Cell]] = []
        num_header = 0
        if header is not None:
            grid.append(
                [Cell(h, shared_cell_format(is_th=True)) for h in header]
            )
            num_header = 1
        for row in rows:
            grid.append([Cell(str(v)) for v in row])
        return cls(grid=grid, num_header_rows=num_header, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WebTable(id={self.table_id!r}, {self.num_rows}x{self.num_cols}, "
            f"titles={self.num_title_rows}, headers={self.num_header_rows})"
        )
