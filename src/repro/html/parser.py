"""HTML parsing into the :mod:`repro.html.dom` tree.

Built on the standard library's :class:`html.parser.HTMLParser` with the
forgiving behaviour real web pages demand: unclosed ``<p>``/``<li>``/``<td>``
tags, implicit ``<tbody>``, void elements, and stray close tags must not
derail extraction — the paper's corpus is arbitrary crawled HTML.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import List, Optional, Tuple

from .dom import ElementNode, TextNode, VOID_ELEMENTS

__all__ = ["parse_html", "DomBuilder"]

#: Tags that implicitly close an open tag of the same (or listed) kind, the
#: way browsers repair common unclosed-tag patterns.
_IMPLICIT_CLOSERS = {
    "li": {"li"},
    "p": {"p"},
    "tr": {"tr", "td", "th"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "option": {"option"},
    "thead": {"thead", "tbody", "tfoot"},
    "tbody": {"thead", "tbody", "tfoot"},
    "tfoot": {"thead", "tbody", "tfoot"},
}


class DomBuilder(HTMLParser):
    """Streams HTML tokens into an :class:`ElementNode` tree."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = ElementNode("document")
        self._stack: List[ElementNode] = [self.root]

    # -- helpers -----------------------------------------------------------

    @property
    def _top(self) -> ElementNode:
        return self._stack[-1]

    def _auto_close_for(self, tag: str) -> None:
        """Close tags that an opening ``tag`` implicitly terminates."""
        closers = _IMPLICIT_CLOSERS.get(tag)
        if not closers:
            return
        while len(self._stack) > 1 and self._top.tag in closers:
            self._stack.pop()

    # -- HTMLParser hooks ---------------------------------------------------

    def handle_starttag(
        self, tag: str, attrs: List[Tuple[str, Optional[str]]]
    ) -> None:
        tag = tag.lower()
        self._auto_close_for(tag)
        node = ElementNode(tag, {k.lower(): (v or "") for k, v in attrs})
        self._top.append(node)
        if tag not in VOID_ELEMENTS:
            self._stack.append(node)

    def handle_startendtag(
        self, tag: str, attrs: List[Tuple[str, Optional[str]]]
    ) -> None:
        node = ElementNode(tag, {k.lower(): (v or "") for k, v in attrs})
        self._top.append(node)

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag in VOID_ELEMENTS:
            return
        # Pop up to and including the matching open tag; ignore stray closes.
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return

    def handle_data(self, data: str) -> None:
        if data and data.strip():
            self._top.append(TextNode(data))

    def error(self, message: str) -> None:  # pragma: no cover - py<3.10 hook
        pass


def parse_html(html: str) -> ElementNode:
    """Parse ``html`` into a DOM tree rooted at a synthetic ``document`` node.

    Never raises on malformed markup; whatever structure can be recovered is
    returned.

    >>> root = parse_html("<html><body><p>hi</p></body></html>")
    >>> root.find_first("p").text_content()
    'hi'
    """
    builder = DomBuilder()
    try:
        builder.feed(html)
        builder.close()
    except Exception:
        # Extremely malformed input: keep whatever tree was built so far.
        pass
    return builder.root


def find_tables(root: ElementNode) -> List[ElementNode]:
    """All ``<table>`` elements under ``root`` in document order."""
    return root.find_all("table")


def outermost_tables(root: ElementNode) -> List[ElementNode]:
    """``<table>`` elements that are not nested inside another table.

    Layout pages frequently nest data tables inside layout tables; the table
    extractor considers each candidate separately, but corpus statistics
    (Section 2.1) count outermost table *tags*.
    """
    tables = find_tables(root)
    out: List[ElementNode] = []
    for table in tables:
        if not any(anc.tag == "table" for anc in table.ancestors()):
            out.append(table)
    return out
