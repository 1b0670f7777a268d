"""A minimal DOM tree for web pages.

The offline pipeline (Section 2.1) needs real document structure: the table
extractor walks ``<table>`` elements, the header detector inspects cell
formatting tags, and the context extractor scores text nodes by their tree
distance from the table node and by the formatting tags around them.  This
module provides the node model those components share.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

__all__ = ["DomNode", "TextNode", "ElementNode", "FORMAT_TAGS", "VOID_ELEMENTS"]

#: Inline formatting tags that signal emphasized / header-like text.  Both the
#: header detector (Section 2.1.1) and the context scorer (Section 2.1.2) key
#: off these.
FORMAT_TAGS = frozenset(
    {"b", "strong", "i", "em", "u", "h1", "h2", "h3", "h4", "h5", "h6", "th", "code"}
)

#: HTML elements that never have children.
VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)


class DomNode:
    """Base class for DOM nodes; provides tree navigation."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional[ElementNode] = None

    def path_to_root(self) -> List[DomNode]:
        """Nodes from ``self`` (inclusive) up to the root (inclusive)."""
        path: List[DomNode] = [self]
        node = self.parent
        while node is not None:
            path.append(node)
            node = node.parent
        return path

    def depth(self) -> int:
        """Number of ancestors above this node."""
        return len(self.path_to_root()) - 1

    def ancestors(self) -> Iterator[ElementNode]:
        """Iterate over ancestors from parent to root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class TextNode(DomNode):
    """A text leaf."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def text_content(self) -> str:
        """The node's text."""
        return self.text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        snippet = self.text.strip()[:30]
        return f"TextNode({snippet!r})"


class ElementNode(DomNode):
    """An element with a tag name, attributes, and children."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attrs: Dict[str, str] = dict(attrs or {})
        self.children: List[DomNode] = []

    def append(self, child: DomNode) -> DomNode:
        """Attach ``child`` and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def text_content(self) -> str:
        """Concatenated text of all descendant text nodes."""
        parts: List[str] = []
        for node in self.iter_descendants():
            if isinstance(node, TextNode):
                parts.append(node.text)
        return " ".join(p.strip() for p in parts if p.strip())

    def iter_descendants(self) -> Iterator[DomNode]:
        """Depth-first iteration over all descendants (self excluded)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ElementNode):
                stack.extend(reversed(node.children))

    def find_all(self, tag: str) -> List[ElementNode]:
        """All descendant elements with the given tag name."""
        tag = tag.lower()
        return [
            node
            for node in self.iter_descendants()
            if isinstance(node, ElementNode) and node.tag == tag
        ]

    def find_first(self, tag: str) -> Optional[ElementNode]:
        """First descendant element with the given tag name, if any."""
        tag = tag.lower()
        for node in self.iter_descendants():
            if isinstance(node, ElementNode) and node.tag == tag:
                return node
        return None

    def child_elements(self, tag: Optional[str] = None) -> List[ElementNode]:
        """Direct element children, optionally filtered by tag."""
        out = [c for c in self.children if isinstance(c, ElementNode)]
        if tag is not None:
            tag = tag.lower()
            out = [c for c in out if c.tag == tag]
        return out

    def get_attr(self, name: str, default: str = "") -> str:
        """Attribute value (case-insensitive name)."""
        return self.attrs.get(name.lower(), default)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ElementNode(<{self.tag}> children={len(self.children)})"
