"""R010 negative: every annotation name is bound somewhere in the module."""

from __future__ import annotations

import typing
from typing import TYPE_CHECKING, Callable, List, Literal, Optional, Tuple

if TYPE_CHECKING:  # annotation-only imports count
    from collections import deque

Handler = Callable[[int], None]


class Node:
    parent: Optional[Node]  # the class's own name
    children: "List[Node]"  # quoted forward reference
    queue: "deque[int]"


def walk(root: Node, visit: Handler, mode: Literal["pre", "post"]) -> int:
    return 0


def pairs(items: typing.Sequence[str]) -> List[Tuple[str, int]]:
    return []


def note(text: "see the module docstring") -> bytes:  # prose, not a name
    return b""
