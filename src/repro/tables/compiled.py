"""The compiled form of a web table: every cell tokenized exactly once.

SegSim/Cover (Section 3.2) and the content-overlap edges (Section 3.3)
compare token bags that are properties of the table alone; corpus IDF only
re-weights them.  A :class:`CompiledTable` holds those bags — built lazily
by :meth:`WebTable.compiled() <repro.tables.table.WebTable.compiled>` and
kept on the table object — so a query multiplies raw counts by
``stats.idf`` instead of re-tokenizing and re-normalising every cell of
every candidate table.

Nothing here depends on the query, the corpus statistics or the model
weights, so it is *data derived from the table*, not a cache: it has no
capacity, no invalidation and no key.  Its lifetime is the table
object's; a table deleted and re-added under the same id is a new object
with its own compiled form.  Compile-once is sound because a
:class:`~repro.tables.table.WebTable` is never written after construction
(reprolint R009).

**Order is part of the contract.**  The count dicts are plain ``dict``\\ s
in first-occurrence order of the column's tokens (top body row first, left
to right within a cell; header rows top to bottom).  The float sums of
``core.edges`` iterate them, so the same table always yields the same
bits.  Every token and value is ``sys.intern``\\ ed: a corpus repeats a
small vocabulary across thousands of tables, and interned keys make the
compiled forms share one string object per token.
"""

from __future__ import annotations

from collections import Counter
from sys import intern
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Set,
)

from ..text.tokenize import normalize_cell, tokenize

if TYPE_CHECKING:
    from .table import WebTable

__all__ = ["CompiledColumn", "CompiledTable"]

#: A body token is "frequent content" when it appears in at least this
#: fraction of some column's body cells (and at least twice).
_BODY_FREQ_THRESHOLD = 0.25

#: Shared by every empty out-part (all of *Hc* in a one-header-row table).
_NO_TOKENS: FrozenSet[str] = frozenset()


def _count(tokens: Iterable[str], counts: Dict[str, int]) -> None:
    """Count ``tokens`` into ``counts``; a new key is interned and goes last."""
    for tok in tokens:
        if tok in counts:
            counts[tok] += 1
        else:
            counts[intern(tok)] = 1


def _union_except(sets: Sequence[FrozenSet[str]], skip: int) -> FrozenSet[str]:
    """Union of ``sets`` without the one at index ``skip``."""
    rest = [s for i, s in enumerate(sets) if i != skip]
    return frozenset().union(*rest) if rest else _NO_TOKENS


class CompiledColumn:
    """One column's raw comparison data (Section 3.3's column profile)."""

    __slots__ = ("values", "token_counts", "header_counts")

    def __init__(
        self,
        values: FrozenSet[str],
        token_counts: Dict[str, int],
        header_counts: Dict[str, int],
    ) -> None:
        #: Distinct normalized body cell values (empty ones dropped).
        self.values = values
        #: Raw body token counts, first-occurrence order.
        self.token_counts = token_counts
        #: Raw token counts over the column's header cells, same order rule.
        self.header_counts = header_counts


class CompiledTable:
    """Token bags of one table's parts, tokenized once.

    ``header_tokens[r][c]`` / ``header_sets[r][c]`` are the token list and
    set of header cell ``(r, c)``; ``other_rows[r][c]`` (the paper's *Hc*)
    unions the column's other header rows and ``other_cols[r][c]`` (*Hr*)
    the row's other columns.  ``title_tokens`` covers the title rows and
    the page title, ``context_tokens`` the context snippets, and
    ``body_tokens`` the tokens frequent in the body of *some* column.
    """

    __slots__ = (
        "columns", "header_tokens", "header_sets", "other_rows",
        "other_cols", "title_tokens", "context_tokens", "body_tokens",
    )

    def __init__(self, table: WebTable) -> None:
        num_cols = table.num_cols
        self.header_tokens: List[List[List[str]]] = [
            [[intern(tok) for tok in tokenize(cell.text)] for cell in row]
            for row in table.header_rows()
        ]
        self.header_sets: List[List[FrozenSet[str]]] = [
            [frozenset(tokens) for tokens in row] for row in self.header_tokens
        ]
        self.other_rows: List[List[FrozenSet[str]]] = [
            [
                _union_except([row[c] for row in self.header_sets], r)
                for c in range(num_cols)
            ]
            for r in range(len(self.header_sets))
        ]
        self.other_cols: List[List[FrozenSet[str]]] = [
            [_union_except(row, c) for c in range(num_cols)]
            for row in self.header_sets
        ]
        self.title_tokens: FrozenSet[str] = frozenset(
            intern(tok)
            for tok in tokenize(table.title_text()) + tokenize(table.page_title)
        )
        # Frozen from a finished set: CPython sizes the copy to its content,
        # about half of what growing element by element leaves allocated.
        self.context_tokens: FrozenSet[str] = frozenset(
            {intern(tok) for tok in table.context_tokens()}
        )

        min_rows = _BODY_FREQ_THRESHOLD * max(table.num_body_rows, 1)
        frequent: Set[str] = set()
        self.columns: List[CompiledColumn] = []
        for c in range(num_cols):
            values: Set[str] = set()
            counts: Dict[str, int] = {}
            in_rows: Counter = Counter()  # body cells holding the token
            for text in table.column_values(c):
                value = normalize_cell(text)
                if value:
                    values.add(intern(value))
                tokens = tokenize(text)
                _count(tokens, counts)
                in_rows.update(set(tokens))
            frequent.update(
                tok for tok in counts
                if in_rows[tok] >= 2 and in_rows[tok] >= min_rows
            )
            header_counts: Dict[str, int] = {}
            for row_tokens in self.header_tokens:
                _count(row_tokens[c], header_counts)
            self.columns.append(
                CompiledColumn(frozenset(values), counts, header_counts)
            )
        self.body_tokens: FrozenSet[str] = frozenset(frequent)
