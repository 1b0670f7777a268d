"""Duplicate-row detection for the consolidator (Section 2.2.3).

The paper delegates row resolution to Gupta & Sarawagi [9]; any sound
resolver preserves the pipeline, so we use the standard recipe: rows whose
*subject* cells agree after normalization are duplicates when their
remaining cells are compatible (equal after normalization, token-similar,
or one side empty).

A projected row is normalized once (:class:`NormalizedRow`): its cell keys
up front, a cell's token set the first time a comparison needs it.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from ..text.tokenize import normalize_cell, tokenize

__all__ = ["NormalizedRow", "cells_compatible", "rows_duplicate", "subject_key"]

#: Token-Jaccard at or above this makes two non-equal cells compatible.
_CELL_SIM_THRESHOLD = 0.6


def subject_key(value: str) -> str:
    """Normalization key of a subject cell."""
    return normalize_cell(value)


class NormalizedRow:
    """A projected answer row with its comparison keys, computed once.

    ``cells`` is held by reference: when the consolidator fills an empty
    cell of the row it refreshes that cell with :meth:`fill`.
    """

    __slots__ = ("cells", "keys", "_tokens")

    def __init__(self, cells: Sequence[str]) -> None:
        self.cells = cells
        self.keys = [normalize_cell(c) for c in cells]
        self._tokens: List[Optional[FrozenSet[str]]] = [None] * len(cells)

    def tokens(self, i: int) -> FrozenSet[str]:
        """Token set of cell ``i``, built on first use."""
        found = self._tokens[i]
        if found is None:
            found = self._tokens[i] = frozenset(tokenize(self.cells[i]))
        return found

    def fill(self, i: int, source: NormalizedRow) -> None:
        """Cell ``i`` now holds ``source``'s cell ``i``: take its keys."""
        self.keys[i] = source.keys[i]
        self._tokens[i] = source._tokens[i]

    def compatible(self, other: NormalizedRow, i: int) -> bool:
        """Can cell ``i`` of the two rows describe the same fact?

        Empty cells are wildcards; otherwise normalized equality or high
        token overlap.
        """
        ka, kb = self.keys[i], other.keys[i]
        if not ka or not kb or ka == kb:
            return True
        ta, tb = self.tokens(i), other.tokens(i)
        if not ta or not tb:
            return True
        inter = len(ta & tb)
        union = len(ta | tb)
        return union > 0 and inter / union >= _CELL_SIM_THRESHOLD

    def duplicates(self, other: NormalizedRow, subject_col: int = 0) -> bool:
        """Are the two rows duplicates?

        Requires matching (non-empty) subject cells and compatibility in
        every other position.
        """
        if len(self.keys) != len(other.keys):
            return False
        key = self.keys[subject_col]
        if not key or key != other.keys[subject_col]:
            return False
        return all(
            self.compatible(other, i)
            for i in range(len(self.keys))
            if i != subject_col
        )


def cells_compatible(a: str, b: str) -> bool:
    """Can two cells describe the same fact? (See
    :meth:`NormalizedRow.compatible`.)"""
    return NormalizedRow([a]).compatible(NormalizedRow([b]), 0)


def rows_duplicate(
    row_a: Sequence[str],
    row_b: Sequence[str],
    subject_col: int = 0,
) -> bool:
    """Are two projected answer rows duplicates? (See
    :meth:`NormalizedRow.duplicates`.)"""
    return NormalizedRow(row_a).duplicates(NormalizedRow(row_b), subject_col)
