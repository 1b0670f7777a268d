"""The consolidator (Section 2.2.3): merge mapped tables into one answer.

Given the column mapper's output — relevant tables with per-column query
labels and confidence scores — project each relevant table onto the query's
columns, merge duplicate rows (filling empty cells from duplicates), and
track per-row support for the ranker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..query.model import Query
from ..tables.table import WebTable
from .dedup import NormalizedRow

__all__ = ["AnswerRow", "AnswerTable", "consolidate"]


@dataclass
class AnswerRow:
    """One consolidated answer row."""

    cells: List[str]
    support: int = 1  # how many source tables contributed this row
    source_tables: List[str] = field(default_factory=list)
    relevance: float = 0.0  # best source-table relevance score

    def merge(
        self, cells: Sequence[str], table_id: str, relevance: float
    ) -> List[int]:
        """Fold a duplicate occurrence into this row.

        Returns the positions of the empty cells it filled from ``cells``.
        """
        filled: List[int] = []
        for i, value in enumerate(cells):
            if not self.cells[i].strip() and value.strip():
                self.cells[i] = value
                filled.append(i)
        self.support += 1
        if table_id not in self.source_tables:
            self.source_tables.append(table_id)
        self.relevance = max(self.relevance, relevance)
        return filled


@dataclass
class AnswerTable:
    """The consolidated multi-column answer."""

    query: Query
    rows: List[AnswerRow] = field(default_factory=list)
    source_table_ids: List[str] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        """Number of consolidated rows."""
        return len(self.rows)

    def header(self) -> List[str]:
        """Column headers (the query's keyword sets)."""
        return list(self.query.columns)


def consolidate(
    query: Query,
    tables: Sequence[WebTable],
    mappings: Mapping[int, Mapping[int, int]],
    relevance_scores: Optional[Mapping[int, float]] = None,
) -> AnswerTable:
    """Merge relevant tables into one answer table.

    ``mappings`` maps table index -> {table column -> 1-based query column}
    (only relevant tables should appear).  Duplicate rows merge; empty
    projected rows are dropped.  Each projected row is normalized once; a
    row with an empty subject key is never compared, since it duplicates
    nothing.
    """
    answer = AnswerTable(query=query)
    # normalized[idx] is answer.rows[idx]'s comparison form, sharing its
    # cells list; by_key indexes rows with a non-empty subject key.
    normalized: List[NormalizedRow] = []
    by_key: Dict[str, List[int]] = {}

    for ti, mapping in sorted(mappings.items()):
        if not mapping:
            continue
        table = tables[ti]
        relevance = (relevance_scores or {}).get(ti, 1.0)
        answer.source_table_ids.append(table.table_id)
        inverse = {qc - 1: tc for tc, qc in mapping.items()}
        for row in table.body_rows():
            # A mapping referencing a column beyond this row's width (a
            # ragged source, or a stale mapping after table edits)
            # projects as an empty cell rather than an IndexError.
            cells = [
                row[inverse[l]].text
                if l in inverse and inverse[l] < len(row) else ""
                for l in range(query.q)
            ]
            if not any(c.strip() for c in cells):
                continue
            incoming = NormalizedRow(cells)
            key = incoming.keys[0]
            merged = False
            for idx in by_key.get(key, []):
                if normalized[idx].duplicates(incoming):
                    for i in answer.rows[idx].merge(
                        cells, table.table_id, relevance
                    ):
                        normalized[idx].fill(i, incoming)
                    merged = True
                    break
            if not merged:
                answer.rows.append(
                    AnswerRow(
                        cells=cells,
                        support=1,
                        source_tables=[table.table_id],
                        relevance=relevance,
                    )
                )
                normalized.append(incoming)
                if key:
                    by_key.setdefault(key, []).append(len(answer.rows) - 1)
    return answer
