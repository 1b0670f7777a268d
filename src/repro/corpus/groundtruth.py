"""Ground-truth labels derived from generator provenance.

The paper hand-labeled 1906 retrieved web tables (each reviewed by two
labelers).  Our corpus is synthesized, so labels are exact by construction:
the generator knows which domain each table came from and which attribute
each column holds.

Labeling semantics mirror the paper's task definition plus its hard
constraints: a table is *relevant* to a query iff it comes from the query's
domain, contains the first query column (must-match), and contains at least
``min(2, q)`` of the query columns (min-match).  For relevant tables each
column holding a queried attribute is labeled with that query column
(1-based); remaining columns are ``na``.  Irrelevant tables have all columns
``nr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["TableProvenance", "TableLabel", "label_table", "GroundTruth"]


@dataclass(frozen=True)
class TableProvenance:
    """What the generator knows about one emitted table."""

    table_id: str
    domain_key: str
    column_attrs: Tuple[str, ...]
    is_distractor: bool


@dataclass(frozen=True)
class TableLabel:
    """Gold labeling of one table for one query."""

    relevant: bool
    #: table column index -> query column number (1-based); only for columns
    #: mapped to a query column.  Unmapped columns of relevant tables are na.
    mapping: Dict[int, int] = field(default_factory=dict)

    def label_of(self, col: int, num_cols: int) -> str:
        """The gold label of column ``col``: '1'..'q', 'na' or 'nr'."""
        if not self.relevant:
            return "nr"
        if col in self.mapping:
            return str(self.mapping[col])
        return "na"


def label_table(
    provenance: TableProvenance,
    query_domain: Optional[str],
    query_attrs: Sequence[str],
) -> TableLabel:
    """Compute the gold label of one table for one query binding.

    ``query_domain`` is None for queries with no relevant domain in the
    corpus (the paper has several with zero relevant tables).
    """
    if (
        query_domain is None
        or provenance.is_distractor
        or provenance.domain_key != query_domain
    ):
        return TableLabel(relevant=False)

    mapping: Dict[int, int] = {}
    for query_col, attr in enumerate(query_attrs, start=1):
        for table_col, col_attr in enumerate(provenance.column_attrs):
            if col_attr == attr:
                mapping[table_col] = query_col
                break

    q = len(query_attrs)
    has_first = any(lbl == 1 for lbl in mapping.values())
    min_match = min(2, q)
    if not has_first or len(mapping) < min_match:
        return TableLabel(relevant=False)
    return TableLabel(relevant=True, mapping=mapping)


class GroundTruth:
    """Gold labels for every (query, table) pair in a corpus."""

    def __init__(self) -> None:
        self._labels: Dict[str, Dict[str, TableLabel]] = {}

    def set_label(self, query_id: str, table_id: str, label: TableLabel) -> None:
        """Record one gold label."""
        self._labels.setdefault(query_id, {})[table_id] = label

    def label(self, query_id: str, table_id: str) -> TableLabel:
        """Gold label (irrelevant if never recorded)."""
        return self._labels.get(query_id, {}).get(table_id, TableLabel(False))

    def relevant_tables(self, query_id: str) -> Tuple[str, ...]:
        """Ids of tables relevant to the query."""
        return tuple(
            tid
            for tid, lbl in self._labels.get(query_id, {}).items()
            if lbl.relevant
        )

    @classmethod
    def from_provenance(
        cls,
        provenance: Mapping[str, TableProvenance],
        query_bindings: Mapping[str, Tuple[Optional[str], Sequence[str]]],
    ) -> GroundTruth:
        """Build the full gold standard.

        ``query_bindings`` maps query_id -> (domain_key or None, attr keys).
        """
        truth = cls()
        for query_id, (domain_key, attrs) in query_bindings.items():
            for table_id, prov in provenance.items():
                truth.set_label(query_id, table_id, label_table(prov, domain_key, attrs))
        return truth
