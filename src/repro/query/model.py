"""Query model: column keyword sets.

A column description query ``Q`` is ``q`` sets of keywords ``Q_1..Q_q``
(Section 1) — e.g. ``"name of explorers | nationality | areas explored"``.
The first column is the *subject* column (the must-match constraint requires
every relevant table to contain it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..text.tokenize import tokenize

__all__ = ["Query", "WorkloadQuery"]


@dataclass(frozen=True)
class Query:
    """A column-keyword query."""

    columns: Tuple[str, ...]
    query_id: str = ""

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a query needs at least one column keyword set")
        if any(not c.strip() for c in self.columns):
            raise ValueError("column keyword sets must be non-empty")

    @classmethod
    def parse(cls, text: str, query_id: str = "") -> Query:
        """Parse the paper's pipe syntax: ``"country | currency"``."""
        columns = tuple(part.strip() for part in text.split("|") if part.strip())
        return cls(columns=columns, query_id=query_id or text)

    @property
    def q(self) -> int:
        """Number of query columns."""
        return len(self.columns)

    def column_tokens(self, col: int) -> List[str]:
        """Analyzed tokens of query column ``col`` (0-based)."""
        return tokenize(self.columns[col])

    def all_tokens(self) -> List[str]:
        """Union (with duplicates) of all column tokens — the index probe."""
        out: List[str] = []
        for col in range(self.q):
            out.extend(self.column_tokens(col))
        return out

    def min_match(self) -> int:
        """The min-match constant m (2 for q >= 2, else 1), Section 3.4."""
        return 2 if self.q >= 2 else 1

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return " | ".join(self.columns)


@dataclass(frozen=True)
class WorkloadQuery:
    """A workload entry: the query plus its corpus binding and paper stats.

    ``domain_key``/``attr_keys`` bind the query to the synthetic corpus for
    ground truth; ``paper_total``/``paper_relevant`` record Table 1's
    per-query counts from the paper.
    """

    query: Query
    domain_key: Optional[str]
    attr_keys: Tuple[str, ...]
    paper_total: int
    paper_relevant: int

    def __post_init__(self) -> None:
        if self.domain_key is not None and len(self.attr_keys) != self.query.q:
            raise ValueError(
                f"query {self.query.query_id!r}: got {len(self.attr_keys)} "
                f"attribute keys for {self.query.q} columns"
            )

    @property
    def query_id(self) -> str:
        """Delegates to the wrapped query."""
        return self.query.query_id
