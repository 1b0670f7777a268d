"""Service request/response types.

``QueryRequest`` is what callers hand :class:`~repro.service.WWTService`;
``QueryResponse`` is what they get back — a page of consolidated answer
rows plus per-stage timing, cache provenance, and (on request) an explain
payload describing every decision the pipeline made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..consolidate.merge import AnswerRow
from ..core.features import query_feature_key
from ..exec.context import Span
from ..pipeline.wwt import QueryTiming, WWTAnswer
from ..query.model import Query

__all__ = ["QueryRequest", "QueryResponse", "normalized_query_key", "build_explain"]


#: Canonical cache key of a query — the service layer's public name for
#: :func:`repro.core.features.query_feature_key`, so the result and
#: feature caches cannot disagree on which surface forms are one query.
normalized_query_key = query_feature_key


@dataclass(frozen=True)
class QueryRequest:
    """One query plus its serving options."""

    query: Query
    #: 1-based page of consolidated answer rows to return.
    page: int = 1
    #: Rows per page; ``None`` uses the service config's ``page_size``.
    page_size: Optional[int] = None
    #: Attach the explain payload (probe/mapping decisions) to the response.
    explain: bool = False
    #: Allow this request to be served from (and stored into) the caches.
    use_cache: bool = True
    #: Per-request inference override; ``None`` uses the config's choice.
    inference: Optional[str] = None
    #: Per-request wall-clock budget in milliseconds, overriding the
    #: config's ``deadline_ms`` — the serving layer's SLO knob.  The
    #: execution engine sheds work once it expires (see DESIGN.md,
    #: "Execution engine"); ``None`` falls back to the config.
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.page < 1:
            raise ValueError("page is 1-based and must be >= 1")
        if self.page_size is not None and self.page_size < 1:
            raise ValueError("page_size must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (None uses the config)")

    @classmethod
    def parse(cls, text: str, **options: Any) -> QueryRequest:
        """Build a request from the paper's pipe syntax."""
        return cls(query=Query.parse(text), **options)

    @classmethod
    def of(cls, query: Union[QueryRequest, Query, str]) -> QueryRequest:
        """Coerce a request, a :class:`Query`, or raw text to a request."""
        if isinstance(query, QueryRequest):
            return query
        if isinstance(query, Query):
            return cls(query=query)
        return cls.parse(query)


@dataclass
class QueryResponse:
    """One answered query: a page of rows plus serving metadata."""

    query: Query
    header: List[str]
    rows: List[AnswerRow]
    page: int
    page_size: int
    total_rows: int
    timing: QueryTiming
    algorithm: str
    cache_hit: bool = False
    #: Wall-clock seconds this request took to serve (cache hits included —
    #: ``timing`` always describes the original computation).
    served_in: float = 0.0
    #: True when a deadline forced the pipeline to skip stages or fall
    #: back to a cheaper inference — the rows are a partial answer.
    degraded: bool = False
    #: Execution stages whose results this response reflects, in order
    #: (stages a deadline skipped absent — compare against ``trace``
    #: statuses).
    stages_ran: List[str] = field(default_factory=list)
    #: Root of the execution span tree for this answer (the original
    #: computation's spans on a cache hit); ``None`` for legacy paths.
    trace: Optional[Span] = None
    explain: Optional[Dict[str, Any]] = None
    #: Why the answer is degraded (``"deadline"``); empty iff
    #: ``degraded`` is False.
    degraded_reasons: List[str] = field(default_factory=list)

    @property
    def num_pages(self) -> int:
        """Total pages at this page size (at least 1).

        Defensive against direct construction with a non-positive
        ``page_size`` (requests validate theirs): anything below 1 is
        treated as one single page rather than dividing by zero.
        """
        if self.page_size < 1:
            return 1
        return max(1, math.ceil(self.total_rows / self.page_size))

    @property
    def has_next_page(self) -> bool:
        """Are there rows beyond this page?"""
        return self.page < self.num_pages

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for CLI/serving output."""
        return {
            "query": str(self.query),
            "header": list(self.header),
            "rows": [
                {"cells": list(row.cells), "support": row.support,
                 "relevance": row.relevance}
                for row in self.rows
            ],
            "page": self.page,
            "page_size": self.page_size,
            "total_rows": self.total_rows,
            "num_pages": self.num_pages,
            "algorithm": self.algorithm,
            "cache_hit": self.cache_hit,
            "served_in": self.served_in,
            "degraded": self.degraded,
            "degraded_reasons": list(self.degraded_reasons),
            "stages_ran": list(self.stages_ran),
            "timing": self.timing.as_dict(),
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "explain": self.explain,
        }


def build_explain(answer: WWTAnswer) -> Dict[str, Any]:
    """Assemble the explain payload from a full pipeline artifact."""
    mapping = answer.mapping
    relevant = []
    for ti in mapping.relevant_tables():
        table = answer.problem.tables[ti]
        relevant.append({
            "table_id": table.table_id,
            "relevance": mapping.table_relevance_score(ti),
            "column_mapping": {
                ci: qc for ci, qc in sorted(mapping.table_mapping(ti).items())
            },
        })
    return {
        "algorithm": mapping.algorithm,
        "num_candidates": answer.probe.num_candidates,
        "stage1_ids": list(answer.probe.stage1_ids),
        "stage2_ids": list(answer.probe.stage2_ids),
        "used_second_stage": answer.probe.used_second_stage,
        "seed_table_ids": list(answer.probe.seed_table_ids),
        "num_columns": answer.problem.num_columns,
        "num_edges": len(answer.problem.edges),
        "relevant_tables": relevant,
    }
