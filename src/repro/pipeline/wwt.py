"""Query-time artifacts (Figure 2).

:class:`QueryTiming` and :class:`WWTAnswer` describe everything the
pipeline produced for one query — they are the artifact types shared by
the serving layer (:class:`repro.service.WWTService`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..consolidate.merge import AnswerTable
from ..core.model import ColumnMappingProblem
from ..inference import MappingResult
from ..query.model import Query
from .probe import ProbeResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..exec.context import Span
    from ..faults.health import Coverage

__all__ = ["QueryTiming", "WWTAnswer"]

#: The probe's ``QueryTiming`` field <-> execution span name mapping, in
#: stage order (``tests/test_exec.py`` pins it against the plan's actual
#: probe stage names, so a rename must touch both).
_PROBE_TIMING_SPANS = (
    ("index1", "probe.index1"),
    ("read1", "probe.read1"),
    ("confidence", "probe.confidence"),
    ("index2", "probe.index2"),
    ("read2", "probe.read2"),
)


@dataclass
class QueryTiming:
    """Per-stage wall-clock seconds for one query (Figure 7's slices).

    Since the execution-engine refactor this is a *view* over the span
    tree an :class:`~repro.exec.context.ExecutionContext` recorded —
    build one with :meth:`from_spans` — rather than a hand-assembled
    timing dict; the field names survive as the stable reporting schema.
    """

    index1: float = 0.0
    read1: float = 0.0
    confidence: float = 0.0
    index2: float = 0.0
    read2: float = 0.0
    column_map: float = 0.0
    consolidate: float = 0.0

    @classmethod
    def from_spans(cls, root: Span) -> QueryTiming:
        """Project an execution span tree onto Figure 7's slices.

        ``consolidate`` folds the ``rank`` stage in — the pre-executor
        pipeline timed consolidation and ranking as one block, and the
        figure keeps that stacking.
        """
        probe_fields = {
            field_name: root.total(span_name)
            for field_name, span_name in _PROBE_TIMING_SPANS
        }
        return cls(
            column_map=root.total("column_map"),
            consolidate=root.total("consolidate") + root.total("rank"),
            **probe_fields,
        )

    @property
    def total(self) -> float:
        """Total query latency."""
        return (
            self.index1 + self.read1 + self.confidence + self.index2
            + self.read2 + self.column_map + self.consolidate
        )

    def as_dict(self) -> Dict[str, float]:
        """Stage name -> seconds, in Figure 7's stacking order.

        The slices sum to :attr:`total`.  ``confidence`` — the mapper's
        max-marginal pass over the stage-1 tables that picks the second
        probe's seed rows — is column-mapping work, so it is stacked
        under "Column Map"; "2nd Index" is the index probe alone.
        """
        return {
            "1st Index": self.index1,
            "1st Table Read": self.read1,
            "2nd Index": self.index2,
            "2nd Table Read": self.read2,
            "Column Map": self.confidence + self.column_map,
            "Consolidate": self.consolidate,
        }


@dataclass
class WWTAnswer:
    """Everything the engine produced for one query."""

    query: Query
    answer: AnswerTable
    mapping: MappingResult
    probe: ProbeResult
    timing: QueryTiming
    problem: ColumnMappingProblem
    #: Root of the execution span tree (``None`` for paths that bypass
    #: the execution engine); ``timing`` is a view over it.
    spans: Optional[Span] = None
    #: True when a deadline forced stages to skip or fall back — the
    #: answer is partial (see DESIGN.md, "Execution engine").
    degraded: bool = False
    #: Stage names whose results this answer reflects, in execution
    #: order: executed this request or replayed from the probe cache;
    #: deadline-skipped stages are absent.
    stages_ran: list = field(default_factory=list)
    #: Why the answer is degraded, in first-occurrence order
    #: (``"deadline"``, ``"shard_failure"``); empty iff not degraded.
    degraded_reasons: list = field(default_factory=list)
    #: Worst shard coverage the probes saw; ``None`` when the corpus has
    #: no failure domains or every shard answered every probe.
    coverage: Optional[Coverage] = None
