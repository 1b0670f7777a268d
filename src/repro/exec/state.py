"""The shared mutable state a query plan's stages read and write.

Kept import-light on purpose: every pipeline type is referenced through
``TYPE_CHECKING`` so this module sits below both :mod:`repro.pipeline`
and :mod:`repro.service` in the import graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..consolidate.merge import AnswerTable
    from ..core.features import FeatureCache
    from ..core.model import ColumnMappingProblem
    from ..core.params import ModelParams
    from ..core.pmi import PmiScorer
    from ..pipeline.probe import ProbeConfig, ProbeResult
    from ..query.model import Query
    from ..tables.table import WebTable

__all__ = ["QueryState"]


@dataclass
class QueryState:
    """Everything one query's staged execution reads and produces.

    Inputs are set by the caller (service facade, ``two_stage_probe``, or
    a test harness); the remaining fields start at their defaults and are
    filled in by the stages that produce them.  A skipped stage leaves
    its outputs at their defaults — downstream stages are written to
    tolerate that (an empty candidate list consolidates to an empty
    answer, never an error).
    """

    # -- inputs -----------------------------------------------------------
    #: Raw query text; the ``parse`` stage turns it into ``query``.
    text: Optional[str] = None
    #: The parsed query (pre-set by callers that already hold one).
    query: Optional[Query] = None
    #: Any :class:`~repro.index.protocol.CorpusProtocol` backend.
    corpus: Any = None
    probe_config: Optional[ProbeConfig] = None
    params: Optional[ModelParams] = None
    #: Registry name of the column-mapping algorithm to run.
    inference: Optional[str] = None
    #: Resolved algorithm callable (the ``parse`` stage resolves it from
    #: ``inference`` when unset).
    algorithm: Optional[Callable] = None
    #: Stage-2 row-sample generator; defaults to a private
    #: ``random.Random(probe_config.seed)`` so runs are bit-reproducible.
    rng: Optional[random.Random] = None
    feature_cache: Optional[FeatureCache] = None
    pmi_scorer: Optional[PmiScorer] = None

    # -- probe outputs ----------------------------------------------------
    stage1_ids: List[str] = field(default_factory=list)
    stage1_tables: List[WebTable] = field(default_factory=list)
    confidences: List[float] = field(default_factory=list)
    seeds: List[WebTable] = field(default_factory=list)
    stage2_ids: List[str] = field(default_factory=list)
    #: The finalized candidate-retrieval artifact (``probe.read2``).
    probe: Optional[ProbeResult] = None

    # -- mapping / answer outputs -----------------------------------------
    problem: Optional[ColumnMappingProblem] = None
    mapping: Any = None
    #: Name of the fallback inference actually used (degraded runs only).
    fallback_inference: Optional[str] = None
    answer: Optional[AnswerTable] = None
