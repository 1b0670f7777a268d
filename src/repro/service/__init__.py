"""The serving layer: one façade over the whole WWT pipeline.

``WWTService`` answers column-keyword queries against an indexed corpus
behind a request/response API with an LRU result cache
(``BoundedCache``), single-flight collapsing of concurrent duplicates,
pagination, and per-stage timing — the seam every scaling change (sharded index, journaled
mutation, the HTTP front door) plugs into.  All behaviour is configured
by one frozen :class:`EngineConfig`.

Queries execute through the staged engine in :mod:`repro.exec`: the
config's ``deadline_ms`` budget bounds tail latency (a spent budget
always degrades: the stage-2 probe is skipped and column mapping falls
back to the fastest inference), and :meth:`WWTService.stats` reports
per-stage latency aggregates (:class:`StageStats`) plus deadline-hit
counts, all read off one ``repro.exec.Stats`` fed by the span trees.
"""

from ..exec.stats import StageStats
from ..inference.registry import (
    DEFAULT_REGISTRY,
    AlgorithmInfo,
    InferenceRegistry,
    UnknownAlgorithmError,
    register_algorithm,
)
from .cache import CacheStats
from .config import EngineConfig
from .facade import ServiceStats, WWTService
from .types import QueryRequest, QueryResponse, build_explain, normalized_query_key

#: The registry the service resolves ``EngineConfig.inference`` against.
REGISTRY = DEFAULT_REGISTRY

__all__ = [
    "AlgorithmInfo",
    "CacheStats",
    "EngineConfig",
    "InferenceRegistry",
    "QueryRequest",
    "QueryResponse",
    "REGISTRY",
    "ServiceStats",
    "StageStats",
    "UnknownAlgorithmError",
    "WWTService",
    "build_explain",
    "normalized_query_key",
    "register_algorithm",
]
