"""End-to-end query pipeline: probe, mapping, consolidation."""

from .probe import ProbeConfig, ProbeResult
from .wwt import QueryTiming, WWTAnswer

__all__ = [
    "ProbeConfig",
    "ProbeResult",
    "QueryTiming",
    "WWTAnswer",
]
