"""End-to-end query pipeline: probe, mapping, consolidation."""

from .probe import ProbeConfig, ProbeResult, two_stage_probe
from .wwt import QueryTiming, WWTAnswer

__all__ = [
    "ProbeConfig",
    "ProbeResult",
    "QueryTiming",
    "WWTAnswer",
    "two_stage_probe",
]
