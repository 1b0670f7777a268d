"""The reprolint rule catalog.

One module per rule; :data:`ALL_RULES` is the engine's registry, in rule-id
order.  Each rule class's docstring is its normative catalog entry — the
``--list-rules`` output and the DESIGN.md "Static guarantees" section are
both generated views of these docstrings, so the rule, its rationale, and
its documentation cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, List

from ..base import Rule
from .r001_wall_clock import WallClockRule
from .r002_unseeded_random import UnseededRandomRule
from .r003_unordered_iteration import UnorderedIterationRule
from .r004_unbounded_cache import UnboundedCacheRule
from .r005_lock_discipline import LockDisciplineRule
from .r007_mutable_default import MutableDefaultRule
from .r008_unrecorded_recovery import UnrecordedRecoveryRule
from .r009_table_immutability import TableImmutabilityRule
from .r010_annotation_names import AnnotationNamesRule

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "WallClockRule",
    "UnseededRandomRule",
    "UnorderedIterationRule",
    "UnboundedCacheRule",
    "LockDisciplineRule",
    "MutableDefaultRule",
    "UnrecordedRecoveryRule",
    "TableImmutabilityRule",
    "AnnotationNamesRule",
]

#: Every rule, instantiated, in id order.
ALL_RULES: List[Rule] = [
    WallClockRule(),
    UnseededRandomRule(),
    UnorderedIterationRule(),
    UnboundedCacheRule(),
    LockDisciplineRule(),
    MutableDefaultRule(),
    UnrecordedRecoveryRule(),
    TableImmutabilityRule(),
    AnnotationNamesRule(),
]

#: Rule lookup by id (``"R001"`` …), used for disable-comment validation.
RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
