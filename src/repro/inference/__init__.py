"""Inference algorithms for the column mapping task (Section 4).

``independent`` solves tables in isolation (the "None" baseline of
Table 2); ``table_centric`` is the paper's best collective algorithm;
``alpha_expansion`` the constrained graph-cut alternative; ``bp`` and
``trws`` the message-passing comparisons; ``exhaustive`` the brute-force
test oracle.

Each algorithm registers itself into :data:`REGISTRY` (an
:class:`~repro.inference.registry.InferenceRegistry`) at import time via
the :func:`~repro.inference.registry.register_algorithm` decorator; the
registry reads like a ``Dict[str, InferenceFn]``.
"""

from .alpha_expansion import alpha_expansion_inference
from .base import MappingResult, column_distributions, confident_map, softmax
from .belief_propagation import belief_propagation_inference
from .exhaustive import exhaustive_inference
from .independent import independent_inference, solve_table
from .max_marginals import all_max_marginals, table_max_marginals
from .registry import (
    DEFAULT_REGISTRY,
    AlgorithmInfo,
    InferenceFn,
    InferenceRegistry,
    UnknownAlgorithmError,
    register_algorithm,
)
from .repair import repair_assignment, table_violates_constraints
from .table_centric import table_centric_inference
from .trws import trws_inference

#: The registry holding the Table 2 algorithms (populated by the modules
#: above at import time).
REGISTRY: InferenceRegistry = DEFAULT_REGISTRY


def get_algorithm(name: str) -> InferenceFn:
    """Look up an inference algorithm by registered name."""
    return REGISTRY.get_algorithm(name)


__all__ = [
    "AlgorithmInfo",
    "InferenceRegistry",
    "REGISTRY",
    "UnknownAlgorithmError",
    "get_algorithm",
    "register_algorithm",
    "MappingResult",
    "all_max_marginals",
    "alpha_expansion_inference",
    "belief_propagation_inference",
    "column_distributions",
    "confident_map",
    "exhaustive_inference",
    "independent_inference",
    "repair_assignment",
    "softmax",
    "solve_table",
    "table_centric_inference",
    "table_max_marginals",
    "table_violates_constraints",
    "trws_inference",
]
