"""Inference algorithms for the column mapping task (Section 4).

``independent`` solves tables in isolation (the "None" baseline of
Table 2); ``table_centric`` is the paper's best collective algorithm;
``alpha_expansion`` the constrained graph-cut alternative; ``bp`` and
``trws`` the message-passing comparisons; ``exhaustive`` the brute-force
test oracle.

:data:`REGISTRY` is the fixed name -> function table of the five
algorithms Table 2 compares; it reads like a ``Dict[str, InferenceFn]``.
"""

from .alpha_expansion import alpha_expansion_inference
from .base import (
    AlgorithmTable,
    InferenceFn,
    MappingResult,
    UnknownAlgorithmError,
    column_distributions,
    confident_map,
    softmax,
)
from .belief_propagation import belief_propagation_inference
from .exhaustive import exhaustive_inference
from .independent import independent_inference, solve_table
from .max_marginals import all_max_marginals, table_max_marginals
from .repair import repair_assignment, table_violates_constraints
from .table_centric import table_centric_inference
from .trws import trws_inference

#: The Table 2 algorithms by name.
REGISTRY = AlgorithmTable({
    "none": independent_inference,
    "table-centric": table_centric_inference,
    "alpha-expansion": alpha_expansion_inference,
    "bp": belief_propagation_inference,
    "trws": trws_inference,
})


def get_algorithm(name: str) -> InferenceFn:
    """Look up an inference algorithm by name."""
    return REGISTRY.get_algorithm(name)


__all__ = [
    "AlgorithmTable",
    "InferenceFn",
    "REGISTRY",
    "UnknownAlgorithmError",
    "get_algorithm",
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
