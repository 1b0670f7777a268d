"""Flow substrate: residual networks, matching, cuts.

Everything Section 4 of the paper needs: min-cost max-flow with a live
residual graph (Fig. 3), capacitated bipartite matching (§4.1), and the
constrained minimum s-t cut (Fig. 4).
"""

from .bipartite import BipartiteMatcher, MatchingResult, one_to_one_pairs
from .constrained_cut import constrained_min_cut
from .network import EPS, FlowNetwork

__all__ = [
    "EPS",
    "BipartiteMatcher",
    "FlowNetwork",
    "MatchingResult",
    "constrained_min_cut",
    "one_to_one_pairs",
]
