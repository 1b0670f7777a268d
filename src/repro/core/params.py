"""Model parameters (Section 3.4) and their training grid.

The objective has six trainable parameters: feature weights ``w1..w3``
(SegSim, Cover, PMI²), the irrelevance weight ``w4``, the negative bias
``w5``, and the edge weight ``w_e``.  The paper trains them by exhaustive
enumeration on a labeled workload ("since we had only six parameters, we
were able to find the best values through exhaustive enumeration") —
:func:`enumerate_grid` yields that grid, and
:func:`repro.evaluation.tuning.tune_model_params` searches it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

__all__ = ["ModelParams", "DEFAULT_PARAMS", "UNSEGMENTED_PARAMS", "enumerate_grid"]


@dataclass(frozen=True)
class ModelParams:
    """The six weights of Eq. 3/4 plus feature-provider switches.

    Defaults are the grid-trained optimum on a training corpus generated
    with a different seed than the evaluation corpus (see
    ``repro.evaluation.tuning``), mirroring the paper's training procedure.
    """

    w1: float = 1.4  # SegSim weight
    w2: float = 0.3  # Cover weight
    w3: float = 0.0  # PMI² weight (WWT leaves PMI² off by default, §5.1)
    w4: float = 0.65  # nr (irrelevance) weight
    w5: float = -0.45  # bias against weak query-column matches
    we: float = 1.1  # edge weight
    #: Use the segmented similarity (False = the Fig. 8 unsegmented ablation).
    use_segmented: bool = True
    #: Confidence threshold for edge gating (Section 3.3).
    confidence_threshold: float = 0.6

    def with_values(self, **kwargs: Any) -> ModelParams:
        """Copy with some weights replaced."""
        return replace(self, **kwargs)


#: Defaults tuned by grid enumeration on the synthetic workload.
DEFAULT_PARAMS = ModelParams()

#: The unsegmented ablation re-trained for its similarity (Section 5.2).
UNSEGMENTED_PARAMS = ModelParams(
    use_segmented=False, w1=1.0, w2=0.45, w4=0.65, w5=-0.2, we=1.1
)


def enumerate_grid(
    w1_grid: Sequence[float] = (0.5, 1.0, 1.5),
    w2_grid: Sequence[float] = (0.0, 0.3, 0.6),
    w3_grid: Sequence[float] = (0.0,),
    w4_grid: Sequence[float] = (0.3, 0.6, 0.9),
    w5_grid: Sequence[float] = (-0.4, -0.25, -0.1),
    we_grid: Sequence[float] = (0.4, 0.8),
    base: ModelParams = DEFAULT_PARAMS,
) -> Iterator[ModelParams]:
    """Yield every parameter combination on the grid."""
    for w1, w2, w3, w4, w5, we in itertools.product(
        w1_grid, w2_grid, w3_grid, w4_grid, w5_grid, we_grid
    ):
        yield base.with_values(w1=w1, w2=w2, w3=w3, w4=w4, w5=w5, we=we)
