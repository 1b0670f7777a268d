"""The paper's core contribution: the column mapper's graphical model."""

from .edges import MappingEdge, build_edges
from .features import BoundedCache, FeatureCache, query_feature_key
from .labels import LabelSpace
from .model import ColumnFeatures, ColumnMappingProblem, build_problem
from .params import (
    DEFAULT_PARAMS,
    UNSEGMENTED_PARAMS,
    ModelParams,
    enumerate_grid,
)
from .pmi import PmiScorer
from .segsim import (
    DEFAULT_RELIABILITIES,
    Reliabilities,
    TablePartIndex,
    estimate_reliabilities,
    segmented_similarity,
    unsegmented_similarity,
)

__all__ = [
    "BoundedCache",
    "ColumnFeatures",
    "ColumnMappingProblem",
    "FeatureCache",
    "DEFAULT_PARAMS",
    "DEFAULT_RELIABILITIES",
    "LabelSpace",
    "MappingEdge",
    "ModelParams",
    "PmiScorer",
    "Reliabilities",
    "TablePartIndex",
    "UNSEGMENTED_PARAMS",
    "build_edges",
    "build_problem",
    "enumerate_grid",
    "estimate_reliabilities",
    "query_feature_key",
    "segmented_similarity",
    "unsegmented_similarity",
]
