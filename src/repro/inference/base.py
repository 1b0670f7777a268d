"""Shared inference types: labelings, probabilities, results.

All inference algorithms return a :class:`MappingResult` — the joint label
assignment plus the calibrated per-column distributions the rest of WWT
needs (Section 2.2.2: scores drive the second index probe and the final
ranking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

from ..core.model import ColumnMappingProblem

__all__ = [
    "softmax",
    "MappingResult",
    "column_distributions",
    "confident_map",
    "InferenceFn",
    "AlgorithmTable",
    "UnknownAlgorithmError",
]


def softmax(values: List[float]) -> List[float]:
    """Numerically stable softmax; -inf entries get probability zero."""
    finite = [v for v in values if v != float("-inf")]
    if not finite:
        return [0.0] * len(values)
    peak = max(finite)
    exps = [math.exp(v - peak) if v != float("-inf") else 0.0 for v in values]
    total = sum(exps)
    if total <= 0:
        return [0.0] * len(values)
    return [e / total for e in exps]


@dataclass
class MappingResult:
    """Joint labeling of all column variables for one query."""

    problem: ColumnMappingProblem
    labels: Dict[Tuple[int, int], int]
    #: Pr(l | tc) per column (dense label order), when the algorithm
    #: computed them (table-independent max-marginal softmax).
    distributions: Dict[Tuple[int, int], List[float]] = field(default_factory=dict)
    algorithm: str = ""

    def is_relevant(self, ti: int) -> bool:
        """Did the labeling mark table ``ti`` relevant?"""
        nr = self.problem.labels.nr
        return any(
            self.labels[tc] != nr for tc in self.problem.table_columns(ti)
        )

    def relevant_tables(self) -> List[int]:
        """Indices of tables labeled relevant."""
        return [ti for ti in range(len(self.problem.tables)) if self.is_relevant(ti)]

    def table_mapping(self, ti: int) -> Dict[int, int]:
        """column index -> 1-based query column, for mapped columns of t."""
        labels = self.problem.labels
        out: Dict[int, int] = {}
        for ti_, ci in self.problem.table_columns(ti):
            label = self.labels[(ti_, ci)]
            if labels.is_query(label):
                out[ci] = labels.to_query_column(label)
        return out

    def table_relevance_score(self, ti: int) -> float:
        """Calibrated relevance probability of table ``ti``.

        Averages, over the table's mapped columns, the probability mass on
        query labels; falls back to 0/1 from the hard labeling when the
        algorithm produced no distributions.
        """
        cols = self.problem.table_columns(ti)
        labels = self.problem.labels
        if not self.distributions:
            return 1.0 if self.is_relevant(ti) else 0.0
        masses = []
        for tc in cols:
            dist = self.distributions.get(tc)
            if dist:
                masses.append(sum(dist[l] for l in labels.query_labels()))
        if not masses:
            return 1.0 if self.is_relevant(ti) else 0.0
        return max(masses)

    def score(self) -> float:
        """Objective value of this labeling (Eq. 9)."""
        return self.problem.score(self.labels, confident_map(self.problem, self.distributions))


def column_distributions(
    problem: ColumnMappingProblem,
    max_marginals: Mapping[Tuple[int, int], List[float]],
) -> Dict[Tuple[int, int], List[float]]:
    """Pr(l | tc) by softmaxing per-column max-marginals (Section 4.2)."""
    return {tc: softmax(list(mm)) for tc, mm in max_marginals.items()}


def confident_map(
    problem: ColumnMappingProblem,
    distributions: Mapping[Tuple[int, int], List[float]],
) -> Dict[Tuple[int, int], bool]:
    """The edge-gating confidence indicator of Section 3.3.

    A column is confident when some *query* label holds more than the
    threshold (default 0.6) of its probability mass.
    """
    threshold = problem.params.confidence_threshold
    labels = problem.labels
    out: Dict[Tuple[int, int], bool] = {}
    for tc in problem.columns():
        dist = distributions.get(tc)
        if not dist:
            out[tc] = False
            continue
        out[tc] = max(dist[l] for l in labels.query_labels()) > threshold
    return out


#: An inference algorithm maps a column-mapping problem to a labeling.
InferenceFn = Callable[[ColumnMappingProblem], MappingResult]


class UnknownAlgorithmError(KeyError):
    """Raised when a requested inference algorithm is not in the table."""

    def __init__(self, name: str, options: List[str]) -> None:
        self.name = name
        self.options = options
        super().__init__(
            f"unknown inference algorithm {name!r}; options: {sorted(options)}"
        )

    def __str__(self) -> str:
        return self.args[0]


class AlgorithmTable(Mapping[str, InferenceFn]):
    """A fixed, read-only name -> inference-function table.

    Reads like a plain dict (``table[name]``, ``name in table``,
    iteration); an unknown name raises :class:`UnknownAlgorithmError`
    listing the options.
    """

    def __init__(self, algorithms: Mapping[str, InferenceFn]) -> None:
        self._algorithms = dict(algorithms)

    def __getitem__(self, name: str) -> InferenceFn:
        try:
            return self._algorithms[name]
        except KeyError:
            raise UnknownAlgorithmError(name, list(self._algorithms)) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._algorithms)

    def __len__(self) -> int:
        return len(self._algorithms)

    def get_algorithm(self, name: str) -> InferenceFn:
        """The function under ``name``."""
        return self[name]

    def names(self) -> List[str]:
        """Sorted algorithm names."""
        return sorted(self._algorithms)
