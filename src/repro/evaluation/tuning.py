"""Parameter training by exhaustive grid enumeration (Section 3.4).

The paper trains its six weights on a labeled workload by enumerating a
grid and keeping the lowest-error setting.  Feature extraction dominates
the cost, so we extract once per query and re-weight via
:meth:`ColumnMappingProblem.with_params` — enumeration then touches only
the matching solver.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..baselines.basic import BasicParams, basic_method
from ..core.labels import LabelSpace
from ..core.model import ColumnMappingProblem
from ..core.params import DEFAULT_PARAMS, ModelParams
from ..inference import get_algorithm
from .harness import WorkloadEnvironment, reextracted_problem
from .metrics import f1_error

__all__ = ["tune_model_params", "tune_basic_params"]


def tune_model_params(
    env: WorkloadEnvironment,
    grid: Iterable[ModelParams],
    inference: str = "table-centric",
    query_ids: Optional[Sequence[str]] = None,
    base_params: ModelParams = DEFAULT_PARAMS,
) -> Tuple[ModelParams, float, List[Tuple[ModelParams, float]]]:
    """Grid-train the graphical model weights on a workload environment.

    Returns (best params, best mean error, the full trace).  Feature
    extraction runs once per query with ``base_params``'s feature switches
    (``use_segmented``); every grid point must share those switches.  When
    they are the served problem's, the environment's problem is re-weighted
    and nothing is extracted again; otherwise features are extracted over
    the served candidates and the served edges kept
    (:func:`~repro.evaluation.harness.reextracted_problem`).
    """
    wanted = set(query_ids) if query_ids is not None else None
    problems: List[Tuple[ColumnMappingProblem, Dict, LabelSpace]] = []
    for wq in env.queries:
        if wanted is not None and wq.query_id not in wanted:
            continue
        problem = env.problems[wq.query_id]
        if problem.params.use_segmented != base_params.use_segmented:
            problem = reextracted_problem(env, wq, base_params)
        problems.append((problem, env.gold(wq), LabelSpace(wq.query.q)))

    algorithm = get_algorithm(inference)
    trace: List[Tuple[ModelParams, float]] = []
    best: Optional[ModelParams] = None
    best_error = float("inf")
    for params in grid:
        if params.use_segmented != base_params.use_segmented:
            raise ValueError("grid points must share base feature switches")
        errors = []
        for problem, gold, space in problems:
            result = algorithm(problem.with_params(params))
            errors.append(f1_error(result.labels, gold, space))
        mean = sum(errors) / len(errors) if errors else 0.0
        trace.append((params, mean))
        if mean < best_error:
            best_error = mean
            best = params
    if best is None:
        raise ValueError("empty grid")
    return best, best_error, trace


def tune_basic_params(
    env: WorkloadEnvironment,
    relevance_grid: Sequence[float] = (0.03, 0.06, 0.1, 0.15, 0.2),
    column_grid: Sequence[float] = (0.05, 0.1, 0.15, 0.25, 0.35),
    query_ids: Optional[Sequence[str]] = None,
) -> Tuple[BasicParams, float]:
    """Grid-train the Basic baseline's two thresholds."""
    wanted = set(query_ids) if query_ids is not None else None
    best = BasicParams()
    best_error = float("inf")
    for rel in relevance_grid:
        for col in column_grid:
            params = BasicParams(relevance_threshold=rel, column_threshold=col)
            errors = []
            for wq in env.queries:
                if wanted is not None and wq.query_id not in wanted:
                    continue
                probe = env.candidates[wq.query_id]
                result = basic_method(
                    wq.query, probe.tables, env.synthetic.corpus.stats, params
                )
                errors.append(
                    f1_error(result.labels, env.gold(wq), LabelSpace(wq.query.q))
                )
            mean = sum(errors) / len(errors) if errors else 0.0
            if mean < best_error:
                best_error = mean
                best = params
    return best, best_error
