"""``repro.exec`` — the staged query-execution engine.

Reifies the serving pipeline as an :class:`ExecutionPlan` of named
:class:`Stage` steps run under a shared :class:`ExecutionContext` that
carries a wall-clock deadline and a :class:`Span` tree of per-stage
timings and counters.  The serving facade runs every query through
this engine (the evaluation harness and the benchmarks read its
answers), so every latency number in the system is a view over the same
span tree; :class:`Stats` is the one accumulator that folds those spans
(and the HTTP server's admission events) into ``/stats`` counters.

::

    from repro.exec import ExecutionContext, build_query_plan
    from repro.exec.state import QueryState

    ctx = ExecutionContext(deadline_ms=50.0)          # budgeted
    state = QueryState(text="country | currency", corpus=corpus,
                       params=params, inference="table-centric")
    build_query_plan().run(ctx, state)
    print("\\n".join(ctx.root.format_tree()))
    ctx.degraded            # True when a stage skipped or fell back

Degradation contract (see DESIGN.md, "Execution engine"): with no
deadline, answers are bit-identical to the straight-line pipeline; once
a deadline expires mid-plan, skippable stages are skipped (the stage-2
probe first, in practice), ``column_map`` falls back to the
non-collective ``none`` inference, and the answer comes back flagged
degraded instead of blowing the budget.  Degrading is the only way a plan ends early.
"""

from .context import (
    SPAN_DEGRADED,
    SPAN_OK,
    SPAN_SKIPPED,
    ExecutionContext,
    Span,
)
from .plan import ExecutionPlan, Stage
from .state import QueryState
from .stats import StageStats, Stats, percentile
from .query import QUERY_STAGES, build_query_plan

__all__ = [
    "ExecutionContext",
    "ExecutionPlan",
    "QUERY_STAGES",
    "QueryState",
    "SPAN_DEGRADED",
    "SPAN_OK",
    "SPAN_SKIPPED",
    "Span",
    "Stage",
    "StageStats",
    "Stats",
    "build_query_plan",
    "percentile",
]
