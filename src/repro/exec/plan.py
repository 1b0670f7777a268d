"""Execution plans: a pipeline reified as a sequence of named stages.

A :class:`Stage` couples a name (``"probe.index1"``, ``"column_map"``, …)
with the function that runs it and a *degradation policy* — what the
runner may do with the stage once the context's budget is exhausted:

- ``skippable=True`` — skip it outright (downstream stages must tolerate
  the stage's outputs keeping their defaults);
- ``fallback=fn`` — run the cheaper ``fn`` instead of the normal body;
- neither — the stage is required and runs regardless (its cost is the
  "one stage granularity" by which a response may overshoot the budget).

:class:`ExecutionPlan` runs the stages in order under an
:class:`~repro.exec.context.ExecutionContext`, recording one span per
stage and checking the deadline *between* stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .context import SPAN_DEGRADED, ExecutionContext

__all__ = ["Stage", "ExecutionPlan"]

#: A stage body: mutates the shared state under the given context.
StageFn = Callable[[ExecutionContext, Any], None]


@dataclass(frozen=True)
class Stage:
    """One named step of an execution plan."""

    name: str
    fn: StageFn
    #: May the runner skip this stage entirely once the budget is gone?
    skippable: bool = False
    #: Cheaper body to run instead of ``fn`` once the budget is gone
    #: (it may label its span through ``ctx.current.note``).
    fallback: Optional[StageFn] = None


class ExecutionPlan:
    """An ordered sequence of stages run under one context.

    ::

        plan = ExecutionPlan([Stage("parse", parse), Stage("rank", rank)])
        ctx = ExecutionContext(deadline_ms=config.deadline_ms)
        plan.run(ctx, state)
        print(ctx.root.format_tree())

    ``run`` returns the state for chaining.  The deadline is checked
    before each stage; a stage that is already running is never
    preempted.
    """

    def __init__(self, stages: Sequence[Stage], name: str = "plan") -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in plan: {names}")
        self.name = name
        self._stages: Tuple[Stage, ...] = tuple(stages)

    @property
    def stages(self) -> Tuple[Stage, ...]:
        """The plan's stages, in execution order."""
        return self._stages

    def stage_names(self) -> List[str]:
        """Stage names in execution order."""
        return [s.name for s in self._stages]

    def run(self, ctx: ExecutionContext, state: Any) -> Any:
        """Execute every stage in order under ``ctx``, degrading (never
        raising) once its budget is spent."""
        for stage in self._stages:
            if ctx.check_deadline():
                if stage.skippable:
                    ctx.skip(stage.name)
                    continue
                if stage.fallback is not None:
                    ctx.mark_degraded()
                    with ctx.span(stage.name, status=SPAN_DEGRADED):
                        stage.fallback(ctx, state)
                    continue
                # Required stage: run it even over budget — this is the
                # plan's "one stage granularity" overshoot.
            with ctx.span(stage.name):
                stage.fn(ctx, state)
        return state
