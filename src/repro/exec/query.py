"""The WWT query plan: the Figure 2 pipeline as named, budgeted stages.

Reifies the serving pipeline as the stage sequence

    parse -> probe.index1 -> probe.read1 -> probe.confidence
          -> probe.index2 -> probe.read2 -> column_map
          -> consolidate -> rank

over a shared :class:`~repro.exec.state.QueryState`, run under an
:class:`~repro.exec.context.ExecutionContext`.  With no deadline the
stages perform *exactly* the computations of the pre-executor
straight-line pipeline, in the same order, consuming the same RNG draws —
answers are bit-identical (asserted over the 59-query workload in
``tests/test_exec.py``).  With a deadline, the degradation policy is:

- the probe stages (``probe.index1`` … ``probe.index2``) are skippable —
  in practice a budget expires inside ``probe.confidence``, which skips
  the stage-2 probe, the paper's expensive second round trip;
- ``column_map`` falls back to :data:`FALLBACK_INFERENCE` (``none``,
  per-table matching without cross-table edges) instead of the
  configured solver;
- ``probe.read2``, ``consolidate`` and ``rank`` always run — their cost
  is proportional to whatever the earlier stages produced, so a fully
  skipped probe consolidates an empty answer in microseconds.
"""

from __future__ import annotations

import random
from typing import List

from ..consolidate.merge import consolidate
from ..consolidate.ranker import rank_answer
from ..core.model import build_problem
from ..inference import REGISTRY, InferenceFn
from ..pipeline.probe import (
    ProbeConfig,
    ProbeResult,
    table_confidences,
    trim_hits,
)
from ..query.model import Query
from ..text.tokenize import tokenize
from .context import ExecutionContext
from .plan import ExecutionPlan, Stage
from .state import QueryState

__all__ = [
    "FALLBACK_INFERENCE",
    "PROBE_STAGES",
    "QUERY_STAGES",
    "build_query_plan",
    "build_probe_plan",
]

#: The inference ``column_map`` runs once the deadline has passed:
#: Table 2's non-collective "None" column, the cheapest solver.
FALLBACK_INFERENCE = "none"


# -- stage bodies ---------------------------------------------------------


def _stage_parse(ctx: ExecutionContext, s: QueryState) -> None:
    """Turn the request into an executable query: parse text, resolve the
    inference algorithm, default the probe config and RNG."""
    if s.query is None:
        s.query = Query.parse(s.text)
    if s.probe_config is None:
        s.probe_config = ProbeConfig()
    if s.algorithm is None and s.inference is not None:
        s.algorithm = REGISTRY.get_algorithm(s.inference)
    if s.rng is None:
        s.rng = random.Random(s.probe_config.seed)


def _stage_index1(ctx: ExecutionContext, s: QueryState) -> None:
    """Stage-1 index probe: the union of all query keywords."""
    config = s.probe_config
    hits = trim_hits(
        s.corpus.search(s.query.all_tokens(), limit=config.stage1_limit),
        config.min_score_fraction,
    )
    s.stage1_ids = [h.doc_id for h in hits]
    ctx.count("hits", len(s.stage1_ids))


def _stage_read1(ctx: ExecutionContext, s: QueryState) -> None:
    """Read the stage-1 candidate tables from the store."""
    s.stage1_tables = s.corpus.get_many(s.stage1_ids)
    ctx.count("tables", len(s.stage1_tables))


def _stage_confidence(ctx: ExecutionContext, s: QueryState) -> None:
    """Rank stage-1 tables by mapping confidence; pick the seed tables
    that are allowed to drive the stage-2 content probe."""
    s.seeds = []
    if not s.stage1_tables:
        return
    config = s.probe_config
    s.confidences = table_confidences(
        s.query, s.stage1_tables, s.corpus, s.params,
        feature_cache=s.feature_cache, pmi_scorer=s.pmi_scorer,
    )
    ranked = sorted(
        range(len(s.stage1_tables)), key=lambda i: -s.confidences[i]
    )
    s.seeds = [
        s.stage1_tables[i]
        for i in ranked[: config.num_seed_tables]
        if s.confidences[i] >= config.seed_confidence
    ]
    ctx.count("seeds", len(s.seeds))


def _stage_index2(ctx: ExecutionContext, s: QueryState) -> None:
    """Stage-2 index probe: keywords plus a random row sample from the
    seed tables, retrieving tables by content overlap."""
    s.stage2_ids = []
    if not s.seeds:
        return
    config = s.probe_config
    sample_tokens: List[str] = []
    all_rows = [row for table in s.seeds for row in table.body_rows()]
    s.rng.shuffle(all_rows)
    for row in all_rows[: config.num_sample_rows]:
        for cell in row:
            sample_tokens.extend(tokenize(cell.text))
    probe2 = s.query.all_tokens() + sample_tokens
    stage2_hits = trim_hits(
        s.corpus.search(probe2, limit=config.stage2_limit),
        config.min_score_fraction,
    )
    seen = set(s.stage1_ids)
    s.stage2_ids = [h.doc_id for h in stage2_hits if h.doc_id not in seen]
    ctx.count("hits", len(s.stage2_ids))


def _stage_read2(ctx: ExecutionContext, s: QueryState) -> None:
    """Read the stage-2 tables and finalize the :class:`ProbeResult`.

    Always runs (it assembles the candidate set downstream stages need);
    with the stage-2 probe skipped it costs one empty ``get_many``.
    """
    tables = s.stage1_tables + s.corpus.get_many(s.stage2_ids)
    s.probe = ProbeResult(
        tables=tables,
        stage1_ids=s.stage1_ids,
        stage2_ids=s.stage2_ids,
        used_second_stage=bool(s.stage2_ids),
        seed_table_ids=[t.table_id for t in s.seeds],
    )
    ctx.count("candidates", len(tables))


def _map_with(
    ctx: ExecutionContext, s: QueryState, algorithm: InferenceFn,
    with_edges: bool = True,
) -> None:
    s.problem = build_problem(
        s.query, s.probe.tables, s.corpus.stats, s.params,
        pmi_scorer=s.pmi_scorer, feature_cache=s.feature_cache,
        with_edges=with_edges,
    )
    s.mapping = algorithm(s.problem)
    ctx.count("tables", len(s.probe.tables))
    ctx.count("edges", len(s.problem.edges))


def _stage_column_map(ctx: ExecutionContext, s: QueryState) -> None:
    """Collective column mapping with the configured inference."""
    _map_with(ctx, s, s.algorithm)


def _stage_column_map_fallback(ctx: ExecutionContext, s: QueryState) -> None:
    """Degraded column mapping: :data:`FALLBACK_INFERENCE`.

    A non-collective solver never reads cross-table edges, so their
    O(tables² x columns²) construction is skipped too — post-deadline
    work stays proportional to the node potentials the solver actually
    consumes, keeping the overshoot bound honest.
    """
    s.fallback_inference = FALLBACK_INFERENCE
    ctx.current.note = f"fallback={FALLBACK_INFERENCE}"
    _map_with(
        ctx, s, REGISTRY.get_algorithm(FALLBACK_INFERENCE), with_edges=False
    )


def _stage_consolidate(ctx: ExecutionContext, s: QueryState) -> None:
    """Project relevant tables onto the query columns and merge rows."""
    mapping = s.mapping
    mappings = {
        ti: mapping.table_mapping(ti) for ti in mapping.relevant_tables()
    }
    relevance = {ti: mapping.table_relevance_score(ti) for ti in mappings}
    s.answer = consolidate(s.query, s.probe.tables, mappings, relevance)
    ctx.count("rows", s.answer.num_rows)


def _stage_rank(ctx: ExecutionContext, s: QueryState) -> None:
    """Order the consolidated rows best-first."""
    s.answer = rank_answer(s.answer)


# -- the plan -------------------------------------------------------------

#: The candidate-retrieval sub-sequence (Section 2.2.1), reusable on its
#: own by :func:`~repro.pipeline.probe.two_stage_probe`.
PROBE_STAGES = (
    Stage("probe.index1", _stage_index1, skippable=True),
    Stage("probe.read1", _stage_read1, skippable=True),
    Stage("probe.confidence", _stage_confidence, skippable=True),
    Stage("probe.index2", _stage_index2, skippable=True),
    Stage("probe.read2", _stage_read2),
)

#: The full query plan, in execution order.
QUERY_STAGES = (
    (Stage("parse", _stage_parse),)
    + PROBE_STAGES
    + (
        Stage(
            "column_map",
            _stage_column_map,
            fallback=_stage_column_map_fallback,
        ),
        Stage("consolidate", _stage_consolidate),
        Stage("rank", _stage_rank),
    )
)


def build_query_plan() -> ExecutionPlan:
    """The full query plan, every stage in execution order."""
    return ExecutionPlan(QUERY_STAGES, name="query")


def build_probe_plan() -> ExecutionPlan:
    """Just the candidate-retrieval stages (``two_stage_probe``'s plan)."""
    return ExecutionPlan(PROBE_STAGES, name="probe")
