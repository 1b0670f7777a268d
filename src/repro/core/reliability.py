"""Empirical estimation of the out-part reliabilities (Section 3.2.1).

The paper sets the per-part reliabilities ``(p_T, p_C, p_Hc, p_Hr, p_B)``
empirically: "for each part i of all Q_l and relevant t, reliability p_i of
part i is the fraction of correctly matched columns from all columns c with
positive inSim and positive match with i."  This module reproduces that
estimation against a labeled workload environment, so the default values
(1.0, 0.9, 0.5, 1.0, 0.8) can be re-derived rather than taken on faith.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..tables.table import WebTable
from ..text.tfidf import TermStatistics

from ..corpus.groundtruth import GroundTruth
from ..query.model import WorkloadQuery
from ..text.tokenize import tokenize
from .segsim import Reliabilities, TablePartIndex, estimate_reliabilities

if TYPE_CHECKING:  # circular at runtime: evaluation imports repro.core
    from ..evaluation.harness import WorkloadEnvironment

__all__ = ["collect_part_observations", "estimate_from_environment"]

_PARTS = ("T", "C", "Hc", "Hr", "B")


def collect_part_observations(
    truth: GroundTruth,
    workload_query: WorkloadQuery,
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics] = None,
) -> Dict[str, Tuple[int, int]]:
    """Per-part (correct, total) counts for one query's relevant tables.

    A column *participates* in part ``i`` when it has positive header
    overlap with some query column (positive inSim is possible) and some
    query token of that column appears in part ``i``.  It is counted
    *correct* when the gold mapping assigns it that query column.
    """
    observations = {part: [0, 0] for part in _PARTS}
    for table in tables:
        gold = truth.label(workload_query.query_id, table.table_id)
        if not gold.relevant:
            continue
        part_index = TablePartIndex(table)
        if part_index.num_header_rows == 0:
            continue
        for ci in range(table.num_cols):
            header_tokens = set(table.column_header_tokens(ci))
            for l in range(workload_query.query.q):
                q_tokens = set(tokenize(workload_query.query.columns[l]))
                if not (q_tokens & header_tokens):
                    continue  # no positive inSim possible
                out_tokens = q_tokens - header_tokens
                if not out_tokens:
                    continue
                correct = gold.mapping.get(ci) == l + 1
                for r in range(part_index.num_header_rows):
                    if not (q_tokens & part_index.header_set(r, ci)):
                        continue
                    parts = part_index.out_parts(r, ci)
                    for part in _PARTS:
                        if out_tokens & parts[part]:
                            observations[part][1] += 1
                            if correct:
                                observations[part][0] += 1
                    break  # one header row per column suffices for counting
    return {part: (c, t) for part, (c, t) in observations.items()}


def estimate_from_environment(env: WorkloadEnvironment) -> Reliabilities:
    """Re-estimate reliabilities over a whole workload environment.

    ``env`` is a :class:`repro.evaluation.harness.WorkloadEnvironment`
    (typed loosely to avoid a circular import).
    """
    totals = {part: [0, 0] for part in _PARTS}
    for wq in env.queries:
        probe = env.candidates[wq.query_id]
        obs = collect_part_observations(
            env.truth, wq, probe.tables, env.synthetic.corpus.stats
        )
        for part, (correct, total) in obs.items():
            totals[part][0] += correct
            totals[part][1] += total
    return estimate_reliabilities(
        {part: (c, t) for part, (c, t) in totals.items()}
    )
