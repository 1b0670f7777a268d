"""The two-stage index probe (Section 2.2.1).

Stage 1 probes the index with the union of all query keywords.  Because
many relevant tables have no useful header or context words, a second probe
augments the keywords with a random sample of rows from the stage-1 tables
the column mapper is *most confident* about — retrieving tables by content
overlap.  The paper reports the second stage fired for 65% of queries and
contributed about half of all relevant tables.

Since the execution-engine refactor the probe is defined as the staged
sub-plan ``probe.index1 -> probe.read1 -> probe.confidence ->
probe.index2 -> probe.read2`` (stage bodies in :mod:`repro.exec.query`);
:func:`two_stage_probe` runs that plan to completion under a fresh,
unbounded :class:`~repro.exec.context.ExecutionContext`, keeping the
exact pre-refactor behaviour.  Budgeted callers (the serving facade) run
the plan stages themselves and read their timings off the spans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..core.features import FeatureCache
from ..core.model import build_problem
from ..core.params import DEFAULT_PARAMS, ModelParams
from ..core.pmi import PmiScorer
from ..index.protocol import CorpusProtocol
from ..query.model import Query
from ..tables.table import WebTable
from ..inference.base import column_distributions
from ..inference.max_marginals import all_max_marginals

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..index.inverted import SearchHit

__all__ = [
    "ProbeConfig",
    "ProbeResult",
    "two_stage_probe",
    "table_confidences",
    "trim_hits",
]

@dataclass(frozen=True)
class ProbeConfig:
    """Tunables of the two-stage probe."""

    stage1_limit: int = 60
    stage2_limit: int = 40
    #: Hits scoring below this fraction of the best hit are dropped —
    #: Lucene-style probes return a long weak tail that would otherwise pad
    #: the candidate set with noise.
    min_score_fraction: float = 0.25
    #: Confidence a table must reach to seed the second probe ("very high
    #: relevance score", top two tables).  Matches the 0.6 column-confidence
    #: threshold of Section 3.3 — the softmax over table-level
    #: max-marginals rarely exceeds ~0.7 at the trained weight scale.
    seed_confidence: float = 0.6
    num_seed_tables: int = 2
    num_sample_rows: int = 10
    seed: int = 0


@dataclass
class ProbeResult:
    """Outcome of the candidate retrieval for one query."""

    tables: List[WebTable]
    stage1_ids: List[str]
    stage2_ids: List[str]
    used_second_stage: bool
    seed_table_ids: List[str] = field(default_factory=list)

    @property
    def num_candidates(self) -> int:
        """Total distinct candidate tables."""
        return len(self.tables)


def trim_hits(
    hits: List[SearchHit], min_score_fraction: float
) -> List[SearchHit]:
    """Drop the weak tail: hits below ``min_score_fraction`` of the best."""
    if not hits:
        return hits
    floor = hits[0].score * min_score_fraction
    if hits[-1].score >= floor:
        # Hits arrive sorted best-first, so when even the weakest one
        # clears the floor there is nothing to drop — skip the rescan.
        return hits
    return [h for h in hits if h.score >= floor]


def table_confidences(
    query: Query,
    tables: Sequence[WebTable],
    corpus: CorpusProtocol,
    params: ModelParams,
    feature_cache: Optional[FeatureCache] = None,
    pmi_scorer: Optional[PmiScorer] = None,
) -> List[float]:
    """Per-table relevance confidence from independent max-marginals.

    Max-marginals read node potentials and the mutex/all-Irr structure
    only (Section 4.2.3), never ``problem.edges`` — so none are built.
    """
    problem = build_problem(
        query, tables, corpus.stats, params,
        pmi_scorer=pmi_scorer, feature_cache=feature_cache,
        with_edges=False,
    )
    distributions = column_distributions(problem, all_max_marginals(problem))
    confidences = []
    for ti in range(len(tables)):
        best = 0.0
        for tc in problem.table_columns(ti):
            dist = distributions[tc]
            mass = max(dist[l] for l in problem.labels.query_labels())
            best = max(best, mass)
        confidences.append(best)
    return confidences


def two_stage_probe(
    query: Query,
    corpus: CorpusProtocol,
    config: Optional[ProbeConfig] = None,
    params: ModelParams = DEFAULT_PARAMS,
    rng: Optional[random.Random] = None,
    feature_cache: Optional[FeatureCache] = None,
    pmi_scorer: Optional[PmiScorer] = None,
) -> ProbeResult:
    """Run the Section 2.2.1 candidate retrieval.

    ``corpus`` is any :class:`~repro.index.protocol.CorpusProtocol` corpus
    — usually a :class:`~repro.index.ShardedCorpus`; results do not
    depend on the shard count (see DESIGN.md, "Sharded index &
    persistence").

    The stage-2 row sample draws from a private ``random.Random`` seeded
    with ``config.seed`` (never the module-global generator), so concurrent
    probes and cached reruns are bit-reproducible.  Pass ``rng`` to thread
    your own generator instead (it is consumed; share one only for
    deliberately coupled sampling sequences).

    ``feature_cache`` (when given) is populated by the confidence pass's
    :func:`~repro.core.model.build_problem` call, so a caller assembling
    the full inference problem right after this probe — the serving
    facade — reuses every stage-1 table's features instead of recomputing
    them (see DESIGN.md, "Hot-path engine").  ``pmi_scorer`` forwards to
    the same call (only consulted when ``params.w3`` is non-zero).
    """
    # Imported here, not at module scope: repro.exec.query imports this
    # module's stage helpers, so the probe reaches the engine lazily.
    from ..exec.context import ExecutionContext
    from ..exec.query import build_probe_plan
    from ..exec.state import QueryState

    if config is None:
        config = ProbeConfig()
    state = QueryState(
        query=query,
        corpus=corpus,
        probe_config=config,
        params=params,
        rng=rng if rng is not None else random.Random(config.seed),
        feature_cache=feature_cache,
        pmi_scorer=pmi_scorer,
    )
    build_probe_plan().run(ExecutionContext(root_name="probe"), state)
    return state.probe
