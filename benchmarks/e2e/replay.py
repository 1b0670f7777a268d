"""The traced layer replay: one query, one public call per layer.

:func:`replay_query` is a straight-line re-statement of the engine's
query plan (``repro.exec.query``) made of calls into each layer's public
functions, each wrapped in a benchmark-owned span.  It is seeded like the
facade (``random.Random(ProbeConfig.seed)``), and every caller checks that
its rows equal ``WWTService.answer_full``'s for the same query, so the
replay provably measures the same computation.

:func:`trace_query` adds what the straight line cannot see from outside:
the stand-alone cost of the pieces inside ``pipeline.confidence`` and
``core.problem`` (features, edges, max-marginals), and the execution-plan
and facade overheads as differences between nested public entry points.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

from repro.consolidate import consolidate, rank_answer
from repro.core import FeatureCache, build_edges, build_problem
from repro.exec import ExecutionContext, QueryState, build_query_plan
from repro.inference import REGISTRY, all_max_marginals
from repro.pipeline.probe import table_confidences, trim_hits
from repro.query import Query
from repro.service import EngineConfig, WWTService
from repro.text import tokenize

from .measure import Span, Tracer

__all__ = ["answer_rows", "replay_query", "trace_query"]

#: Spans of the straight line, in execution order; their per-query sum
#: plus the two overheads below accounts for one facade call.
REPLAY_LAYERS = (
    "index.search", "index.read", "pipeline.confidence", "index.search2",
    "core.problem", "inference.solve", "consolidate.merge",
    "consolidate.rank",
)


def answer_rows(answer: Any) -> List[Tuple[Any, ...]]:
    """The comparable content of an answer table's rows, in rank order."""
    return [(tuple(r.cells), r.support, r.relevance) for r in answer.rows]


def replay_query(
    tracer: Tracer,
    trace_id: int,
    corpus: Any,
    query: Query,
    config: EngineConfig,
    feature_cache: FeatureCache,
) -> Tuple[Span, Any, Any]:
    """Run ``query`` layer by layer; returns (root span, problem, answer)."""
    probe, params = config.probe, config.params
    algorithm = REGISTRY.get_algorithm(config.inference)
    rng = random.Random(probe.seed)
    before = feature_cache.stats()
    with tracer.span("replay", trace_id) as root:
        tokens = query.all_tokens()
        with tracer.span("index.search", trace_id, root):
            hits = corpus.search(tokens, limit=probe.stage1_limit)
        ids1 = [h.doc_id for h in trim_hits(hits, probe.min_score_fraction)]
        with tracer.span("index.read", trace_id, root):
            tables1 = corpus.get_many(ids1)

        seeds = []
        if tables1:
            with tracer.span("pipeline.confidence", trace_id, root):
                confidences = table_confidences(
                    query, tables1, corpus, params,
                    feature_cache=feature_cache,
                )
            ranked = sorted(
                range(len(tables1)), key=lambda i: -confidences[i]
            )
            seeds = [
                tables1[i] for i in ranked[: probe.num_seed_tables]
                if confidences[i] >= probe.seed_confidence
            ]

        ids2: List[str] = []
        if seeds:
            rows = [row for table in seeds for row in table.body_rows()]
            rng.shuffle(rows)
            sample: List[str] = []
            for row in rows[: probe.num_sample_rows]:
                for cell in row:
                    sample.extend(tokenize(cell.text))
            with tracer.span("index.search2", trace_id, root):
                hits = corpus.search(tokens + sample, limit=probe.stage2_limit)
            seen = set(ids1)
            ids2 = [
                h.doc_id for h in trim_hits(hits, probe.min_score_fraction)
                if h.doc_id not in seen
            ]
        with tracer.span("index.read", trace_id, root):
            tables = tables1 + corpus.get_many(ids2)

        with tracer.span("core.problem", trace_id, root):
            problem = build_problem(
                query, tables, corpus.stats, params,
                feature_cache=feature_cache,
            )
        with tracer.span("inference.solve", trace_id, root):
            mapping = algorithm(problem)
        with tracer.span("consolidate.merge", trace_id, root):
            mappings = {
                ti: mapping.table_mapping(ti)
                for ti in mapping.relevant_tables()
            }
            relevance = {
                ti: mapping.table_relevance_score(ti) for ti in mappings
            }
            answer = consolidate(query, tables, mappings, relevance)
        with tracer.span("consolidate.rank", trace_id, root):
            answer = rank_answer(answer)
    after = feature_cache.stats()
    root.counts.update(
        candidates=len(ids1) + len(ids2),
        columns=problem.num_columns,
        edges=len(problem.edges),
        rows=answer.num_rows,
        feature_hits=after["hits"] - before["hits"],
        feature_misses=after["misses"] - before["misses"],
        journal_depth=getattr(corpus, "journal_depth", 0),
    )
    return root, problem, answer


def trace_query(
    tracer: Tracer, trace_id: int, service: WWTService, query: Query
) -> bool:
    """Replay ``query`` and take the nested measurements around it.

    Returns whether the replay's rows equal the facade's.  ``service``
    must run with its result and probe caches off (every call computes).
    """
    corpus, config = service.corpus, service.config
    root, problem, replayed = replay_query(
        tracer, trace_id, corpus, query, config,
        FeatureCache(config.feature_cache_size),
    )
    tables = problem.tables

    # The pieces a solver or feature optimisation would move, each on its
    # own (they run inside pipeline.confidence / core.problem above).
    with tracer.span("components", trace_id) as parts:
        with tracer.span("core.features", trace_id, parts):
            build_problem(
                query, tables, corpus.stats, config.params,
                feature_cache=FeatureCache(config.feature_cache_size),
                with_edges=False,
            )
        with tracer.span("core.edges", trace_id, parts):
            build_edges(tables, corpus.stats)
        with tracer.span("inference.max_marginals", trace_id, parts):
            all_max_marginals(problem)

    state = QueryState(
        query=query, corpus=corpus, probe_config=config.probe,
        params=config.params, inference=config.inference,
        rng=random.Random(config.probe.seed),
        feature_cache=FeatureCache(config.feature_cache_size),
    )
    with tracer.span("exec.plan", trace_id):
        build_query_plan().run(ExecutionContext(), state)
    # Like the timed loop of an untraced run: no features left over from
    # an earlier pass over the same query.
    service.clear_caches()
    with tracer.span("service.answer_full", trace_id) as facade:
        full = service.answer_full(query, use_cache=False)
    facade.counts["degraded"] = int(full.degraded)
    root.counts["same_rows"] = int(
        answer_rows(replayed) == answer_rows(full.answer)
        == answer_rows(state.answer)
    )
    return bool(root.counts["same_rows"])
