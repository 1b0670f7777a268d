"""``WWTService`` — the one public entry point for answering queries.

Owns the full query-time pipeline of Figure 2 (two-stage probe, collective
column mapping, consolidation, ranking) behind a request/response API with
a result cache, single-flight collapsing of concurrent duplicates, and
serving statistics.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.features import BoundedCache, FeatureCache
from ..core.pmi import PmiScorer
from ..exec.context import SPAN_OK, SPAN_SKIPPED, ExecutionContext, wall_clock
from ..exec.query import build_query_plan
from ..exec.state import QueryState
from ..exec.stats import StageStats, Stats
from ..index.protocol import CorpusProtocol
from ..index.sharded import ShardedCorpus, load_corpus
from ..inference import REGISTRY
from ..pipeline.wwt import QueryTiming, WWTAnswer
from ..query.model import Query
from ..tables.table import WebTable
from .cache import CacheStats
from .config import EngineConfig
from .types import (
    DEFAULT_PAGE_SIZE,
    QueryRequest,
    QueryResponse,
    build_explain,
    normalized_query_key,
)

__all__ = ["ServiceStats", "WWTService"]

#: The one plan every query runs: the full pipeline, stage by stage.
_QUERY_PLAN = build_query_plan()

#: Anything ``answer``/``answer_batch`` accepts as a query.
RequestLike = Union[QueryRequest, Query, str]

#: Count-name prefix of the per-reason degraded-answer counts.
_DEGRADED_BY = "degraded_reasons."


@dataclass(frozen=True)
class ServiceStats:
    """Serving counters since the service was constructed."""

    queries: int
    batches: int
    result_cache: CacheStats
    #: Always empty: there is no probe cache.  The field stays only while
    #: ``benchmarks/e2e`` reads it (DESIGN.md, "Modes removed").
    probe_cache: CacheStats
    #: Per-(query, table) feature memoization counters (the hot-path
    #: cache shared between probe confidence and full inference).
    feature_cache: CacheStats
    #: Cumulative wall-clock seconds spent serving (cache hits included).
    total_time: float
    #: Per-stage latency aggregates (count/total/p50/p95 seconds) over
    #: every executed pipeline stage, keyed by stage name — the serving
    #: view of the execution engine's span tree.
    stages: Dict[str, StageStats] = field(default_factory=dict)
    #: Queries whose deadline expired at some between-stage check.
    deadline_hits: int = 0
    #: Queries answered degraded (stages skipped or fallback inference).
    degraded_answers: int = 0
    #: Degraded queries broken down by reason (``"deadline"``).
    degraded_reasons: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for logging/CLI output."""
        return {
            "queries": self.queries,
            "batches": self.batches,
            "total_time": self.total_time,
            "result_cache": self.result_cache.to_dict(),
            "probe_cache": self.probe_cache.to_dict(),
            "feature_cache": self.feature_cache.to_dict(),
            "stages": {
                name: stats.to_dict()
                for name, stats in sorted(self.stages.items())
            },
            "deadline_hits": self.deadline_hits,
            "degraded_answers": self.degraded_answers,
            "degraded_reasons": dict(sorted(self.degraded_reasons.items())),
        }


class WWTService:
    """Facade over an indexed corpus: configure once, answer many.

    ::

        service = WWTService(corpus, EngineConfig(inference="table-centric"))
        response = service.answer("country | currency")
        responses = service.answer_batch(["country | gdp", "dog breed"])
        print(service.stats().to_dict())

    ``corpus`` is any :class:`~repro.index.protocol.CorpusProtocol` corpus
    (usually a :class:`~repro.index.sharded.ShardedCorpus`), or a path to
    a persisted corpus directory (``repro index build``).  With no corpus
    argument at all, the config's ``index_path`` is loaded — so a service
    is fully constructible from one JSON config file.

    The served corpus can also be mutated live — new tables are
    searchable immediately, and journaled durably first when the corpus
    was opened from a directory::

        service = WWTService("corpus-dir")
        service.add_tables(new_tables)      # caches invalidated
        service.compact()                   # write shards, drop journal
    """

    def __init__(
        self,
        corpus: Union[CorpusProtocol, str, Path, None] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        if corpus is None:
            if not self.config.index_path:
                raise ValueError(
                    "WWTService needs a corpus object, a corpus path, or an "
                    "EngineConfig with index_path set"
                )
            corpus = self.config.index_path
        #: Whether this service created the corpus (and so owns its
        #: resources — see :meth:`close`).
        self._owns_corpus = isinstance(corpus, (str, Path))
        if isinstance(corpus, (str, Path)):
            corpus = load_corpus(corpus)
        self.corpus = corpus
        #: Full answers keyed by ``(normalized query, inference name)``.
        self._result_cache: BoundedCache[Tuple[str, str], WWTAnswer] = (
            BoundedCache(self.config.cache_size)
        )
        #: Per-(query, table) feature memo shared by the probe's
        #: confidence pass and the full inference assembly, so stage-1
        #: features are computed once per query instead of twice.
        self._feature_cache = FeatureCache(self.config.feature_cache_size)
        #: One corpus-level PMI² scorer (bounded H/B containment-probe
        #: caches shared across every query) — only when the configured
        #: weights actually consult PMI².
        self._pmi_scorer = (
            PmiScorer(self.corpus)
            if self.config.params.w3 != 0.0 else None
        )
        self._lock = threading.Lock()
        #: Single-flight map: cache key -> Future of the leading computation,
        #: so concurrent identical queries compute the pipeline once.
        self._inflight: Dict[Any, Future[WWTAnswer]] = {}
        #: Every serving counter and per-stage latency behind :meth:`stats`.
        self._stats = Stats()

    # -- the pipeline -----------------------------------------------------

    def _compute(
        self,
        query: Query,
        inference: str,
        deadline_ms: Optional[float] = None,
    ) -> WWTAnswer:
        """Run one query through the staged execution engine, uncached.

        The plan (``parse -> probe.* -> column_map -> consolidate ->
        rank``) runs under an :class:`~repro.exec.ExecutionContext`
        carrying the request's ``deadline_ms`` (falling back to the
        config's); the span tree it records is the source of both the
        response's :class:`~repro.pipeline.wwt.QueryTiming` and the
        service's per-stage aggregates.
        """
        algorithm = REGISTRY.get_algorithm(inference)  # fail fast
        ctx = ExecutionContext(
            deadline_ms=(
                deadline_ms if deadline_ms is not None
                else self.config.deadline_ms
            ),
        )
        state = QueryState(
            query=query,
            corpus=self.corpus,
            probe_config=self.config.probe,
            params=self.config.params,
            inference=inference,
            algorithm=algorithm,
            rng=random.Random(self.config.probe.seed),
            feature_cache=self._feature_cache,
            pmi_scorer=self._pmi_scorer,
        )
        try:
            _QUERY_PLAN.run(ctx, state)
        finally:
            self._record_execution(ctx)
        return WWTAnswer(
            query=state.query,
            answer=state.answer,
            mapping=state.mapping,
            probe=state.probe,
            timing=QueryTiming.from_spans(ctx.root),
            problem=state.problem,
            spans=ctx.root,
            degraded=ctx.degraded,
            stages_ran=ctx.root.stage_names(),
            degraded_reasons=list(ctx.degraded_reasons),
        )

    def _record_execution(self, ctx: ExecutionContext) -> None:
        """Fold one execution's outcome and executed spans into the stats,
        as one event."""
        counts = {
            "deadline_hits": int(ctx.deadline_hit),
            "degraded_answers": int(ctx.degraded),
        }
        for reason in ctx.degraded_reasons:
            counts[_DEGRADED_BY + reason] = 1
        # Skipped spans did not execute.  Degraded executions (e.g.
        # column_map's cheap fallback) aggregate under their own key —
        # mixing them into the normal-stage percentiles would misdescribe
        # the configured solver's latency.
        self._stats.record(counts, [
            (
                span.name if span.status == SPAN_OK
                else f"{span.name}:{span.status}",
                span.duration,
            )
            for span in ctx.root.leaves()
            if span.status != SPAN_SKIPPED
        ])

    def _cached_answer(
        self,
        query: Query,
        name: str,
        use_cache: bool,
        deadline_ms: Optional[float] = None,
    ) -> tuple:
        """``(served_without_computing, WWTAnswer)`` for one query.

        The single shared path behind :meth:`answer` and
        :meth:`answer_full`: LRU result lookup, then single-flight
        collapsing so concurrent identical queries (the HTTP server's
        workers) compute the pipeline once — followers wait on the
        leader's future and count as served-from-cache.

        The result-cache key deliberately omits ``deadline_ms``: only
        non-degraded answers are stored, and those are deadline-invariant
        (bit-identical whatever the budget was).  Single-flight collapsing
        *does* key on the deadline, so a tightly budgeted request never
        adopts a degraded answer computed under someone else's SLO.
        """
        if not use_cache:
            return False, self._compute(query, name, deadline_ms)
        key = (normalized_query_key(query), name)
        hit, cached = self._result_cache.lookup(key)
        if hit:
            return True, cached
        flight_key = key + (deadline_ms,)
        with self._lock:
            future = self._inflight.get(flight_key)
            leader = future is None
            if leader:
                future = Future()
                self._inflight[flight_key] = future
        if not leader:
            return True, future.result()
        try:
            full = self._compute(query, name, deadline_ms)
            if not full.degraded:
                # Degraded answers are shaped by transient load — serving
                # them from cache would pin one request's bad luck.
                self._result_cache.put(key, full)
            future.set_result(full)
            return False, full
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._inflight.pop(flight_key, None)

    def answer_full(
        self,
        query: Union[Query, str],
        use_cache: bool = True,
        inference: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> WWTAnswer:
        """Answer one query, returning the full pipeline artifact.

        This is the power-user API (examples, notebooks, debugging) — it
        exposes the probe result, the mapping problem, and the labeling.
        Serving callers should prefer :meth:`answer`.  ``deadline_ms``
        overrides the config's budget for this call only.
        """
        if isinstance(query, str):
            query = Query.parse(query)
        name = inference if inference is not None else self.config.inference
        return self._cached_answer(query, name, use_cache, deadline_ms)[1]

    # -- the serving API --------------------------------------------------

    def answer(self, request: RequestLike) -> QueryResponse:
        """Answer one request, returning a paginated response."""
        request = QueryRequest.of(request)
        start = wall_clock()
        name = (
            request.inference if request.inference is not None
            else self.config.inference
        )
        cache_hit, full = self._cached_answer(
            request.query, name, request.use_cache, request.deadline_ms
        )

        page_size = (
            request.page_size if request.page_size is not None
            else DEFAULT_PAGE_SIZE
        )
        lo = (request.page - 1) * page_size
        rows = full.answer.rows[lo: lo + page_size]
        served_in = wall_clock() - start
        self._stats.record({"queries": 1, "total_time": served_in})

        return QueryResponse(
            query=request.query,
            header=full.answer.header(),
            rows=rows,
            page=request.page,
            page_size=page_size,
            total_rows=full.answer.num_rows,
            timing=full.timing,
            algorithm=name,  # registry name; explain carries the solver's own
            cache_hit=cache_hit,
            served_in=served_in,
            degraded=full.degraded,
            stages_ran=list(full.stages_ran),
            trace=full.spans,
            explain=build_explain(full) if request.explain else None,
            degraded_reasons=list(full.degraded_reasons),
        )

    def answer_batch(
        self, requests: Sequence[RequestLike]
    ) -> List[QueryResponse]:
        """Answer many requests in order, in the calling thread.

        Repeated (normalized) queries — within one batch or across calls —
        compute the pipeline once through the result cache, and each
        response reports its own cache provenance.  There is no thread
        pool: the pipeline holds the interpreter lock, so fanning a batch
        out measured slower than this loop (DESIGN.md, "Modes removed").
        """
        coerced = [QueryRequest.of(r) for r in requests]
        self._stats.record({"batches": 1})
        return [self.answer(r) for r in coerced]

    # -- live mutation -----------------------------------------------------

    def _mutable_corpus(self) -> ShardedCorpus:
        """The served corpus, if it supports live mutation.

        Every :class:`~repro.index.sharded.ShardedCorpus` does; another
        :class:`~repro.index.protocol.CorpusProtocol` implementation
        passed in by the caller may not.
        """
        if not isinstance(self.corpus, ShardedCorpus):
            raise ValueError(
                f"the served corpus ({type(self.corpus).__name__}) is "
                "immutable; serve a ShardedCorpus to get "
                "add_tables/delete_tables"
            )
        return self.corpus

    def add_tables(self, tables: Iterable[WebTable]) -> int:
        """Add new tables to the served corpus, live.

        The tables are searchable by the next query — the caches are
        dropped (cached answers were computed against the smaller corpus)
        — and, for a corpus opened from a directory, the mutation is
        durable before this returns.  The journal grows until the caller
        calls :meth:`compact`.  Returns the number of tables added.
        """
        added = self._mutable_corpus().add_tables(tables)
        self.clear_caches()
        return added

    def delete_tables(self, table_ids: Iterable[str]) -> int:
        """Remove tables from the served corpus, live (see :meth:`add_tables`)."""
        deleted = self._mutable_corpus().delete_tables(table_ids)
        self.clear_caches()
        return deleted

    def compact(self) -> int:
        """Write the served corpus's shards back and retire its journal.

        Returns the number of journal records folded.  Cached answers stay
        valid (compaction changes no table), so the caches are left alone.
        """
        return self._mutable_corpus().compact()

    # -- operations -------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Snapshot of the serving counters."""
        counts, stages = self._stats.snapshot()
        return ServiceStats(
            queries=int(counts.get("queries", 0)),
            batches=int(counts.get("batches", 0)),
            result_cache=CacheStats.of(self._result_cache),
            probe_cache=CacheStats(0, 0, 0, 0),
            feature_cache=CacheStats.of(self._feature_cache),
            total_time=float(counts.get("total_time", 0.0)),
            stages=stages,
            deadline_hits=int(counts.get("deadline_hits", 0)),
            degraded_answers=int(counts.get("degraded_answers", 0)),
            degraded_reasons={
                name[len(_DEGRADED_BY):]: int(n)
                for name, n in counts.items() if name.startswith(_DEGRADED_BY)
            },
        )

    def clear_caches(self) -> None:
        """Drop all serving caches (hit/miss counters are kept).

        Covers the result LRU, the per-(query, table) feature memo, and — when PMI² is configured — the corpus-level H/B
        containment-probe caches; all of them key off corpus content, so
        a live mutation invalidates the lot.
        """
        self._result_cache.clear()
        self._feature_cache.clear()
        if self._pmi_scorer is not None:
            self._pmi_scorer.clear_caches()

    def close(self) -> None:
        """Release resources the service created (idempotent).

        A corpus loaded here from a path (rather than passed in) holds its
        shards' table files mapped; closing the service closes it.  A
        corpus the caller constructed is left untouched — they own its
        lifecycle.
        """
        if self._owns_corpus:
            self.corpus.close()

    def __enter__(self) -> WWTService:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
