# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""The in-process workloads: ``paper59``, ``bigcorpus``, ``ingest_live``.

Every workload is a closed loop with one caller: the next query is issued
when the previous answer table has arrived.  A run has three parts: set-up
(repeated, ``setup_s`` is the median), one untimed warm pass, and a timed
phase of whole passes sized to ``--seconds`` from the warm pass's duration.
An untraced run yields the end-to-end metrics; a traced run replays the
same queries layer by layer (:mod:`.replay`) and yields the per-layer ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import FeatureCache, LabelSpace
from repro.corpus import CorpusConfig, GroundTruth, generate_corpus, iter_tables
from repro.corpus.generator import iter_synthetic_tables
from repro.evaluation import f1_error, gold_assignment
from repro.index import build_corpus_index, build_corpus_stream, load_corpus
from repro.query import WORKLOAD, Query
from repro.service import EngineConfig, WWTService

from . import inputs
from .measure import Tracer, median, percentile, rss_high_water_mib
from .replay import REPLAY_LAYERS, answer_rows, replay_query, trace_query

__all__ = ["Outcome", "Run", "bigcorpus", "ingest_live", "paper59"]

#: Result and probe caches off, so every timed call computes; the feature
#: cache stays at its default because it works within one query.
UNCACHED = EngineConfig(cache_size=0, probe_cache_size=0)
NUM_SHARDS = 4
#: Timed passes a run makes at least (the best of them is reported).
MIN_PASSES = 3
#: A traced query costs about this many untraced ones (replay, pieces,
#: plan run, facade call), so a traced run makes that many fewer repeats.
TRACE_COST = 3.5
#: The query a cold process answers first on ``bigcorpus``.
FIRST_QUERY = "country | currency"


@dataclass
class Run:
    """The inputs of one benchmark run."""

    seed: int
    seconds: float
    trace: bool
    sizes: inputs.Sizes
    #: Scratch directory inside the checkout, removed when the run ends.
    scratch: Path
    #: Root of the checkout (holds ``src/`` and ``BENCHMARK.json``).
    root: Path


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: The metrics ``BENCHMARK.json`` names: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Workload-specific measurements outside the contract's metric set.
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    samples: Dict[str, int] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def latency_metrics(
        self, latencies_ms: Sequence[float], busy_s: float, samples: int
    ) -> None:
        """The caller-visible latency metrics: ``latencies_ms`` holds one
        value per query, which took ``busy_s`` to issue once each, and
        rests on ``samples`` timed calls."""
        self.metrics["query_p50_ms"] = (percentile(latencies_ms, 0.50), "ms")
        self.metrics["query_p95_ms"] = (percentile(latencies_ms, 0.95), "ms")
        self.metrics["queries_per_s"] = (len(latencies_ms) / busy_s, "1/s")
        for name in ("query_p50_ms", "query_p95_ms", "queries_per_s"):
            self.samples[name] = samples


# -- shared pieces --------------------------------------------------------


def repeat_setup(run: Run, outcome: Outcome, build: Callable[[int, bool], Any]) -> Any:
    """Set up ``setup_reps`` times; report the median, keep the last product.

    ``build(rep, keep)`` must release what it built unless ``keep``.
    """
    reps = run.sizes.setup_reps
    times: List[float] = []
    product = None
    for rep in range(reps):
        start = time.perf_counter()
        product = build(rep, rep == reps - 1)
        times.append(time.perf_counter() - start)
    outcome.metrics["setup_s"] = (median(times), "s")
    outcome.samples["setup_s"] = reps
    return product


def paper_corpus(
    run: Run, tracer: Tracer, rep: int, save: Optional[Path] = None
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """The fixed ~1 k-table corpus of the paper's regime.

    Untraced runs call ``generate_corpus`` (and so carry provenance for
    the quality metric); traced runs make the same corpus in two spanned
    steps, generation (render -> parse_html -> extract_tables) and index
    build, so each gets its own rate.
    """
    config = CorpusConfig(seed=inputs.CORPUS_SEED, scale=run.sizes.scale)
    shards = NUM_SHARDS if save is not None else None
    if not run.trace:
        synthetic = generate_corpus(config, num_shards=shards)
        if save is not None:
            synthetic.corpus.save(save)
        return synthetic.corpus, synthetic.provenance
    # Set-up traces count down from -1; query traces count up from 0.
    with tracer.span("corpus.generate", -1 - rep) as span:
        tables = list(iter_tables(config))
    span.counts["tables"] = len(tables)
    with tracer.span("index.build", -1 - rep) as span:
        corpus = build_corpus_index(tables, num_shards=shards, save=save)
    span.counts["tables"] = len(tables)
    return corpus, None


def response_digest(responses: Sequence[Tuple[int, Any]]) -> str:
    """Digest of a pass's answers, independent of the order they ran in."""
    parts = []
    for qi, response in sorted(responses, key=lambda item: item[0]):
        parts.append(json.dumps(
            [qi, response.header, response.total_rows,
             [[list(r.cells), r.support, repr(r.relevance)]
              for r in response.rows]],
        ))
    return inputs.digest(parts)


def answer_or_fail(
    outcome: Outcome, service: WWTService, query: Query
) -> Tuple[Optional[Any], float]:
    """One timed ``WWTService.answer``; failures are counted, not raised.

    The feature cache is keyed by (query, table) and outlives a query, so
    without the untimed ``clear_caches`` a repeated pass would be served
    features from the pass before: every timed call computes from scratch.
    """
    service.clear_caches()
    start = time.perf_counter()
    try:
        response = service.answer(query)
    except Exception as exc:  # the loop must outlive one bad answer
        outcome.check(False, f"answer({query}) raised {exc!r}")
        return None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    outcome.check(not response.degraded, f"answer({query}) came back degraded")
    return response, elapsed


def repeats(run: Run, nominal_s: float) -> int:
    """Passes or rounds of nominal length ``nominal_s`` in ``--seconds``."""
    if run.trace:
        return max(1, round(run.seconds / (TRACE_COST * nominal_s)))
    return max(MIN_PASSES, round(run.seconds / nominal_s))


def request_digest(run: Run, queries: Sequence[Query], passes: int) -> str:
    """Digest of the queries passes 1..``passes`` send, in order."""
    return inputs.digest(
        str(queries[qi])
        for pass_no in range(1, passes + 1)
        for qi in inputs.pass_order(run.seed, pass_no, len(queries))
    )


def run_pass(
    run: Run, outcome: Outcome, service: WWTService,
    queries: Sequence[Query], pass_no: int,
) -> Tuple[List[Tuple[int, float]], float, str]:
    """One pass over ``queries`` in seeded order.

    Returns (query index, latency) pairs, the pass's wall time and the
    digest of its answers.
    """
    latencies: List[Tuple[int, float]] = []
    responses: List[Tuple[int, Any]] = []
    start = time.perf_counter()
    for qi in inputs.pass_order(run.seed, pass_no, len(queries)):
        response, elapsed = answer_or_fail(outcome, service, queries[qi])
        latencies.append((qi, elapsed))
        if response is not None:
            responses.append((qi, response))
    wall = time.perf_counter() - start
    return latencies, wall, response_digest(responses)


def timed_passes(
    run: Run, outcome: Outcome, service: WWTService,
    queries: Sequence[Query], passes: int,
) -> None:
    """``passes`` timed passes over ``queries``; all must answer alike.

    The engine is deterministic and the host is not: its speed drifts by
    several percent over seconds and drops by a quarter for tens of
    seconds at a time.  Interference only ever adds time, so a query's
    latency is taken as its best over the passes (at least three; see
    :func:`repeats`); the
    reported percentiles run over the queries, and the rate is that of
    one caller issuing every query once at that latency.
    """
    outcome.digests["requests"] = request_digest(run, queries, passes)
    per_query: List[List[float]] = [[] for _ in queries]
    walls: List[float] = []
    reference = None
    for pass_no in range(1, passes + 1):
        latencies, wall, digest = run_pass(
            run, outcome, service, queries, pass_no
        )
        for qi, elapsed in latencies:
            per_query[qi].append(elapsed * 1e3)
        walls.append(wall)
        if reference is None:
            reference = digest
        outcome.check(
            digest == reference,
            f"pass {pass_no} answered differently from pass 1",
        )
    outcome.digests["answers"] = reference or ""
    best = [min(samples) for samples in per_query]
    outcome.latency_metrics(best, sum(best) / 1e3, passes * len(queries))
    outcome.extras["pass_wall_s"] = (median(walls), "s")
    outcome.samples["passes"] = passes


def check_replay(
    run: Run, outcome: Outcome, service: WWTService, queries: Sequence[Query]
) -> None:
    """Untraced runs still prove, on a sample, that the replay is faithful."""
    tracer = Tracer()
    picked = inputs.sample_indices(
        run.seed, "replay", len(queries), run.sizes.replay_checked
    )
    for qi in picked:
        query = queries[qi]
        _, _, replayed = replay_query(
            tracer, qi, service.corpus, query, service.config,
            FeatureCache(service.config.feature_cache_size),
        )
        full = service.answer_full(query, use_cache=False)
        outcome.check(
            answer_rows(replayed) == answer_rows(full.answer),
            f"replay of {query} differs from the facade's rows",
        )


def traced_passes(
    run: Run, outcome: Outcome, tracer: Tracer, service: WWTService,
    queries: Sequence[Query], passes: int,
) -> None:
    """Replay ``passes`` passes over ``queries`` layer by layer."""
    outcome.digests["requests"] = request_digest(run, queries, passes)
    trace_id = 0
    for pass_no in range(1, passes + 1):
        for qi in inputs.pass_order(run.seed, pass_no, len(queries)):
            same = trace_query(tracer, trace_id, service, queries[qi])
            outcome.check(
                same, f"replay of {queries[qi]} differs from the facade's rows"
            )
            trace_id += 1
    outcome.samples["passes"] = passes
    outcome.samples["traced_queries"] = trace_id


def hit_path_ms(service: WWTService, queries: Sequence[Query]) -> float:
    """Median ``WWTService.answer`` latency on a result-cache hit."""
    cached = WWTService(service.corpus, EngineConfig())
    samples: List[float] = []
    for query in queries[:3]:
        cached.answer(query)
        for _ in range(100):
            start = time.perf_counter()
            response = cached.answer(query)
            samples.append((time.perf_counter() - start) * 1e3)
            if not response.cache_hit:
                raise RuntimeError(f"repeated {query} missed the result cache")
    return median(samples)


def ratio(hits: float, lookups: float) -> float:
    """``hits / lookups``, 0.0 when nothing was looked up."""
    return hits / lookups if lookups else 0.0


def layer_metrics(
    outcome: Outcome, tracer: Tracer, service: WWTService, hit_ms: float
) -> None:
    """The per-layer metrics every workload reports, from the span log."""
    put = outcome.metrics.__setitem__
    # Per trace, the total milliseconds spent under each span name.
    by_trace: Dict[int, Dict[str, float]] = {}
    for span in tracer.spans:
        slot = by_trace.setdefault(span.trace_id, {})
        slot[span.name] = slot.get(span.name, 0.0) + span.duration_s * 1e3
    traces = [t for t in by_trace.values() if "replay" in t]
    for name in REPLAY_LAYERS + (
        "core.features", "core.edges", "inference.max_marginals",
    ):
        put(f"{name}_ms", (
            median([t[name] for t in traces if name in t]), "ms"))
    plan_over = [
        t["exec.plan"] - sum(t.get(layer, 0.0) for layer in REPLAY_LAYERS)
        for t in traces
    ]
    facade_over = [t["service.answer_full"] - t["exec.plan"] for t in traces]
    put("exec.plan_overhead_ms", (median(plan_over), "ms"))
    put("service.overhead_ms", (median(facade_over), "ms"))
    put("service.hit_path_ms", (hit_ms, "ms"))

    roots = [s for s in tracer.spans if s.name == "replay"]
    n = len(roots)

    def mean(key: str) -> float:
        return sum(r.counts[key] for r in roots) / n

    put("index.candidates_per_query", (mean("candidates"), "count"))
    put("index.journal_depth", (mean("journal_depth"), "count"))
    put("core.columns_per_query", (mean("columns"), "count"))
    put("core.edges_per_query", (mean("edges"), "count"))
    put("consolidate.rows_per_query", (mean("rows"), "count"))
    hits = sum(r.counts["feature_hits"] for r in roots)
    misses = sum(r.counts["feature_misses"] for r in roots)
    put("core.feature_cache_hit_ratio", (ratio(hits, hits + misses), "ratio"))

    stats = service.stats()
    put("service.result_cache_hit_ratio", (
        ratio(stats.result_cache.hits,
              stats.result_cache.hits + stats.result_cache.misses), "ratio"))
    put("service.probe_cache_hit_ratio", (
        ratio(stats.probe_cache.hits,
              stats.probe_cache.hits + stats.probe_cache.misses), "ratio"))
    degraded = sum(
        s.counts["degraded"] for s in tracer.spans
        if s.name == "service.answer_full"
    )
    put("service.degraded_ratio", (ratio(degraded, n), "ratio"))

    for name, metric in (
        ("corpus.generate", "corpus.generate_tables_per_s"),
        ("index.build", "index.build_tables_per_s"),
    ):
        rates = [
            s.counts["tables"] / s.duration_s
            for s in tracer.spans if s.name == name
        ]
        put(metric, (median(rates), "1/s"))

    spans_per_query = len(
        [s for s in tracer.spans if s.trace_id == roots[0].trace_id]
    )
    replay_ms = median([r.duration_s * 1e3 for r in roots])
    put("trace.overhead_ratio", (
        1.0 + tracer.span_cost_s() * 1e3 * spans_per_query / replay_ms,
        "ratio",
    ))

    # The ledger: do the straight line's layers plus the two overheads
    # account for a facade call?  Means add up exactly; the sum of the
    # medians is held against the median facade call of the same run (an
    # untraced run's query_p50_ms is a best of several passes, so lower).
    layer_sum = sum(
        sum(t.get(layer, 0.0) for layer in REPLAY_LAYERS) for t in traces
    ) / n
    facade = sum(t["service.answer_full"] for t in traces) / n
    outcome.extras["ledger.p50_sum_ms"] = (
        sum(outcome.metrics[f"{layer}_ms"][0] for layer in REPLAY_LAYERS)
        + median(plan_over) + median(facade_over), "ms")
    outcome.extras["ledger.facade_p50_ms"] = (
        median([t["service.answer_full"] for t in traces]), "ms")
    outcome.extras["ledger.layers_mean_ms"] = (layer_sum, "ms")
    outcome.extras["ledger.overheads_mean_ms"] = (
        (sum(plan_over) + sum(facade_over)) / n, "ms")
    outcome.extras["ledger.facade_mean_ms"] = (facade, "ms")


def finish_in_process(
    run: Run, outcome: Outcome, tracer: Tracer, service: WWTService,
    queries: Sequence[Query], passes: int, warmed: bool = False,
) -> None:
    """The common tail of the in-process workloads' steady phase.

    Unless the caller has ``warmed`` the service with a pass of its own,
    an untimed warm pass runs first.
    """
    if not warmed:
        run_pass(run, outcome, service, queries, 0)
    if run.trace:
        traced_passes(run, outcome, tracer, service, queries, passes)
        layer_metrics(outcome, tracer, service, hit_path_ms(service, queries))
        outcome.tracer = tracer
    else:
        timed_passes(run, outcome, service, queries, passes)
        check_replay(run, outcome, service, queries)
        outcome.metrics["peak_rss_mb"] = (rss_high_water_mib(), "MiB")


# -- paper59 --------------------------------------------------------------


def paper59(run: Run) -> Outcome:
    """The paper's regime: ~1 k tables in memory, the 59-query workload."""
    outcome = Outcome()
    tracer = Tracer()

    def build(rep: int, keep: bool) -> Any:
        corpus, provenance = paper_corpus(run, tracer, rep)
        return WWTService(corpus, UNCACHED), provenance

    service, provenance = repeat_setup(run, outcome, build)
    queries = inputs.workload_queries()
    if provenance is not None:
        # The quality pass visits every query once, so it doubles as the
        # warm pass.
        outcome.extras["f1_error"] = (
            mean_f1_error(service, provenance), "%")
    finish_in_process(
        run, outcome, tracer, service, queries,
        repeats(run, run.sizes.paper_pass_s), warmed=provenance is not None,
    )
    return outcome


def mean_f1_error(service: WWTService, provenance: Dict[str, Any]) -> float:
    """Mean F1 error of the served mappings against the generator's truth."""
    truth = GroundTruth.from_provenance(
        provenance,
        {wq.query_id: (wq.domain_key, wq.attr_keys) for wq in WORKLOAD},
    )
    errors = []
    for wq in WORKLOAD:
        full = service.answer_full(wq.query, use_cache=False)
        labels = LabelSpace(wq.query.q)
        gold = gold_assignment(truth, wq.query_id, full.probe.tables, labels)
        errors.append(f1_error(full.mapping.labels, gold, labels))
    return sum(errors) / len(errors)


# -- bigcorpus ------------------------------------------------------------


def bigcorpus(run: Run) -> Outcome:
    """A persisted, sharded, lazily loaded corpus with full candidate sets."""
    outcome = Outcome()
    tracer = Tracer()
    config = UNCACHED.replace(parallel_mode="serial")
    cold: List[Dict[str, float]] = []

    def build(rep: int, keep: bool) -> Path:
        path = run.scratch / f"big-{rep}"
        with tracer.span("corpus.generate", -1 - rep) as span:
            tables = list(iter_synthetic_tables(
                run.sizes.big_tables, seed=inputs.CORPUS_SEED
            ))
        span.counts["tables"] = len(tables)
        with tracer.span("index.build", -1 - rep) as span:
            build_corpus_stream(tables, path, num_shards=NUM_SHARDS)
        span.counts["tables"] = len(tables)
        # A second open in one process is not cold (the first leaves warm
        # allocator and import state behind), so each repetition is a
        # fresh child process.
        cold.append(cold_start(run, path))
        if not keep:
            shutil.rmtree(path)
        return path

    path = repeat_setup(run, outcome, build)
    for key in (
        "first_query_ms", "index.open_ms", "index.materialize_ms",
        "index.first_read_ms",
    ):
        values = [c[key] for c in cold if key in c]
        if values:
            outcome.extras[key] = (median(values), "ms")
    size = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    outcome.extras["index.bytes_per_table"] = (
        size / run.sizes.big_tables, "B")
    outcome.samples["cold_starts"] = len(cold)
    outcome.check(
        all(c["rows"] > 0 for c in cold), "a cold first answer had no rows"
    )

    queries = inputs.workload_queries(run.sizes.big_stride)
    with WWTService(path, config) as service:
        finish_in_process(
            run, outcome, tracer, service, queries,
            repeats(run, run.sizes.big_pass_s),
        )
    return outcome


def cold_start(run: Run, path: Path) -> Dict[str, float]:
    """Open ``path`` and answer the first query in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("coldstart.py")),
         str(run.root / "src"), str(path), FIRST_QUERY, str(int(run.trace))],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- ingest_live ----------------------------------------------------------


def ingest_live(run: Run) -> Outcome:
    """Writes beside reads: journaled adds, deletes and compaction.

    A round journals a fixed pool of synthetic tables in batches with two
    uncached queries after each batch, deletes the copies the round before
    it added (folded into the shards by then, so they leave tombstones)
    and compacts.  Every round sends the same tables (under fresh ids) and
    the same queries in the same order, so each operation meets the same
    corpus state in every round and its best time over the rounds is a
    fair estimate of its cost (see :func:`timed_passes`).  The seed
    decides which tables each batch holds.
    """
    outcome = Outcome()
    tracer = Tracer()
    sizes = run.sizes
    per_round = sizes.ingest_batches * sizes.ingest_batch_tables

    def build(rep: int, keep: bool) -> Any:
        path = run.scratch / f"live-{rep}"
        paper_corpus(run, tracer, rep, save=path)
        service = WWTService(path, UNCACHED)
        if not keep:
            service.close()
            shutil.rmtree(path)
        return service, path

    service, path = repeat_setup(run, outcome, build)
    everything = inputs.workload_queries()
    queries = everything[:: len(everything) // (2 * sizes.ingest_batches)][
        : 2 * sizes.ingest_batches
    ]
    pool = inputs.ingest_pool(run.seed, per_round)
    added: List[str] = []
    deleted: List[str] = []
    sent: List[str] = []
    query_ms: List[List[float]] = [[] for _ in queries]
    add_ms: List[List[float]] = [[] for _ in range(sizes.ingest_batches)]
    delete_ms: List[float] = []
    compact_ms: List[float] = []
    trace_id = 0

    def one_round(round_no: int, timed: bool) -> None:
        nonlocal trace_id
        previous = added[-per_round:]
        tables = [inputs.renamed(t, f"r{round_no}-") for t in pool]
        for b in range(sizes.ingest_batches):
            lo = b * sizes.ingest_batch_tables
            batch = tables[lo: lo + sizes.ingest_batch_tables]
            t0 = time.perf_counter()
            acknowledged = service.add_tables(batch)
            elapsed = time.perf_counter() - t0
            outcome.check(
                acknowledged == len(batch),
                f"add_tables acknowledged {acknowledged} of {len(batch)}",
            )
            added.extend(t.table_id for t in batch)
            sent.extend(
                f"add:{json.dumps(t.to_dict(), sort_keys=True)}" for t in batch
            )
            if timed:
                add_ms[b].append(elapsed * 1e3)
            # Query 2b always follows batch b: the first query after a
            # write pays the statistics re-derivation, and which query
            # that is must not change with the seed.
            for qi in (2 * b, 2 * b + 1):
                sent.append(f"query:{queries[qi]}")
                if run.trace and timed:
                    outcome.check(
                        trace_query(tracer, trace_id, service, queries[qi]),
                        f"replay of {queries[qi]} differs from the facade",
                    )
                    trace_id += 1
                    continue
                _, elapsed = answer_or_fail(outcome, service, queries[qi])
                if timed:
                    query_ms[qi].append(elapsed * 1e3)
        t0 = time.perf_counter()
        removed = service.delete_tables(previous)
        if timed:
            delete_ms.append((time.perf_counter() - t0) * 1e3)
        outcome.check(
            removed == len(previous),
            f"delete_tables removed {removed} of {len(previous)}",
        )
        deleted.extend(previous)
        sent.extend(f"delete:{table_id}" for table_id in previous)
        t0 = time.perf_counter()
        service.compact()
        if timed:
            compact_ms.append((time.perf_counter() - t0) * 1e3)

    try:
        rounds = repeats(run, sizes.ingest_round_s)
        for round_no in range(rounds + 1):
            one_round(round_no, timed=round_no > 0)  # round 0 warms up
        outcome.digests["requests"] = inputs.digest(sent)
        outcome.samples["rounds"] = rounds
        check_ingest(run, outcome, service, path, queries, added, deleted)

        add_best = [min(samples) for samples in add_ms]
        outcome.extras["ingest_tables_per_s"] = (
            per_round / (sum(add_best) / 1e3), "1/s")
        outcome.extras["compact_s"] = (min(compact_ms) / 1e3, "s")
        outcome.extras["index.journal_add_ms"] = (median(add_best), "ms")
        outcome.extras["index.delete_ms"] = (min(delete_ms), "ms")
        if run.trace:
            outcome.samples["traced_queries"] = trace_id
            layer_metrics(
                outcome, tracer, service, hit_path_ms(service, queries)
            )
            outcome.tracer = tracer
        else:
            best = [min(samples) for samples in query_ms]
            round_ms = (
                sum(best) + sum(add_best) + min(delete_ms) + min(compact_ms)
            )
            # The rate is per second of a whole round, writes included:
            # slower ingest or compaction lowers it.
            outcome.latency_metrics(best, round_ms / 1e3, rounds * len(best))
            outcome.metrics["peak_rss_mb"] = (rss_high_water_mib(), "MiB")
    finally:
        service.close()
    return outcome


def check_ingest(
    run: Run, outcome: Outcome, service: WWTService, path: Path,
    queries: Sequence[Query], added: Sequence[str], deleted: Sequence[str],
) -> None:
    """After the last compaction the live corpus equals a fresh rebuild,
    and a reopen finds every acknowledged add and no deleted id."""
    survivors = [service.corpus.get_table(i) for i in service.corpus.ids()]
    fresh = WWTService(build_corpus_index(survivors), UNCACHED)
    for qi in inputs.sample_indices(
        run.seed, "ingest", len(queries), run.sizes.ingest_checked
    ):
        live = service.answer_full(queries[qi], use_cache=False)
        rebuilt = fresh.answer_full(queries[qi], use_cache=False)
        outcome.check(
            answer_rows(live.answer) == answer_rows(rebuilt.answer),
            f"{queries[qi]}: live answer differs from a fresh rebuild",
        )
    gone = set(deleted)
    reopened = load_corpus(path)
    try:
        outcome.check(
            all(i in reopened for i in added if i not in gone),
            "a reopen lost an acknowledged add",
        )
        outcome.check(
            not any(i in reopened for i in gone),
            "a reopen resurrected a deleted table",
        )
    finally:
        reopened.close()
