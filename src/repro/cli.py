"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``query``    answer a column-keyword query against a generated corpus
``batch``    answer many queries through the service, in order, cached
``corpus``   generate a corpus and print its census / save the table store
``index``    ``build`` a persisted corpus of N >= 1 shards; ``add``
             journal new tables into it; ``compact`` fold the journal into
             fresh snapshots; ``info`` describe it; ``verify`` scrub every
             shard offline (checksums + full decode, exit 1 on corruption);
             ``repair`` re-derive corrupt index snapshots from each shard's
             intact ``tables.jsonl``
``eval``     run one or more methods over the 59-query workload
``workload`` list the workload queries with their Table 1 statistics
``serve``    expose the service over HTTP/JSON (see DESIGN.md,
             "Serving layer"): ``repro serve --index DIR --port 8080
             --workers 4 --queue-depth 64 --rate-limit 50`` starts the
             :class:`repro.serve.ReproServer` front door with admission
             control and per-request deadlines; Ctrl-C drains and exits

``query`` and ``batch`` are fronted by :class:`repro.service.WWTService`;
``--config`` loads a JSON :class:`~repro.service.EngineConfig`, and
``--index`` serves a corpus persisted by ``index build`` instead of
generating one.  ``query --trace`` prints the execution span tree
(stage, ms, skipped/degraded markers) and ``batch --deadline-ms``
serves every query under a wall-clock budget with graceful degradation
(see DESIGN.md, "Execution engine").  The incremental flow is
``index build`` once, then
``index add`` as new tables arrive, then ``index compact`` when the
journal is deep (see DESIGN.md, "Incremental updates")::

    python -m repro index build --out corpus-dir --num-shards 4
    python -m repro index add corpus-dir --scale 0.05 --prefix live-
    python -m repro index compact corpus-dir
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .corpus.generator import CorpusConfig, generate_corpus
from .evaluation.harness import METHODS, build_environment, run_method
from .exec.context import wall_clock
from .index.builder import read_manifest
from .index.store import TableStore
from .inference import REGISTRY
from .query.workload import WORKLOAD
from .serve import ReproServer, ServeConfig
from .service import EngineConfig, QueryRequest, WWTService

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WWT reproduction: table queries with column keywords",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_service_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", type=float, default=0.4,
                       help="corpus scale factor (default 0.4)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--inference", default="table-centric",
                       choices=REGISTRY.names())
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON EngineConfig file (overrides --inference)")
        p.add_argument("--index", metavar="DIR", default=None,
                       help="serve a persisted corpus directory "
                            "(see 'index build') instead of generating one")

    query = sub.add_parser("query", help="answer a column-keyword query")
    query.add_argument("text", help='e.g. "country | currency"')
    add_service_options(query)
    query.add_argument("--rows", type=int, default=15,
                       help="answer rows to print (page size)")
    query.add_argument("--page", type=int, default=1,
                       help="1-based page of answer rows")
    query.add_argument("--explain", action="store_true",
                       help="print the probe/mapping explain payload")
    query.add_argument("--trace", action="store_true",
                       help="print the execution span tree (stage, ms, "
                            "degraded markers)")

    batch = sub.add_parser(
        "batch", help="answer many queries via the service (batch + cache)"
    )
    batch.add_argument("texts", nargs="+", metavar="QUERY",
                       help='queries, e.g. "country | currency" "dog breed"')
    add_service_options(batch)
    batch.add_argument("--repeat", type=int, default=1,
                       help="repeat the query list N times (cache demo)")
    batch.add_argument("--deadline-ms", type=float, default=None,
                       help="per-query wall-clock budget in ms; queries "
                            "that exceed it return degraded partial "
                            "answers (see DESIGN.md, 'Execution engine')")

    index = sub.add_parser(
        "index", help="build / inspect a persisted corpus"
    )
    isub = index.add_subparsers(dest="index_command", required=True)
    build = isub.add_parser(
        "build", help="generate, shard, and persist a corpus directory"
    )
    build.add_argument("--out", metavar="DIR", required=True,
                       help="output corpus directory")
    build.add_argument("--scale", type=float, default=1.0,
                       help="corpus scale factor (default 1.0)")
    build.add_argument("--seed", type=int, default=42)
    build.add_argument("--num-shards", type=int, default=1,
                       help="hash-partition across N shards (default 1)")
    build.add_argument("--tables", type=int, default=None, metavar="N",
                       help="build from N fast synthetic tables (zipfian "
                            "sizes, domain mixing) streamed straight to "
                            "disk in O(shard) memory, instead of the "
                            "HTML-extraction corpus shaped by --scale")
    build.add_argument("--stream", action="store_true",
                       help="stream the extraction corpus to disk in "
                            "O(shard) memory (implied by --tables)")
    add = isub.add_parser(
        "add", help="generate fresh tables and journal them into a corpus"
    )
    add.add_argument("path", metavar="DIR", help="corpus directory")
    add.add_argument("--scale", type=float, default=0.05,
                     help="scale of the freshly generated stream "
                          "(default 0.05)")
    add.add_argument("--seed", type=int, default=7)
    add.add_argument("--prefix", default="live-",
                     help="table-id prefix for the new tables; page ids "
                          "are deterministic, so a distinct prefix keeps "
                          "them from colliding with the built corpus "
                          "(default 'live-')")
    compact = isub.add_parser(
        "compact", help="fold the journal into fresh shard snapshots"
    )
    compact.add_argument("path", metavar="DIR", help="corpus directory")
    info = isub.add_parser("info", help="describe a persisted corpus")
    info.add_argument("path", metavar="DIR", help="corpus directory")
    verify = isub.add_parser(
        "verify", help="offline scrub: checksum + decode every shard "
                       "(exit 1 on corruption)"
    )
    verify.add_argument("path", metavar="DIR", help="corpus directory")
    verify.add_argument("--json", action="store_true", dest="as_json",
                        help="print the report as JSON")
    repair = isub.add_parser(
        "repair", help="re-derive corrupt index snapshots from each "
                       "shard's intact tables.jsonl"
    )
    repair.add_argument("path", metavar="DIR", help="corpus directory")
    repair.add_argument("--json", action="store_true", dest="as_json",
                        help="print the report as JSON")

    corpus = sub.add_parser("corpus", help="generate a corpus, print census")
    corpus.add_argument("--scale", type=float, default=1.0)
    corpus.add_argument("--seed", type=int, default=42)
    corpus.add_argument("--save", metavar="PATH", default=None,
                        help="write the table store as JSON-lines")

    evaluate = sub.add_parser("eval", help="run methods over the workload")
    evaluate.add_argument("--methods", nargs="+", default=["basic", "wwt"],
                          choices=list(METHODS))
    evaluate.add_argument("--scale", type=float, default=1.0)
    evaluate.add_argument("--seed", type=int, default=42)

    sub.add_parser("workload", help="list the 59 workload queries")

    serve = sub.add_parser(
        "serve", help="serve queries over HTTP/JSON with admission control"
    )
    add_service_options(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default loopback)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 binds an ephemeral port")
    serve.add_argument("--workers", type=int, default=4,
                       help="requests running the engine at once")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="bounded request-queue depth (full -> 429)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="per-client sustained rate in req/s "
                            "(default: no rate limiting)")
    serve.add_argument("--burst", type=int, default=10,
                       help="per-client token-bucket burst capacity")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline in ms; requests "
                            "over budget shed to degraded answers "
                            "(see DESIGN.md, 'Serving layer')")
    return parser


def _build_service(args: argparse.Namespace) -> WWTService:
    """Corpus + EngineConfig -> service, honoring --config/--inference/--index.

    Corpus precedence: ``--index DIR`` (persisted corpus), then the
    config's ``index_path``, then a freshly generated synthetic corpus.
    """
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = EngineConfig.from_dict(json.load(fh))
    else:
        config = EngineConfig(inference=args.inference)
    if getattr(args, "deadline_ms", None) is not None:
        config = config.replace(deadline_ms=args.deadline_ms)

    def _warn_ignored_corpus_flags(source: str) -> None:
        # A persisted corpus has its scale/seed baked in; flags that shape
        # a generated corpus silently doing nothing would be a footgun.
        if args.scale != 0.4 or args.seed != 42:
            print(
                f"note: serving persisted corpus from {source}; "
                "--scale/--seed only affect generated corpora and were "
                "ignored",
                file=sys.stderr,
            )

    if args.index:
        _warn_ignored_corpus_flags(args.index)
        return WWTService(args.index, config)
    if config.index_path:
        _warn_ignored_corpus_flags(config.index_path)
        return WWTService(config=config)
    synthetic = generate_corpus(CorpusConfig(seed=args.seed, scale=args.scale))
    return WWTService(synthetic.corpus, config)


def _cmd_query(args: argparse.Namespace, out: TextIO) -> int:
    service = _build_service(args)
    # Explain is always computed (it is cheap) so the summary line can show
    # candidate counts; the full payload prints only under --explain.
    request = QueryRequest.parse(
        args.text, page=args.page, page_size=args.rows, explain=True
    )
    response = service.answer(request)
    print(f"query: {response.query}", file=out)
    explain = response.explain or {}
    degraded = "  DEGRADED" if response.degraded else ""
    print(
        f"candidates: {explain.get('num_candidates', '?')}  "
        f"algorithm: {response.algorithm}  "
        f"time: {response.timing.total:.2f}s{degraded}",
        file=out,
    )
    if args.trace and response.trace is not None:
        print("\ntrace:", file=out)
        for line in response.trace.format_tree(indent=1):
            print(line, file=out)
        print("", file=out)
    header = response.header
    print(" | ".join(header), file=out)
    print("-" * (sum(len(h) for h in header) + 3 * len(header)), file=out)
    for row in response.rows:
        print(" | ".join(row.cells) + f"   (x{row.support})", file=out)
    print(
        f"page {response.page}/{response.num_pages} "
        f"({response.total_rows} rows total)",
        file=out,
    )
    if args.explain:
        print("\nexplain:", file=out)
        print(json.dumps(explain, indent=2, default=str), file=out)
    return 0


def _cmd_batch(args: argparse.Namespace, out: TextIO) -> int:
    service = _build_service(args)
    requests = [
        QueryRequest.parse(text)
        for _ in range(max(1, args.repeat))
        for text in args.texts
    ]
    responses = service.answer_batch(requests)
    for response in responses:
        marker = "cache" if response.cache_hit else f"{response.served_in:.3f}s"
        degraded = "  (degraded)" if response.degraded else ""
        print(
            f"[{marker:>8}] {str(response.query):<44} "
            f"{response.total_rows:>4} rows{degraded}",
            file=out,
        )
    stats = service.stats()
    cache = stats.result_cache
    print(
        f"\n{stats.queries} queries in {stats.total_time:.2f}s — "
        f"result cache: {cache.hits} hits / {cache.misses} misses "
        f"({cache.hit_rate:.0%})",
        file=out,
    )
    if args.deadline_ms is not None:
        print(
            f"deadline {args.deadline_ms:g}ms: "
            f"{stats.deadline_hits} deadline hits, "
            f"{stats.degraded_answers} degraded answers",
            file=out,
        )
    return 0


def _cmd_corpus(args: argparse.Namespace, out: TextIO) -> int:
    synthetic = generate_corpus(CorpusConfig(seed=args.seed, scale=args.scale))
    census = synthetic.census
    print(f"pages: {len(synthetic.pages)}", file=out)
    print(f"data tables: {synthetic.num_tables} "
          f"({census.yield_fraction:.0%} of table tags)", file=out)
    total = sum(census.header_row_histogram.values())
    for k in sorted(census.header_row_histogram):
        count = census.header_row_histogram[k]
        label = {0: "no header", 1: "1 header row", 2: "2 header rows",
                 3: ">2 header rows"}[k]
        print(f"  {label:<15} {count:>5}  ({count / total:.0%})", file=out)
    if args.save:
        TableStore(synthetic.corpus).save(args.save)
        print(f"table store written to {args.save}", file=out)
    return 0


def _cmd_index(args: argparse.Namespace, out: TextIO) -> int:
    if args.index_command == "build":
        if args.tables is not None or args.stream:
            # Streaming build: tables go straight to the staged shard
            # files, one shard in memory at a time (build_corpus_stream);
            # counts come from the written manifest, not a reload.
            from .corpus.generator import iter_synthetic_tables, iter_tables
            from .index.builder import build_corpus_stream

            tables = (
                iter_synthetic_tables(args.tables, seed=args.seed)
                if args.tables is not None
                else iter_tables(CorpusConfig(seed=args.seed,
                                              scale=args.scale))
            )
            t0 = wall_clock()
            build_corpus_stream(tables, args.out, num_shards=args.num_shards)
            build_s = wall_clock() - t0
            manifest = read_manifest(args.out)
            print(
                f"{manifest['num_tables']} tables -> {args.num_shards}-shard "
                f"corpus at {args.out} (streamed)", file=out,
            )
            print(f"stream+index+persist {build_s:.2f}s", file=out)
            return 0
        t0 = wall_clock()
        synthetic = generate_corpus(
            CorpusConfig(seed=args.seed, scale=args.scale),
            num_shards=args.num_shards,
        )
        corpus = synthetic.corpus
        generate_s = wall_clock() - t0
        t0 = wall_clock()
        corpus.save(args.out)
        persist_s = wall_clock() - t0
        print(f"{corpus.num_tables} tables -> {args.num_shards}-shard corpus "
              f"at {args.out}", file=out)
        print(f"shard sizes: {corpus.shard_sizes()}", file=out)
        print(f"generate+index {generate_s:.2f}s, persist {persist_s:.2f}s",
              file=out)
        return 0

    if args.index_command == "add":
        from .corpus.generator import iter_tables
        from .index.sharded import load_corpus

        with load_corpus(args.path) as corpus:
            t0 = wall_clock()
            tables = list(iter_tables(
                CorpusConfig(seed=args.seed, scale=args.scale),
                id_prefix=args.prefix,
            ))
            generate_s = wall_clock() - t0
            t0 = wall_clock()
            corpus.add_tables(tables)
            append_s = wall_clock() - t0
            print(f"journaled {len(tables)} tables into {args.path} "
                  f"(generate {generate_s:.2f}s, append {append_s:.2f}s)",
                  file=out)
            print(f"num_tables: {corpus.num_tables}", file=out)
            print(f"journal_depth: {corpus.journal_depth}", file=out)
        return 0

    if args.index_command == "compact":
        from .index.sharded import load_corpus

        with load_corpus(args.path) as corpus:
            t0 = wall_clock()
            folded = corpus.compact()
            compact_s = wall_clock() - t0
            print(f"folded {folded} journal records into fresh snapshots "
                  f"at {args.path} in {compact_s:.2f}s", file=out)
            print(f"num_tables: {corpus.num_tables}", file=out)
            print(f"journal_depth: {corpus.journal_depth}", file=out)
        return 0

    if args.index_command in ("verify", "repair"):
        from .index.scrub import repair_corpus, verify_corpus

        if args.index_command == "verify":
            report = verify_corpus(args.path)
        else:
            report = repair_corpus(args.path)
        if args.as_json:
            print(json.dumps(report.to_dict(), indent=2), file=out)
        else:
            print(
                f"{args.path}: {report.shards_checked} shards checked",
                file=out,
            )
            for name in report.repaired:
                print(f"  repaired {name}: index snapshot re-derived from "
                      "tables.jsonl", file=out)
            for issue in report.issues:
                where = issue.shard or "corpus"
                flag = " [repairable]" if issue.repairable else ""
                print(f"  {where} {issue.kind}{flag}: {issue.message}",
                      file=out)
            if report.ok:
                print("  ok: every artifact verified", file=out)
        # Verify reports corruption through the exit code (scriptable);
        # repair fails only when unrepairable damage remains.
        return 0 if report.ok else 1

    # `index info` prints the on-disk spec's field names verbatim
    # (DESIGN.md, "On-disk corpus format, version 3") so the output can be
    # checked against the spec mechanically.
    from .index.journal import journal_depth_on_disk

    manifest = read_manifest(args.path)
    for key in ("format", "version", "kind", "num_shards", "num_tables",
                "journal_seq"):
        print(f"{key}: {manifest[key]}", file=out)
    print(f"journal_depth: {journal_depth_on_disk(args.path, manifest)}",
          file=out)
    print(f"boosts: {manifest['boosts']}", file=out)
    total_bytes = sum(
        f.stat().st_size for f in Path(args.path).rglob("*") if f.is_file()
    )
    for entry in manifest["shards"]:
        print(f"  {entry['dir']}: {entry['num_tables']} tables, index "
              f"{entry['index_bytes']} bytes (crc32 "
              f"{entry['index_crc32']:#010x})", file=out)
    print(f"size on disk: {total_bytes / 1024:.0f} KiB", file=out)
    return 0


def _cmd_eval(args: argparse.Namespace, out: TextIO) -> int:
    env = build_environment(scale=args.scale, seed=args.seed)
    print(f"corpus: {env.synthetic.num_tables} tables; "
          f"{len(env.queries)} queries", file=out)
    for method in args.methods:
        run = run_method(env, method)
        print(f"{method:<18} mean F1 error {run.mean_error():6.2f}%", file=out)
    return 0


def _build_server(args: argparse.Namespace) -> ReproServer:
    """Service + ServeConfig -> an unstarted server (exposed for tests)."""
    service = _build_service(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate_limit=args.rate_limit,
        rate_burst=args.burst,
        default_deadline_ms=args.deadline_ms,
    )
    return ReproServer(service, config)


def _cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    server = _build_server(args).start()
    try:
        # The real bound port (--port 0 binds an ephemeral one), flushed
        # eagerly so a parent process can scrape it and start talking.
        print(f"serving on http://{server.host}:{server.port}", file=out)
        out.flush()
        server.wait()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight work)", file=out)
    finally:
        server.shutdown()
    return 0


def _cmd_workload(args: argparse.Namespace, out: TextIO) -> int:
    print(f"{'query':<60} {'cols':>4} {'paper rel/total':>16}", file=out)
    for wq in WORKLOAD:
        print(
            f"{wq.query_id:<60} {wq.query.q:>4} "
            f"{wq.paper_relevant:>8}/{wq.paper_total}",
            file=out,
        )
    return 0


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """CLI entry point; returns an exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "batch": _cmd_batch,
        "corpus": _cmd_corpus,
        "index": _cmd_index,
        "eval": _cmd_eval,
        "workload": _cmd_workload,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args, out)
    except (ValueError, OSError) as exc:
        # Bad query text, invalid --page/--rows, unreadable/invalid
        # --config files: a CLI error line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
