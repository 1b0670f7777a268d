# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""The ``serve_zipf`` workload: the engine behind ``python -m repro serve``.

The server is a second process with its default caches; this process is
the load generator: one keep-alive connection in a closed loop.  A pass is
a freshly built index directory, a freshly started server, a dozen untimed
warm requests and the timed list: a fixed set of queries once each plus
nine times as many Zipf(0.6) draws over a seeded popularity ranking of the
same queries, shuffled.  A query's first request misses the server's
result cache and the later ones hit: nine requests in ten hit, so the
median latency sits on the hit path (HTTP parse, admission, worker
hand-off, LRU) and the 95th percentile and the rate on the miss path (the
engine).  A run makes one pass per set-up repetition, every pass with the
same list, and reports each request at its best over the passes, as the
in-process workloads do.  The list is the same work for every seed, in
another order.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.query import Query
from repro.serve import ServeClient, answer_payload
from repro.service import EngineConfig, WWTService

from . import inputs
from .measure import Tracer, median, percentile, rss_high_water_mib
from .replay import trace_query
from .workloads import (
    UNCACHED, Outcome, Run, layer_metrics, paper_corpus, ratio,
)

__all__ = ["serve_zipf"]

#: Worker threads of the server (``repro serve --workers``).  The load
#: generator holds one connection, because two are not steady on a 2-core
#: host: while one connection's miss holds the server's interpreter lock,
#: the other's cache hits wait for 5 ms switch intervals or do not, by the
#: hair of the scheduling, and the median round trip jumped between 6 and
#: 20 ms from run to run (spread 0.8).  Two connections were also slower
#: in total (34 against 40 requests/s).
WORKERS = 2
#: A request slower than this fails the run instead of hanging it.
SOCKET_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0


class Server:
    """``python -m repro serve`` as a child process on an ephemeral port."""

    def __init__(self, run: Run, index: Path, log: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--index", str(index), "--port", "0",
             "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, stderr=self._log, env=env, text=True,
        )
        try:
            self.host, self.port = self._read_banner()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_banner(self) -> Tuple[str, int]:
        """The server prints the port it bound (``--port 0`` is ephemeral)."""
        deadline = time.monotonic() + START_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} "
                    "before it was ready"
                )
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("serving on http://"):
                    host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError("server did not announce its port in time")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            self.check_alive()
            try:
                with ServeClient(self.host, self.port, timeout_s=5.0) as c:
                    if c.healthz()[0] == 200:
                        return
            except OSError:
                time.sleep(0.05)
        raise RuntimeError("server never answered /healthz")

    def check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited early with code {self.proc.returncode}"
            )

    def stop(self) -> None:
        """Terminate the server and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def send(server: Server, texts: List[str]) -> List[Dict[str, Any]]:
    """Closed loop over one keep-alive connection: each request is sent
    when the reply to the one before has arrived."""
    records: List[Dict[str, Any]] = []
    try:
        with ServeClient(
            server.host, server.port, timeout_s=SOCKET_TIMEOUT_S
        ) as client:
            for text in texts:
                t0 = time.perf_counter()
                status, _, body = client.query({"query": text})
                records.append({
                    "status": status, "start_s": t0,
                    "end_s": time.perf_counter(), "body": body,
                })
    except (OSError, http.client.HTTPException) as exc:
        server.check_alive()  # an early exit is the better explanation
        raise RuntimeError(f"request {len(records)} failed: {exc!r}") from exc
    return records


def serve_zipf(run: Run) -> Outcome:
    """Zipf traffic over HTTP against a served, persisted paper corpus.

    Load generator and server share one CPU for the length of the run (the
    server inherits this process's affinity).  With one closed-loop
    connection the two never compute at the same time, so nothing is lost,
    and no hand-over between them has to wake another, idle CPU: left to
    the scheduler, the median round trip of a whole run read 0.5 or 1.0 ms
    by where it happened to place the two.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    try:
        return one_cpu_serve_zipf(run)
    finally:
        os.sched_setaffinity(0, before)


def one_cpu_serve_zipf(run: Run) -> Outcome:
    """One pass per set-up repetition, each against its own server."""
    outcome = Outcome()
    tracer = Tracer()
    sizes = run.sizes
    texts = inputs.query_population()
    warm, timed = inputs.zipf_stream(
        run.seed, texts, sizes.zipf_warm,
        max(1, round(
            sizes.zipf_misses_per_second * run.seconds / sizes.setup_reps)),
        sizes.zipf_repeats,
    )
    outcome.digests["requests"] = inputs.digest(warm + timed)
    passes: List[List[Dict[str, Any]]] = []
    stats: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    setup_s: List[float] = []
    rss_mib: List[float] = []
    for rep in range(sizes.setup_reps):
        last = rep == sizes.setup_reps - 1
        start = time.perf_counter()
        index = run.scratch / f"served-{rep}"
        paper_corpus(run, tracer, rep, save=index)
        server = Server(run, index, run.scratch / f"server-{rep}.log")
        try:
            setup_s.append(time.perf_counter() - start)
            send(server, warm)
            with ServeClient(server.host, server.port) as client:
                before = client.stats()[2]
                passes.append(send(server, timed))
                stats.append((before, client.stats()[2]))
                if last:
                    check_payloads(run, outcome, client, index, texts)
            server.check_alive()
            rss_mib.append(rss_high_water_mib(server.proc.pid))
        finally:
            server.stop()
        if not last:
            shutil.rmtree(index)
    outcome.metrics["setup_s"] = (median(setup_s), "s")
    outcome.samples["setup_s"] = outcome.samples["passes"] = len(passes)
    served = summarise(run, outcome, tracer, passes, stats)
    if run.trace:
        # The miss path's layers, replayed in this process over the very
        # directory the last server served.
        with WWTService(index, UNCACHED) as local:
            picked = inputs.sample_indices(
                run.seed, "layers", len(texts), sizes.zipf_checked
            )
            for qi in picked:  # untimed: lazy rows parsed, code warm
                local.answer(texts[qi])
            outcome.samples["traced_queries"] = len(picked)
            for trace_id, qi in enumerate(picked):
                same = trace_query(
                    tracer, 10 ** 6 + trace_id, local, Query.parse(texts[qi]),
                )
                outcome.check(
                    same, f"replay of {texts[qi]} differs from the facade"
                )
            # The server's own hit path, cache and degradation figures
            # stand in for those of the replay service.
            hit_ms, _ = served.pop("service.hit_path_ms")
            layer_metrics(outcome, tracer, local, hit_ms)
        outcome.metrics.update(served)
        outcome.tracer = tracer
    else:
        outcome.metrics["peak_rss_mb"] = (median(rss_mib), "MiB")
    return outcome


def summarise(
    run: Run, outcome: Outcome, tracer: Tracer,
    passes: List[List[Dict[str, Any]]],
    stats: List[Tuple[Dict[str, Any], Dict[str, Any]]],
) -> Dict[str, Tuple[float, str]]:
    """Latency, failures and the serve-layer figures of the timed passes.

    The host's speed drifts by a fifth over minutes and it only ever adds
    time, so a request's round trip is taken as its best over the passes
    (every pass sends the same list to a fresh server, so the n-th request
    meets the same cache state in each); the percentiles run over the
    requests of one pass, and the rate is that of one pass at those times.

    Returns the server's own figures for the per-layer metrics that the
    in-process workloads read off their service object.
    """
    best_ms: List[float] = [float("inf")] * len(passes[0])
    overhead_ms: List[float] = []
    queue_ms: List[float] = []
    hit_ms: List[float] = []
    refused = degraded = hits = answered = sent = 0
    reference = None
    for pass_no, records in enumerate(passes):
        answers: List[str] = []
        for slot, record in enumerate(records):
            status, body = record["status"], record["body"]
            sent += 1
            refused += status in (429, 503)
            if not outcome.check(status == 200, f"HTTP {status}: {body}"):
                continue
            serving = body["serving"]
            degraded += bool(serving["degraded"])
            outcome.check(
                not serving["degraded"], "a served answer came back degraded"
            )
            answers.append(json.dumps(body["answer"], sort_keys=True))
            rtt = (record["end_s"] - record["start_s"]) * 1e3
            answered += 1
            best_ms[slot] = min(best_ms[slot], rtt)
            queue_ms.append(serving["queue_ms"])
            overhead_ms.append(
                rtt - serving["queue_ms"] - serving["served_in_ms"])
            if serving["cache_hit"]:
                hits += 1
                hit_ms.append(serving["served_in_ms"])
            if run.trace:
                # The server's own measurements become child spans, so
                # the root's self time is the HTTP overhead.
                ordinal = pass_no * len(records) + slot
                root = tracer.record(
                    "serve.http", ordinal, None,
                    record["start_s"], record["end_s"],
                )
                served_from = record["end_s"] - serving["served_in_ms"] / 1e3
                tracer.record(
                    "serve.queue", ordinal, root,
                    served_from - serving["queue_ms"] / 1e3, served_from,
                )
                tracer.record(
                    "service.served", ordinal, root,
                    served_from, record["end_s"],
                )
        digest = inputs.digest(answers)
        if reference is None:
            reference = digest
        outcome.check(
            digest == reference,
            f"pass {pass_no + 1} was served other answers than pass 1",
        )
    outcome.digests["answers"] = reference or ""
    best_ms = [ms for ms in best_ms if ms != float("inf")]
    outcome.latency_metrics(best_ms, sum(best_ms) / 1e3, answered)
    extras = outcome.extras
    extras["serve.http_overhead_ms"] = (median(overhead_ms), "ms")
    extras["serve.http_overhead_p95_ms"] = (percentile(overhead_ms, 0.95), "ms")
    extras["serve.queue_ms"] = (median(queue_ms), "ms")
    extras["serve.queue_p95_ms"] = (percentile(queue_ms, 0.95), "ms")
    extras["serve.refused_ratio"] = (ratio(refused, sent), "ratio")
    extras["serve.hit_ratio"] = (ratio(hits, answered), "ratio")

    def cache_ratio(cache: str) -> float:
        found, missed = (
            sum(after["service"][cache][key] - before["service"][cache][key]
                for before, after in stats)
            for key in ("hits", "misses")
        )
        return ratio(found, found + missed)

    return {
        "service.hit_path_ms": (median(hit_ms), "ms"),
        "service.result_cache_hit_ratio": (cache_ratio("result_cache"), "ratio"),
        "service.probe_cache_hit_ratio": (cache_ratio("probe_cache"), "ratio"),
        "service.degraded_ratio": (ratio(degraded, sent), "ratio"),
    }


def check_payloads(
    run: Run, outcome: Outcome, client: ServeClient, index: Path,
    texts: List[str],
) -> None:
    """A seeded sample of served answers is byte-identical to the answers
    this process computes itself over the same directory."""
    picked = inputs.sample_indices(
        run.seed, "payloads", len(texts), run.sizes.zipf_checked
    )
    with WWTService(index, EngineConfig()) as local:
        for qi in picked:
            status, _, body = client.query({"query": texts[qi]})
            expected = answer_payload(local.answer(texts[qi]))
            served = body.get("answer") if status == 200 else None
            outcome.check(
                json.dumps(served, sort_keys=True)
                == json.dumps(expected, sort_keys=True),
                f"{texts[qi]}: served payload differs from the in-process one",
            )
