"""The HTTP front door: bounded queue, worker pool, SLO-driven shedding.

:class:`ReproServer` wraps a :class:`~repro.service.WWTService` behind a
stdlib ``ThreadingHTTPServer``.  The request lifecycle is::

    handler thread (per connection)          worker pool (fixed width)
    ------------------------------           -------------------------
    parse + validate body        --+
    rate-limit (token bucket)      |  429 + Retry-After on refusal
    enqueue into bounded queue   --+  429 + Retry-After when full
    wait on the job's future   <-----  drain queue, deduct queue wait
                                       from the deadline, run the
                                       engine (shed to degraded under
                                       pressure), resolve the future
    serialize the envelope

Handler threads only do socket I/O and waiting; the worker pool is the
*execution* concurrency bound, and the bounded queue is the only place
requests wait — so memory under overload is capped at
``queue_depth + workers`` in-flight requests and everything beyond that
is told to back off instead of queueing to death.

Deadlines are end-to-end: a request's ``deadline_ms`` (or the config's
default) covers queue wait plus execution.  Time spent queued is
deducted before the engine runs, so a request that waited out most of
its budget executes under a near-zero budget and comes back degraded
(flagged in the envelope) rather than blowing the SLO or timing out.

An engine error fails its request: the client gets a 500 ``internal``
envelope carrying the error's message (a torn shard's names its file),
and ``/stats`` counts it in ``errors_internal``.

Shutdown is graceful: new work is refused with 503, queued work drains
through the workers, then the listener closes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import queue
import threading
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
)

from ..exec.context import wall_clock
from ..exec.stats import Stats
from ..faults.injection import POINT_SERVE_WORKER, trip
from ..service.facade import ServiceStats
from ..service.types import QueryRequest, QueryResponse
from .admission import RateLimiter
from .config import ServeConfig
from .protocol import (
    ERROR_BAD_JSON,
    ERROR_BODY_TOO_LARGE,
    ERROR_INTERNAL,
    ERROR_METHOD_NOT_ALLOWED,
    ERROR_NOT_FOUND,
    ERROR_QUEUE_FULL,
    ERROR_RATE_LIMITED,
    ERROR_SHUTTING_DOWN,
    ServeError,
    error_envelope,
    parse_query_payload,
    response_envelope,
)
from .stats import ServerStats

__all__ = ["AnswerService", "ReproServer"]

#: Smallest budget handed to the engine once queue wait consumed the
#: request's deadline: small enough that every between-stage check fires
#: (maximal shedding), positive so the context accepts it.
MIN_BUDGET_MS = 0.01

#: Refusal code -> the ``ServerStats`` count it lands in (anything else
#: is a malformed request).
_REFUSAL_COUNTS = {
    ERROR_QUEUE_FULL: "rejected_queue_full",
    ERROR_RATE_LIMITED: "rejected_rate_limited",
    ERROR_SHUTTING_DOWN: "rejected_shutdown",
}


class AnswerService(Protocol):
    """What the server needs from the engine — the ``WWTService`` surface.

    A Protocol rather than the concrete class so tests can stand in a
    stub (e.g. one that blocks on an event to make queue states
    deterministic).
    """

    def answer(self, request: QueryRequest) -> QueryResponse:
        """Answer one request."""
        ...  # pragma: no cover - protocol stub

    def stats(self) -> ServiceStats:
        """Snapshot the engine's serving counters."""
        ...  # pragma: no cover - protocol stub


@dataclasses.dataclass
class _Job:
    """One admitted request travelling from handler to worker."""

    request: QueryRequest
    #: Resolves to ``(response, queue_ms)`` or an exception.
    future: Future[Tuple[QueryResponse, float]]
    #: Clock reading at admission (queue-wait measurement origin).
    enqueued_at: float
    #: End-to-end budget (request's, else the config default); ``None``
    #: means unbounded.
    deadline_ms: Optional[float]


class _HTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying a back-reference to the front door."""

    daemon_threads = True
    allow_reuse_address = True
    #: Handler threads must not block process exit / server_close.
    block_on_close = False
    #: The owning :class:`ReproServer`; set right after construction.
    repro: ReproServer


class _Handler(BaseHTTPRequestHandler):
    """Per-connection request handler: routing, admission, serialization."""

    protocol_version = "HTTP/1.1"
    #: Drop idle keep-alive connections instead of pinning threads.
    timeout = 30
    #: Headers and body go out as separate writes; with Nagle on, the
    #: second segment stalls behind the peer's delayed ACK (~40ms per
    #: response on Linux).  TCP_NODELAY sends both immediately.
    disable_nagle_algorithm = True
    server: _HTTPServer

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default per-request stderr line (stats endpoint and
        the server's counters are the observability surface)."""

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        retry_after_s: Optional[float] = None,
    ) -> None:
        """Write one JSON response with correct framing."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after_s))))
        if self.close_connection:
            # Say so: a keep-alive client that is not told reuses the
            # connection, and its next request dies against the close.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, exc: ServeError) -> None:
        """Write a :class:`ServeError`'s envelope and drop the connection.

        The request body may be unread at refusal time, which would
        desynchronize HTTP/1.1 keep-alive framing — closing is the safe
        exit.
        """
        self.close_connection = True
        self._send_json(exc.status, exc.envelope(), exc.retry_after_s)

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:
        """``/healthz`` and ``/stats`` — served inline (never queued), so
        they stay responsive while the worker pool is saturated."""
        front = self.server.repro
        if self.path == "/healthz":
            status, payload = front.health_payload()
            self._send_json(status, payload)
            return
        if self.path == "/stats":
            self._send_json(200, front.stats_payload())
            return
        if self.path == "/query":
            self._refuse(ServeError(
                ERROR_METHOD_NOT_ALLOWED, "use POST /query", status=405,
            ))
            return
        self._refuse(ServeError(
            ERROR_NOT_FOUND, f"no resource at {self.path}", status=404,
        ))

    def do_POST(self) -> None:
        """``POST /query`` — the admission pipeline described in the
        module docstring."""
        front = self.server.repro
        if self.path != "/query":
            self._refuse(ServeError(
                ERROR_NOT_FOUND, f"no resource at {self.path}", status=404,
            ))
            return
        client = self.headers.get(
            front.config.client_header, self.client_address[0]
        )
        try:
            raw = self._read_body()
            response, queue_ms = front.admit(client, raw)
        except ServeError as exc:
            front.count_refusal(exc)
            self._refuse(exc)
            return
        except Exception as exc:  # reprolint: disable=R008 -- engine bug surfaced through the future, already counted in errors_internal by the worker; this handler only serializes the 500
            self.close_connection = True
            self._send_json(
                500, error_envelope(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}")
            )
            return
        self._send_json(200, response_envelope(response, queue_ms))

    def _read_body(self) -> bytes:
        """Read the request body, enforcing presence and the size cap."""
        front = self.server.repro
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header) if length_header is not None else 0
        except ValueError as exc:
            raise ServeError(
                ERROR_BAD_JSON, f"invalid Content-Length: {length_header!r}"
            ) from exc
        if length <= 0:
            raise ServeError(ERROR_BAD_JSON, "empty request body")
        if length > front.config.max_body_bytes:
            raise ServeError(
                ERROR_BODY_TOO_LARGE,
                f"request body of {length} bytes exceeds the "
                f"{front.config.max_body_bytes}-byte limit",
                status=413,
            )
        return self.rfile.read(length)


class ReproServer:
    """The serving front door over one engine.

    ::

        service = WWTService("corpus-dir")
        with ReproServer(service, ServeConfig(port=0, workers=4)) as server:
            print(f"listening on {server.base_url}")
            server.wait()      # until shutdown() or KeyboardInterrupt

    ``clock`` is injectable (the ``repro.exec.context`` seam) so
    queue-wait deduction and uptime are testable on a fake clock.
    """

    def __init__(
        self,
        service: AnswerService,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServeConfig()
        self._clock = clock
        self._started_at = clock()
        #: Admission outcomes, the in-flight gauge and worker latencies
        #: (count names are :class:`ServerStats` field names).
        self._stats = Stats()
        self._limiter = (
            RateLimiter(
                rate=self.config.rate_limit,
                burst=self.config.rate_burst,
                max_clients=self.config.rate_clients,
                clock=clock,
            )
            if self.config.rate_limit is not None else None
        )
        #: Bounded admission queue; ``None`` entries are the shutdown
        #: sentinels that release the workers after the drain.
        self._queue: queue.Queue[Optional[_Job]] = queue.Queue(
            maxsize=self.config.queue_depth
        )
        self._workers: List[threading.Thread] = []
        self._httpd: Optional[_HTTPServer] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._state_lock = threading.Lock()
        self._draining = False
        self._stopped = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> ReproServer:
        """Bind the socket, start the worker pool and the accept loop.

        Returns ``self`` so ``server = ReproServer(...).start()`` reads
        naturally; with ``port=0`` the bound ephemeral port is available
        as :attr:`port` afterwards.
        """
        if self._httpd is not None:
            raise RuntimeError("server already started")
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.repro = self
        for i in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self._accept_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def shutdown(self) -> None:
        """Drain and stop (idempotent).

        New requests are refused with 503 immediately; jobs already
        admitted drain through the worker pool (every waiting client gets
        its answer); then the workers exit, the accept loop stops, and
        the listening socket closes.  The engine (``service``) is *not*
        closed — its owner closes it.
        """
        with self._state_lock:
            if self._draining:
                self._stopped.wait()
                return
            self._draining = True
        # FIFO queue: each sentinel lands behind every admitted job, so a
        # worker only sees its sentinel after real work is done.
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join()
        # A request that raced past the draining check may have enqueued
        # behind the sentinels; fail it over to 503 so its handler thread
        # is released rather than waiting forever.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:  # reprolint: disable=R008 -- the empty queue is this drain loop's termination condition, not a failure; stragglers found before it get set_exception below
                break
            if job is not None:
                job.future.set_exception(ServeError(
                    ERROR_SHUTTING_DOWN, "server is shutting down",
                    status=503, retry_after_s=self.config.retry_after_s,
                ))
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        self._stopped.set()

    def wait(self) -> None:
        """Block until :meth:`shutdown` completes (CLI foreground mode).

        Interruptible: a ``KeyboardInterrupt`` in the waiting thread
        propagates so the CLI can run the graceful shutdown path.
        """
        self._stopped.wait()

    def __enter__(self) -> ReproServer:
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- admission (called from handler threads) --------------------------

    def admit(
        self, client: str, raw_body: bytes
    ) -> Tuple[QueryResponse, float]:
        """Run one request through admission and the worker pool.

        Returns ``(response, queue_ms)``; raises :class:`ServeError` on
        any refusal (rate limit, full queue, draining, invalid body) and
        re-raises whatever the engine raised on a worker.
        """
        if self.is_draining:
            raise ServeError(
                ERROR_SHUTTING_DOWN, "server is shutting down",
                status=503, retry_after_s=self.config.retry_after_s,
            )
        if self._limiter is not None:
            granted, retry_after_s = self._limiter.try_acquire(client)
            if not granted:
                raise ServeError(
                    ERROR_RATE_LIMITED,
                    f"client {client!r} is over its "
                    f"{self.config.rate_limit:g} req/s rate",
                    status=429, retry_after_s=retry_after_s,
                )
        request = parse_query_payload(raw_body)
        job = _Job(
            request=request,
            future=Future(),
            enqueued_at=self._clock(),
            deadline_ms=(
                request.deadline_ms if request.deadline_ms is not None
                else self.config.default_deadline_ms
            ),
        )
        # Counted before the put: once enqueued, a worker may finish the
        # job before this thread runs again, and no snapshot may show a
        # completion ahead of its admission.  A full queue takes it back.
        self._stats.record({"accepted": 1})
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._stats.record({"accepted": -1})
            raise ServeError(
                ERROR_QUEUE_FULL,
                f"request queue is full ({self.config.queue_depth} deep)",
                status=429, retry_after_s=self.config.retry_after_s,
            ) from None
        return job.future.result()

    def count_refusal(self, exc: ServeError) -> None:
        """Fold one refusal into the serving counters."""
        name = _REFUSAL_COUNTS.get(exc.code, "rejected_invalid")
        self._stats.record({name: 1})

    # -- the worker pool --------------------------------------------------

    def _worker_loop(self) -> None:
        """Drain the queue: deduct queue wait from the budget, run the
        engine, resolve the future."""
        while True:
            job = self._queue.get()
            if job is None:  # shutdown sentinel: drain complete
                return
            picked_up = self._clock()
            queue_wait_s = max(0.0, picked_up - job.enqueued_at)
            self._stats.record({"in_flight": 1}, [("queue_wait", queue_wait_s)])
            degraded = False
            failed = False
            try:
                request = job.request
                if job.deadline_ms is not None:
                    # The deadline is end-to-end: what the queue consumed
                    # is gone.  A request that waited out its budget runs
                    # under MIN_BUDGET_MS — every stage check fires, the
                    # engine sheds to its cheapest path, and the client
                    # gets a degraded answer instead of a timeout.
                    remaining = job.deadline_ms - queue_wait_s * 1000.0
                    request = dataclasses.replace(
                        request, deadline_ms=max(remaining, MIN_BUDGET_MS)
                    )
                trip(POINT_SERVE_WORKER)
                response = self.service.answer(request)
                degraded = response.degraded
                job.future.set_result((response, queue_wait_s * 1000.0))
            except BaseException as exc:
                failed = True
                job.future.set_exception(exc)
            finally:
                self._stats.record(
                    {
                        "in_flight": -1,
                        "errors_internal" if failed else "completed": 1,
                        "shed_degraded": int(degraded),
                    },
                    [("handle", self._clock() - picked_up)],
                )

    # -- observability ----------------------------------------------------

    @property
    def host(self) -> str:
        """Bound interface."""
        return self.config.host

    @property
    def port(self) -> int:
        """Bound port (the real one once started, even for ``port=0``)."""
        if self._httpd is not None:
            return int(self._httpd.server_address[1])
        return self.config.port

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self.host}:{self.port}"

    @property
    def is_draining(self) -> bool:
        """Has shutdown begun?  (New work is refused with 503.)"""
        with self._state_lock:
            return self._draining

    @property
    def queue_depth(self) -> int:
        """Jobs waiting in the bounded queue right now (approximate)."""
        return self._queue.qsize()

    @property
    def uptime_s(self) -> float:
        """Seconds since construction (monotonic clock seam)."""
        return self._clock() - self._started_at

    def health_payload(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /healthz``'s ``(status, body)``: 503 ``draining`` once
        shutdown has begun, else 200 ``ok``.

        It reports the server, not the corpus: a torn shard fails the
        queries that reach it with a 500 naming the file (counted in
        ``/stats`` as ``errors_internal``), and ``repro index verify``
        finds it offline.
        """
        status, code = ("draining", 503) if self.is_draining else ("ok", 200)
        return code, {
            "status": status,
            "uptime_s": round(self.uptime_s, 3),
            "queue_depth": self.queue_depth,
            "workers": self.config.workers,
        }

    def stats(self) -> ServerStats:
        """Serving-layer counters snapshot."""
        return ServerStats.of(self._stats, self.queue_depth, self.uptime_s)

    def stats_payload(self) -> Dict[str, Any]:
        """The ``/stats`` body: serving-layer and engine counters."""
        return {
            "server": self.stats().to_dict(),
            "service": self.service.stats().to_dict(),
        }
