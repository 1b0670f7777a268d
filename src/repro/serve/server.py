"""The HTTP front door: a bounded line, execution slots, SLO-driven shedding.

:class:`ReproServer` wraps a :class:`~repro.service.WWTService` behind a
stdlib ``ThreadingHTTPServer``; the handler reads each request head itself
and sends each response in one write.  A ``POST /query`` runs on its
connection's handler thread::

    read the head                     400/414/431/501/505 bad_request
    parse + validate body
    rate-limit (token bucket)         429 + Retry-After on refusal
    join the FIFO line                429 + Retry-After when it is full
    wait to head the line with a free slot (``workers`` slots)
    deduct the wait from the deadline, run the engine (shed to degraded
    under pressure), free the slot
    serialize the envelope

One condition variable guards the line, the running count and the
draining flag.  ``workers`` caps how many requests execute at once and
the line is the only place requests wait, so memory under overload is
capped at ``queue_depth + workers`` admitted requests and everything
beyond that is told to back off instead of queueing to death.

Deadlines are end-to-end: a request's ``deadline_ms`` (or the config's
default) covers its wait in line plus execution.  The wait is deducted
before the engine runs, so a request that waited out most of its budget
executes under a near-zero budget and comes back degraded (flagged in
the envelope) rather than blowing the SLO or timing out.

The head reader takes a request line and at most 100 header lines of at
most 64 KiB each.  It refuses a malformed line, obs-fold, Transfer-Encoding
and conflicting Content-Length values; the refusal is a counted JSON
envelope with ``Connection: close``.

An engine error fails its request: the client gets a 500 ``internal``
envelope carrying the error's message (a torn shard's names its file),
and ``/stats`` counts it in ``errors_internal``.

Shutdown is graceful: new work is refused with 503, every request
already in line or running is answered, then the listener closes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Deque, Dict, Optional, Protocol, Tuple

from ..exec.context import wall_clock
from ..exec.stats import Stats
from ..service.facade import ServiceStats
from ..service.types import QueryRequest, QueryResponse
from .admission import RateLimiter
from .config import ServeConfig
from .protocol import (
    ERROR_BAD_JSON,
    ERROR_BAD_REQUEST,
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

__all__ = [
    "AnswerService",
    "MAX_BODY_BYTES",
    "MIN_BUDGET_MS",
    "RETRY_AFTER_S",
    "ReproServer",
]

#: Smallest budget handed to the engine once the wait in line consumed the
#: request's deadline: small enough that every between-stage check fires
#: (maximal shedding), positive so the context accepts it.
MIN_BUDGET_MS = 0.01

#: Largest accepted request body in bytes (413 beyond it).  The largest
#: valid body — a query text plus seven scalar fields — is a few hundred
#: bytes.
MAX_BODY_BYTES = 65536

#: ``Retry-After`` seconds advertised on queue-full and draining refusals.
RETRY_AFTER_S = 1

#: Head limits: bytes in a request (414) or header (431) line, header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_HTTP_VERSION = re.compile(r"HTTP/([0-9]{1,4})\.([0-9]{1,4})")

#: Refusal code -> the ``ServerStats`` count it lands in (anything else
#: is a malformed request).
_REFUSAL_COUNTS = {
    ERROR_QUEUE_FULL: "rejected_queue_full",
    ERROR_RATE_LIMITED: "rejected_rate_limited",
    ERROR_SHUTTING_DOWN: "rejected_shutdown",
}


def _bad_head(message: str, status: int = 400) -> ServeError:
    """The refusal of a request head the server will not read."""
    return ServeError(ERROR_BAD_REQUEST, message, status=status)


def _draining_error() -> ServeError:
    """The 503 every request gets once shutdown has begun."""
    return ServeError(
        ERROR_SHUTTING_DOWN, "server is shutting down",
        status=503, retry_after_s=RETRY_AFTER_S,
    )


class AnswerService(Protocol):
    """What the server needs from the engine — the ``WWTService`` surface.

    A Protocol rather than the concrete class so tests can stand in a
    stub (e.g. one that blocks on an event to make line states
    deterministic).
    """

    def answer(self, request: QueryRequest) -> QueryResponse:
        """Answer one request."""
        ...  # pragma: no cover - protocol stub

    def stats(self) -> ServiceStats:
        """Snapshot the engine's serving counters."""
        ...  # pragma: no cover - protocol stub


class _HTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying a back-reference to the front door."""

    daemon_threads = True
    allow_reuse_address = True
    #: Handler threads must not block process exit / server_close.
    block_on_close = False
    #: The owning :class:`ReproServer`; set right after construction.
    repro: ReproServer


class _Handler(BaseHTTPRequestHandler):
    """Per-connection request handler: head, routing, admission, replies."""

    protocol_version = "HTTP/1.1"
    #: Drop idle keep-alive connections instead of pinning threads.
    timeout = 30
    #: A 100 Continue and its response are two writes; with Nagle on, the
    #: second stalls behind the peer's delayed ACK (~40ms on Linux).
    disable_nagle_algorithm = True
    server: _HTTPServer

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default per-request stderr line (stats endpoint and
        the server's counters are the observability surface)."""

    def parse_request(self) -> bool:
        """Read the request head in place of ``http.server``'s parser:
        ``True`` when a ``do_*`` route may run, ``False`` once a bad head
        is refused or the peer closed (a blank line, EOF mid-head)."""
        self.close_connection = True
        self.fields: Dict[str, str] = {}  # lower-cased name -> first value
        try:
            return self._read_head()
        except ServeError as exc:  # reprolint: disable=R008 -- send_error counts the refusal in rejected_invalid and answers it
            self.send_error(exc.status, exc.message)
            return False

    def _read_head(self) -> bool:
        raw = self.raw_requestline
        self.requestline = line = raw.decode("iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not raw.endswith(b"\n") or not words:
            return False
        match = _HTTP_VERSION.fullmatch(words[-1])
        if len(words) != 3 or match is None:
            raise _bad_head(f"malformed request line {line[:80]!r}")
        self.command, path, self.request_version = words
        version = (int(match[1]), int(match[2]))
        if version >= (2, 0):
            raise _bad_head(f"{words[2]} is not supported", 505)
        # gh-87389: a path starting with '//' reads as a scheme-relative URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        fields = self.fields
        for _ in range(_MAX_HEADERS + 1):
            raw = self.rfile.readline(_MAX_LINE + 1)
            if len(raw) > _MAX_LINE:
                raise _bad_head(f"header line over {_MAX_LINE} bytes", 431)
            if raw in (b"\r\n", b"\n"):
                break
            if not raw.endswith(b"\n"):
                return False
            name, colon, value = raw.decode("iso-8859-1").partition(":")
            if not (colon and name and name.strip(" \t") == name):
                raise _bad_head(f"malformed or folded header {name[:80]!r}")
            name, value = name.lower(), value.strip(" \t\r\n")
            first = fields.setdefault(name, value)
            if first != value and name == "content-length":
                raise _bad_head("conflicting Content-Length values")
        else:
            raise _bad_head(f"more than {_MAX_HEADERS} header lines", 431)
        if "transfer-encoding" in fields:
            raise _bad_head("chunked request bodies are not supported "
                            "(Transfer-Encoding): send Content-Length")
        connection = fields.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version < (1, 1) and connection != "keep-alive"
        )
        expect = fields.get("expect", "").lower()
        if version >= (1, 1) and expect == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Refuse a bad request head (``http.server`` sends 414 and 501
        here too) with a counted ``bad_request`` envelope."""
        exc = _bad_head(message or self.responses[code][0], code)
        self.server.repro.count_refusal(exc)
        self._refuse(exc)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        retry_after_s: Optional[float] = None,
    ) -> None:
        """Write one JSON response, status line to body, in one write."""
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if retry_after_s is not None:
            head += f"Retry-After: {max(1, math.ceil(retry_after_s))}\r\n"
        if self.close_connection:
            # Say so: a keep-alive client that is not told reuses the
            # connection, and its next request dies against the close.
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _refuse(self, exc: ServeError) -> None:
        """Write a :class:`ServeError`'s envelope and drop the connection:
        the body may be unread, and keep-alive framing would desync."""
        self.close_connection = True
        self._send_json(exc.status, exc.envelope(), exc.retry_after_s)

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:
        """``/healthz`` and ``/stats`` — answered at once (never in line),
        so they stay responsive while every execution slot is busy."""
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
        client = self.fields.get(
            front.config.client_header.lower(), self.client_address[0]
        )
        request = None
        try:
            raw = self._read_body()
            request = front.admit(client, raw)
            response, queue_ms = front.execute(request)
        except ServeError as exc:
            front.count_refusal(exc)
            self._refuse(exc)
            return
        except Exception as exc:  # reprolint: disable=R008 -- any failure becomes a counted 500: an engine error was counted in errors_internal by execute, one raised before admission is counted here
            if request is None:
                front.count_internal_error()
            self.close_connection = True
            self._send_json(
                500, error_envelope(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}")
            )
            return
        self._send_json(200, response_envelope(response, queue_ms))

    def _read_body(self) -> bytes:
        """Read the request body, enforcing presence and the size cap."""
        length_header = self.fields.get("content-length")
        try:
            length = int(length_header) if length_header is not None else 0
        except ValueError as exc:
            raise ServeError(
                ERROR_BAD_JSON, f"invalid Content-Length: {length_header!r}"
            ) from exc
        if length <= 0:
            raise ServeError(ERROR_BAD_JSON, "empty request body")
        if length > MAX_BODY_BYTES:
            raise ServeError(
                ERROR_BODY_TOO_LARGE,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
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
        #: Admission outcomes, the in-flight gauge and execution latencies
        #: (count names are :class:`ServerStats` field names).
        self._stats = Stats()
        self._limiter = (
            RateLimiter(
                rate=self.config.rate_limit,
                burst=self.config.rate_burst,
                clock=clock,
            )
            if self.config.rate_limit is not None else None
        )
        self._httpd: Optional[_HTTPServer] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: Guards the line, the running count and the draining flag; every
        #: change to them notifies all waiters.
        self._gate = threading.Condition()
        #: Admitted requests waiting for a slot, in arrival order.
        self._line: Deque[QueryRequest] = deque()
        self._running = 0
        self._draining = False
        self._stopped = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> ReproServer:
        """Bind the socket and start the accept loop.

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
        self._accept_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def shutdown(self) -> None:
        """Drain and stop (idempotent).

        New requests are refused with 503 immediately; every request
        already in line or running is answered; then the accept loop
        stops and the listening socket closes.  The engine (``service``)
        is *not* closed — its owner closes it.
        """
        with self._gate:
            first = not self._draining
            self._draining = True
            self._gate.wait_for(lambda: not self._line and not self._running)
        if not first:
            self._stopped.wait()
            return
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

    # -- a request's path (called from handler threads) -------------------

    def admit(self, client: str, raw_body: bytes) -> QueryRequest:
        """Check one request before it may join the line.

        Returns the parsed request; raises :class:`ServeError` on a
        refusal (draining, rate limit, invalid body).
        """
        if self.is_draining:
            raise _draining_error()
        if self._limiter is not None:
            granted, retry_after_s = self._limiter.try_acquire(client)
            if not granted:
                raise ServeError(
                    ERROR_RATE_LIMITED,
                    f"client {client!r} is over its "
                    f"{self.config.rate_limit:g} req/s rate",
                    status=429, retry_after_s=retry_after_s,
                )
        return parse_query_payload(raw_body)

    def execute(self, request: QueryRequest) -> Tuple[QueryResponse, float]:
        """Answer an admitted request on the calling thread.

        Joins the line (:class:`ServeError` 429 when ``queue_depth``
        requests already wait, 503 once draining), waits until it heads
        the line with one of ``workers`` slots free, deducts the wait
        from the deadline and runs the engine.  Returns ``(response,
        queue_ms)``; whatever the engine raises propagates, counted in
        ``errors_internal``.
        """
        joined_at = self._clock()
        with self._gate:
            if self._draining:
                raise _draining_error()
            if len(self._line) >= self.config.queue_depth:
                raise ServeError(
                    ERROR_QUEUE_FULL,
                    f"request queue is full ({self.config.queue_depth} deep)",
                    status=429, retry_after_s=RETRY_AFTER_S,
                )
            self._stats.record({"accepted": 1})
            self._line.append(request)
            while (
                self._line[0] is not request
                or self._running >= self.config.workers
            ):
                self._gate.wait()
            self._line.popleft()
            self._running += 1
            if self._line and self._running < self.config.workers:
                # The new head may take a slot freed before it woke.
                self._gate.notify_all()
        started_at = self._clock()
        queue_wait_s = max(0.0, started_at - joined_at)
        self._stats.record({"in_flight": 1}, [("queue_wait", queue_wait_s)])
        deadline_ms = (
            request.deadline_ms if request.deadline_ms is not None
            else self.config.default_deadline_ms
        )
        if deadline_ms is not None:
            # The deadline is end-to-end: what the line consumed is gone.
            # A request that waited out its budget runs under
            # MIN_BUDGET_MS — every stage check fires, the engine sheds to
            # its cheapest path, and the client gets a degraded answer
            # instead of a timeout.
            remaining = deadline_ms - queue_wait_s * 1000.0
            request = dataclasses.replace(
                request, deadline_ms=max(remaining, MIN_BUDGET_MS)
            )
        failed, degraded = True, False
        try:
            response = self.service.answer(request)
            failed, degraded = False, response.degraded
        finally:
            self._stats.record(
                {
                    "in_flight": -1,
                    "errors_internal" if failed else "completed": 1,
                    "shed_degraded": int(degraded),
                },
                [("handle", self._clock() - started_at)],
            )
            with self._gate:
                self._running -= 1
                self._gate.notify_all()
        return response, queue_wait_s * 1000.0

    def count_refusal(self, exc: ServeError) -> None:
        """Fold one refusal into the serving counters."""
        name = _REFUSAL_COUNTS.get(exc.code, "rejected_invalid")
        self._stats.record({name: 1})

    def count_internal_error(self) -> None:
        """Count a 500 raised before admission (:meth:`execute` counts
        the engine's)."""
        self._stats.record({"errors_internal": 1})

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
        with self._gate:
            return self._draining

    @property
    def queue_depth(self) -> int:
        """Requests waiting in line right now."""
        return len(self._line)

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
