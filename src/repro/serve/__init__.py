"""repro.serve — the HTTP/JSON front door for the query engine.

A stdlib-only serving layer that puts :class:`~repro.service.WWTService`
behind a real socket with explicit overload behaviour:

- **admission control** — each request runs on its connection's thread
  once one of ``workers`` execution slots is free, waiting for it in one
  bounded FIFO line (:class:`ServeConfig.queue_depth <ServeConfig>`), and
  per-client token buckets (:class:`RateLimiter`) throttle hot clients; both
  refusals answer 429 with a ``Retry-After`` header instead of letting
  latency grow without bound;
- **SLO-driven degradation** — a per-request ``deadline_ms`` budget
  covers queue wait plus execution and maps onto the ``repro.exec``
  staged engine, so overloaded requests come back *degraded* (flagged in
  the envelope's ``serving`` section) rather than timing out;
- **observability** — ``/healthz`` for liveness and ``/stats`` merging
  serving-layer counters (:class:`ServerStats`) with the engine's own
  ``ServiceStats``, each projected from one ``repro.exec.Stats``.

::

    from repro.serve import ReproServer, ServeClient, ServeConfig

    server = ReproServer(service, ServeConfig(port=0, workers=4)).start()
    try:
        with ServeClient(server.host, server.port) as client:
            status, headers, body = client.query(
                {"query": "cities # population", "deadline_ms": 200}
            )
    finally:
        server.shutdown()

The wire protocol lives in :mod:`repro.serve.protocol`: untrusted JSON
is validated into :class:`~repro.service.QueryRequest` (structured 400
envelopes on anything malformed), and the 200 envelope separates the
deterministic ``answer`` payload from run-varying ``serving`` metadata.
"""

from .admission import RateLimiter, TokenBucket
from .client import HTTPReply, ServeClient
from .config import ServeConfig
from .protocol import (
    ERROR_BAD_JSON,
    ERROR_BAD_REQUEST,
    ERROR_BODY_TOO_LARGE,
    ERROR_INTERNAL,
    ERROR_INVALID_VALUE,
    ERROR_METHOD_NOT_ALLOWED,
    ERROR_MISSING_FIELD,
    ERROR_NOT_FOUND,
    ERROR_QUEUE_FULL,
    ERROR_RATE_LIMITED,
    ERROR_SHUTTING_DOWN,
    ERROR_UNKNOWN_FIELD,
    ServeError,
    answer_payload,
    error_envelope,
    parse_query_payload,
    response_envelope,
)
from .server import (
    MAX_BODY_BYTES,
    MIN_BUDGET_MS,
    RETRY_AFTER_S,
    AnswerService,
    ReproServer,
)
from .stats import ServerStats

__all__ = [
    "ServeConfig",
    "ReproServer",
    "AnswerService",
    "MAX_BODY_BYTES",
    "MIN_BUDGET_MS",
    "RETRY_AFTER_S",
    "ServeClient",
    "HTTPReply",
    "TokenBucket",
    "RateLimiter",
    "ServerStats",
    "ServeError",
    "error_envelope",
    "parse_query_payload",
    "answer_payload",
    "response_envelope",
    "ERROR_BAD_JSON",
    "ERROR_MISSING_FIELD",
    "ERROR_UNKNOWN_FIELD",
    "ERROR_INVALID_VALUE",
    "ERROR_BODY_TOO_LARGE",
    "ERROR_RATE_LIMITED",
    "ERROR_QUEUE_FULL",
    "ERROR_SHUTTING_DOWN",
    "ERROR_NOT_FOUND",
    "ERROR_METHOD_NOT_ALLOWED",
    "ERROR_INTERNAL",
    "ERROR_BAD_REQUEST",
]
