"""The wire protocol: untrusted JSON in, canonical envelopes out.

Request bodies are parsed and validated field-by-field into the service
layer's :class:`~repro.service.QueryRequest`; anything malformed raises a
:class:`ServeError` carrying a machine-readable ``error.code`` that the
server maps to a structured 400 envelope — clients never see a traceback.
Response envelopes split into two sections:

- ``answer`` — the deterministic answer payload (rows, pagination,
  algorithm).  :func:`answer_payload` is the **single source** of this
  shape for both the HTTP server and in-process comparisons, which is
  what makes the served-vs-direct byte-identity test meaningful;
- ``serving`` — per-request serving metadata (cache provenance, queue
  wait, degradation flags, stage list) that legitimately varies run to
  run.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..inference.registry import DEFAULT_REGISTRY
from ..query.model import Query
from ..service.types import QueryRequest, QueryResponse

__all__ = [
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
]

#: Body is not decodable JSON at all.
ERROR_BAD_JSON = "bad_json"
#: A required field (``query``) is absent.
ERROR_MISSING_FIELD = "missing_field"
#: The payload carries a field the protocol does not define.
ERROR_UNKNOWN_FIELD = "unknown_field"
#: A known field holds a value of the wrong type or out of range.
ERROR_INVALID_VALUE = "invalid_value"
#: Request body exceeds ``ServeConfig.max_body_bytes``.
ERROR_BODY_TOO_LARGE = "body_too_large"
#: The client's token bucket is empty (retry after the advertised delay).
ERROR_RATE_LIMITED = "rate_limited"
#: The bounded request queue is full (retry after the advertised delay).
ERROR_QUEUE_FULL = "queue_full"
#: The server is draining for shutdown; no new work is admitted.
ERROR_SHUTTING_DOWN = "shutting_down"
#: No resource at this path.
ERROR_NOT_FOUND = "not_found"
#: The path exists but not for this HTTP method.
ERROR_METHOD_NOT_ALLOWED = "method_not_allowed"
#: The engine raised unexpectedly; the request was not answered.
ERROR_INTERNAL = "internal"

#: Wire fields :func:`parse_query_payload` accepts (``limit`` is an
#: ergonomic alias for ``page_size``).
_REQUEST_FIELDS = frozenset({
    "query", "page", "page_size", "limit", "explain", "use_cache",
    "inference", "deadline_ms",
})


class ServeError(Exception):
    """A request the server refuses, with its wire representation.

    ``code`` is the machine-readable ``error.code`` of the JSON envelope;
    ``status`` the HTTP status; ``retry_after_s``, when set, becomes a
    ``Retry-After`` header (429/503 responses).
    """

    def __init__(
        self,
        code: str,
        message: str,
        status: int = 400,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = status
        self.retry_after_s = retry_after_s

    def envelope(self) -> Dict[str, Any]:
        """The JSON error body for this refusal."""
        return error_envelope(self.code, self.message)


def error_envelope(code: str, message: str) -> Dict[str, Any]:
    """The structured error body: ``{"error": {"code", "message"}}``."""
    return {"error": {"code": code, "message": message}}


def _require(condition: bool, message: str) -> None:
    """Raise the standard 400 ``invalid_value`` refusal unless true."""
    if not condition:
        raise ServeError(ERROR_INVALID_VALUE, message)


def _typed(payload: Dict[str, Any], field: str, kind: str, label: str) -> Any:
    """Fetch an optional field, refusing wrong-typed values.

    ``kind`` is ``"int"`` / ``"number"`` / ``"bool"`` / ``"str"``.
    ``bool`` is a subclass of ``int`` in Python, so the numeric kinds
    explicitly refuse booleans — ``"page": true`` is a client bug, not a
    page number.
    """
    value = payload.get(field)
    if value is None:
        return None
    checks = {
        "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda v: (
            isinstance(v, (int, float)) and not isinstance(v, bool)
        ),
        "bool": lambda v: isinstance(v, bool),
        "str": lambda v: isinstance(v, str),
    }
    _require(checks[kind](value), f"{field} must be {label}")
    return value


def parse_query_payload(raw: bytes) -> QueryRequest:
    """Validate one untrusted ``POST /query`` body into a request.

    Raises :class:`ServeError` (always a 400) with ``error.code`` one of
    ``bad_json`` / ``missing_field`` / ``unknown_field`` /
    ``invalid_value``; the message names the offending field so clients
    can fix the call without reading server logs.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(
            ERROR_BAD_JSON, f"request body is not JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ServeError(
            ERROR_INVALID_VALUE,
            f"request body must be a JSON object, got {type(payload).__name__}",
        )
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    if unknown:
        raise ServeError(
            ERROR_UNKNOWN_FIELD,
            f"unknown field(s) {unknown}; known: {sorted(_REQUEST_FIELDS)}",
        )
    if "query" not in payload:
        raise ServeError(ERROR_MISSING_FIELD, "missing required field 'query'")
    text = payload["query"]
    _require(isinstance(text, str), "query must be a string")

    if "limit" in payload and "page_size" in payload:
        raise ServeError(
            ERROR_INVALID_VALUE,
            "pass either 'limit' or 'page_size', not both (they are aliases)",
        )
    page_size = _typed(payload, "page_size", "int", "a positive integer")
    if page_size is None:
        page_size = _typed(payload, "limit", "int", "a positive integer")
    page = _typed(payload, "page", "int", "a positive integer")
    explain = _typed(payload, "explain", "bool", "a boolean")
    use_cache = _typed(payload, "use_cache", "bool", "a boolean")
    deadline_ms = _typed(payload, "deadline_ms", "number", "a positive number")
    inference = _typed(
        payload, "inference", "str", "a registered algorithm name"
    )
    if inference is not None and inference not in DEFAULT_REGISTRY:
        raise ServeError(
            ERROR_INVALID_VALUE,
            f"unknown inference {inference!r}; "
            f"options: {DEFAULT_REGISTRY.names()}",
        )

    try:
        query = Query.parse(text)
        return QueryRequest(
            query=query,
            page=page if page is not None else 1,
            page_size=page_size,
            explain=bool(explain) if explain is not None else False,
            use_cache=bool(use_cache) if use_cache is not None else True,
            inference=inference,
            deadline_ms=float(deadline_ms) if deadline_ms is not None else None,
        )
    except ValueError as exc:
        # Query.parse and QueryRequest.__post_init__ validate ranges
        # (empty columns, page < 1, page_size < 1, deadline_ms <= 0).
        raise ServeError(ERROR_INVALID_VALUE, str(exc)) from exc


def answer_payload(response: QueryResponse) -> Dict[str, Any]:
    """The deterministic answer section of a response envelope.

    Contains exactly the fields that depend only on (corpus, config,
    request): for an unbounded request, two servings of the same request
    serialize to identical bytes.  Serving-run metadata (cache provenance,
    latency, degradation) lives in the envelope's ``serving`` section —
    degradation depends on load, so it is *not* part of the answer payload.
    """
    payload: Dict[str, Any] = {
        "query": str(response.query),
        "header": list(response.header),
        "rows": [
            {"cells": list(row.cells), "support": row.support,
             "relevance": row.relevance}
            for row in response.rows
        ],
        "page": response.page,
        "page_size": response.page_size,
        "total_rows": response.total_rows,
        "num_pages": response.num_pages,
        "algorithm": response.algorithm,
    }
    if response.explain is not None:
        payload["explain"] = response.explain
    return payload


def response_envelope(
    response: QueryResponse, queue_ms: float = 0.0
) -> Dict[str, Any]:
    """The full ``POST /query`` 200 body: answer + serving metadata."""
    return {
        "answer": answer_payload(response),
        "serving": {
            "cache_hit": response.cache_hit,
            "degraded": response.degraded,
            "degraded_reasons": list(response.degraded_reasons),
            "stages_ran": list(response.stages_ran),
            "served_in_ms": round(response.served_in * 1000.0, 3),
            "queue_ms": round(queue_ms, 3),
        },
    }
