"""Server configuration: admission control, SLOs, and socket knobs.

:class:`ServeConfig` is to :class:`~repro.serve.server.ReproServer` what
:class:`~repro.service.EngineConfig` is to the engine — one frozen,
validated, dict-round-trippable value holding every serving-layer knob:
worker-pool width, bounded-queue depth, per-client token-bucket rates,
the default per-request deadline, and the HTTP socket parameters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.server.ReproServer` needs.

    ::

        config = ServeConfig(port=0, workers=4, queue_depth=64,
                             rate_limit=50.0, default_deadline_ms=200.0)
        assert ServeConfig.from_dict(config.to_dict()) == config
    """

    #: Interface to bind; loopback by default (an explicit opt-in is
    #: required to expose the engine beyond the local host).
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests, benchmarks).
    port: int = 8080
    #: Worker threads draining the request queue — the execution
    #: concurrency bound (handler threads only do socket I/O).
    workers: int = 4
    #: Bounded request-queue depth; a full queue rejects with 429 +
    #: ``Retry-After`` instead of queueing unboundedly.
    queue_depth: int = 64
    #: Per-client token-bucket sustained rate in requests/second
    #: (``None`` disables rate limiting).
    rate_limit: Optional[float] = None
    #: Token-bucket burst capacity (tokens a quiet client can bank).
    rate_burst: int = 10
    #: Most distinct clients tracked by the rate limiter at once
    #: (least-recently-seen clients are evicted — their next request
    #: starts a fresh full bucket).
    rate_clients: int = 4096
    #: Default per-request deadline in milliseconds applied when the
    #: request body carries none (``None`` = unbounded).  The budget
    #: covers queue wait *plus* execution: time spent queued is deducted
    #: before the engine runs, so overloaded requests shed to degraded
    #: answers instead of blowing the SLO.
    default_deadline_ms: Optional[float] = None
    #: Largest accepted request body in bytes (413 beyond it).
    max_body_bytes: int = 65536
    #: ``Retry-After`` seconds advertised on queue-full rejections.
    retry_after_s: int = 1
    #: Header carrying the rate-limit client identity; falls back to the
    #: peer IP address when absent.
    client_header: str = "X-Client-Id"

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535] (0 = ephemeral)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be > 0 req/s (None disables)")
        if self.rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")
        if self.rate_clients < 1:
            raise ValueError("rate_clients must be >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0 (None disables)")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.retry_after_s < 1:
            raise ValueError("retry_after_s must be >= 1")
        if not self.client_header:
            raise ValueError("client_header must be non-empty")

    def replace(self, **changes: Any) -> ServeConfig:
        """Copy with some fields replaced (re-validates)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe); inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> ServeConfig:
        """Build a config from a (possibly partial) plain dict.

        Missing keys take their defaults; unknown keys raise
        ``ValueError`` so typos in config files fail loudly.
        """
        data = dict(data or {})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ServeConfig keys: {unknown}; known: {sorted(known)}"
            )
        return cls(**data)
