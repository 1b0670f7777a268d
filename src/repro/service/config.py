"""The unified engine configuration.

Before the service layer, engine behaviour was configured in four places:
``ModelParams`` (graphical-model weights), ``ProbeConfig`` (two-stage probe
tunables), a bare inference-name string, and ad-hoc keyword arguments.
:class:`EngineConfig` folds them into one frozen value plus the serving
knobs (cache sizes, batch concurrency, page size), and round-trips through
plain dicts so the CLI and experiment harness can load configurations from
JSON files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, TypeVar

from ..core.params import ModelParams
from ..inference.registry import DEFAULT_REGISTRY
from ..pipeline.probe import ProbeConfig

__all__ = ["EngineConfig"]

_D = TypeVar("_D")


def _from_mapping(
    cls: Callable[..., _D], data: Mapping[str, Any], where: str
) -> _D:
    """Build a dataclass from a mapping, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}; known: {sorted(known)}")
    return cls(**dict(data))


@dataclass(frozen=True)
class EngineConfig:
    """Everything a :class:`~repro.service.WWTService` needs, in one value.

    ``params`` and ``probe`` carry the paper's tunables; the rest are
    serving knobs.  A cache size of 0 disables that cache.  Round-trips
    through plain dicts, so a service is configurable from one JSON file::

        config = EngineConfig(inference="bp", cache_size=512)
        assert EngineConfig.from_dict(config.to_dict()) == config
        service_cfg = EngineConfig.from_dict(
            {"index_path": "corpus-dir", "auto_compact_threshold": 1000}
        )
    """

    params: ModelParams = field(default_factory=ModelParams)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    #: Registered inference algorithm used for column mapping.
    inference: str = "table-centric"
    #: LRU capacity of the query-result cache (full pipeline outputs).
    cache_size: int = 256
    #: LRU capacity of the probe cache (candidate-retrieval outputs).
    probe_cache_size: int = 128
    #: LRU capacity of the per-(query, table) feature cache shared between
    #: the probe's confidence pass and the full inference assembly (the
    #: hot-path memoization — see DESIGN.md, "Hot-path engine").
    feature_cache_size: int = 4096
    #: Thread-pool width for :meth:`WWTService.answer_batch`.
    max_workers: int = 4
    #: Default answer-row page size for :class:`QueryResponse` pagination.
    page_size: int = 25
    #: Shard count for corpora *built* on behalf of this config — the CLI's
    #: generate-then-serve path hash-partitions its
    #: :class:`~repro.index.ShardedCorpus` with it (``None`` means one
    #: shard).  A corpus object passed to :class:`WWTService` directly is
    #: served as-is.
    num_shards: Optional[int] = None
    #: Directory of a persisted corpus (``repro index build``);
    #: :class:`WWTService` loads it at construction when no corpus object
    #: is passed.
    index_path: Optional[str] = None
    #: A checked constant, not a knob: the shard scatter is one serial
    #: loop and ``"serial"`` is the only accepted value.  The name stays
    #: only while ``benchmarks/e2e`` passes it (DESIGN.md, "Modes removed").
    parallel_mode: str = "serial"
    #: Journal depth at which :meth:`WWTService.add_tables` /
    #: :meth:`WWTService.delete_tables` trigger an automatic ``compact()``
    #: of the served corpus (``None`` = never; compact manually or via
    #: ``repro index compact``).
    auto_compact_threshold: Optional[int] = None
    #: Per-query wall-clock budget in milliseconds (``None`` = unbounded).
    #: The execution engine checks it between stages: once exceeded, the
    #: remaining skippable stages are skipped and column mapping falls
    #: back to the fastest registered inference, so the response returns
    #: within budget plus one stage's own cost (see DESIGN.md,
    #: "Execution engine").
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.inference not in DEFAULT_REGISTRY:
            raise ValueError(
                f"unknown inference {self.inference!r}; "
                f"options: {DEFAULT_REGISTRY.names()}"
            )
        if (
            self.cache_size < 0
            or self.probe_cache_size < 0
            or self.feature_cache_size < 0
        ):
            raise ValueError("cache sizes must be >= 0 (0 disables the cache)")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.page_size < 1:
            raise ValueError("page_size must be >= 1")
        if self.num_shards is not None and self.num_shards < 1:
            raise ValueError("num_shards must be >= 1 (None means 1)")
        if self.parallel_mode != "serial":
            raise ValueError(
                f"parallel_mode {self.parallel_mode!r} was removed: the shard "
                'scatter is always serial ("serial" is the only accepted value)'
            )
        if (
            self.auto_compact_threshold is not None
            and self.auto_compact_threshold < 1
        ):
            raise ValueError(
                "auto_compact_threshold must be >= 1 (None disables)"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                "deadline_ms must be > 0 (None disables the deadline)"
            )
        if self.index_path is not None and not isinstance(self.index_path, str):
            # Paths arrive as pathlib.Path from callers; freeze as str so
            # to_dict() stays JSON-safe and equality is well-defined.
            object.__setattr__(self, "index_path", str(self.index_path))

    # -- derived ----------------------------------------------------------

    @property
    def caching_enabled(self) -> bool:
        """Is the query-result cache on?"""
        return self.cache_size > 0

    def replace(self, **changes: Any) -> EngineConfig:
        """Copy with some fields replaced (re-validates)."""
        return dataclasses.replace(self, **changes)

    # -- dict round-trip --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe); inverse of :meth:`from_dict`."""
        return {
            "params": dataclasses.asdict(self.params),
            "probe": dataclasses.asdict(self.probe),
            "inference": self.inference,
            "cache_size": self.cache_size,
            "probe_cache_size": self.probe_cache_size,
            "feature_cache_size": self.feature_cache_size,
            "max_workers": self.max_workers,
            "page_size": self.page_size,
            "num_shards": self.num_shards,
            "index_path": self.index_path,
            "parallel_mode": self.parallel_mode,
            "auto_compact_threshold": self.auto_compact_threshold,
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> EngineConfig:
        """Build a config from a (possibly partial) plain dict.

        Missing keys take their defaults; unknown keys raise ``ValueError``
        so typos in config files fail loudly.
        """
        data = dict(data or {})
        kwargs: Dict[str, Any] = {}
        if "params" in data:
            raw = data.pop("params")
            kwargs["params"] = (
                raw if isinstance(raw, ModelParams)
                else _from_mapping(ModelParams, raw, "params")
            )
        if "probe" in data:
            raw = data.pop("probe")
            kwargs["probe"] = (
                raw if isinstance(raw, ProbeConfig)
                else _from_mapping(ProbeConfig, raw, "probe")
            )
        top_known = {
            "inference", "cache_size", "probe_cache_size",
            "feature_cache_size", "max_workers", "page_size",
            "num_shards", "index_path", "parallel_mode",
            "auto_compact_threshold", "deadline_ms",
        }
        unknown = sorted(set(data) - top_known)
        if unknown:
            raise ValueError(
                f"unknown EngineConfig keys: {unknown}; "
                f"known: {sorted(top_known | {'params', 'probe'})}"
            )
        kwargs.update(data)
        return cls(**kwargs)
