"""Cache counter snapshots for ``WWTService.stats()``.

The service's result cache is a typed
:class:`~repro.core.features.BoundedCache` LRU, the one eviction/locking
implementation in the codebase; the feature cache is a
:class:`~repro.core.features.FeatureCache` over two of them.  Both report
through :meth:`CacheStats.of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Union

from ..core.features import BoundedCache, FeatureCache

__all__ = ["CacheStats"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one cache."""

    hits: int
    misses: int
    size: int
    capacity: int

    @classmethod
    def of(cls, cache: Union[BoundedCache[Any, Any], FeatureCache]) -> CacheStats:
        """Snapshot ``cache.stats()`` (one atomic read of its counters)."""
        snapshot = cache.stats()
        return cls(
            hits=snapshot["hits"],
            misses=snapshot["misses"],
            size=snapshot["size"],
            capacity=snapshot["capacity"],
        )

    @property
    def lookups(self) -> int:
        """Total get() calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for logging/CLI output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 4),
        }
