"""Query-scoped feature memoization for the column-mapping hot path.

The pipeline evaluates :class:`~repro.core.model.ColumnFeatures` (SegSim,
Cover, PMI² per query column) twice for every stage-1 table of every query:
once in the probe's confidence stage and again when the query plan's
``column_map`` stage assembles the full inference problem moments later.  The
features depend only on the query's analyzed keywords, the table's
content, and the corpus statistics — none of which change between the two
calls — so :class:`FeatureCache` memoizes them per ``(query, table)`` and
:func:`~repro.core.model.build_problem` consults it, turning the facade's
second assembly into an incremental extension that computes features for
stage-2 tables only.

**Invalidation** is by regime identity (see DESIGN.md, "Hot-path
engine"): a cache is valid for one ``(stats, reliabilities, pmi_scorer)``
triple, pinned by object identity on first use and auto-cleared whenever a
different triple arrives.  That rule is correct by construction for live
corpora — :attr:`~repro.index.sharded.ShardedCorpus.stats` returns a *new*
:class:`~repro.text.tfidf.TermStatistics` object at the first read after
any mutation and the same object otherwise, so the identity flip clears
the cache exactly when features could go stale.  The serving facade clears it on
every mutation besides (``WWTService.clear_caches`` runs on every
``add_tables``/``delete_tables``).

:class:`BoundedCache` is the codebase's one thread-safe LRU: it also backs
the corpus-level PMI² containment-probe caches
(:class:`~repro.core.pmi.PmiScorer`), which this module sizes, and the
serving facade's result cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Optional,
    Tuple,
    TypeVar,
    cast,
)

from ..query.model import Query
from ..text.tokenize import tokenize

__all__ = [
    "BoundedCache",
    "FeatureCache",
    "PMI_B_CACHE_SIZE",
    "PMI_H_CACHE_SIZE",
    "query_feature_key",
]

#: Default capacity of the corpus-level PMI² ``H(Q_l)`` cache (keyed by
#: query-column text — small key space, hit constantly within a query).
PMI_H_CACHE_SIZE = 1024
#: Default capacity of the corpus-level PMI² ``B(cell)`` cache (keyed by
#: cell text — the large key space that made the per-scorer dicts grow
#: without bound before they were promoted to bounded corpus-level caches).
PMI_B_CACHE_SIZE = 32768

_MISS = object()

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedCache(Generic[K, V]):
    """Thread-safe bounded LRU map with hit/miss counters.

    The one LRU in the codebase, from the core layer's memos up to the
    service's result cache: capacity 0 disables it, eviction
    drops the least-recently-used entry, and the counters feed
    cache-hit-rate reporting in ``WWTService.stats()`` (the benchmark's
    ``core.feature_cache_hit_ratio``).  Eviction only ever costs
    recomputation — never correctness — so every consumer may size it
    freely.

    Generic in key and value (``BoundedCache[str, float]``): consumers
    declare what they store, so a cache wired to the wrong producer is a
    type error rather than a silent heterogeneous dict.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._data: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: K) -> Optional[V]:
        """The cached value for ``key``, or ``None``; a hit refreshes recency."""
        return self.lookup(key)[1]

    def lookup(self, key: K) -> Tuple[bool, Optional[V]]:
        """``(hit, value)`` — distinguishes a stored ``None`` from a miss.

        The service's caches read through this form; :meth:`get` is the
        convenience collapse for consumers that never store ``None``.
        """
        with self._lock:
            value = self._data.get(key, cast("V", _MISS))
            if value is _MISS:
                self._misses += 1
                return False, None
            self._data.move_to_end(key)
            self._hits += 1
            return True, value

    def put(self, key: K, value: V) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        """Membership probe that counts as neither hit nor miss."""
        with self._lock:
            return key in self._data

    @property
    def hits(self) -> int:
        """Lookups served from the cache since construction."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that missed since construction."""
        return self._misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        lookups = self._hits + self._misses
        return self._hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """Plain-dict counter snapshot for logging and benchmark reports."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._data),
                "capacity": self.capacity,
                "hit_rate": round(self.hit_rate, 4),
            }


def query_feature_key(query: Query) -> str:
    """Canonical query component of a feature-cache key.

    Analyzer-normalized column keywords, so two surface forms that
    tokenize identically (case, punctuation, whitespace) share cache
    entries — ``"Country | Currency"`` and ``"country|currency"`` are the
    same query to the engine.  The service layer keys its result cache
    with this same function
    (``repro.service.normalized_query_key``).
    """
    return " | ".join(" ".join(tokenize(column)) for column in query.columns)


class FeatureCache:
    """Bounded memo of per-``(query, table)`` column features.

    Stores ``(col_features, relevance)`` — the tuple of
    :class:`~repro.core.model.ColumnFeatures` for every column of one
    table against one query, plus the table-relevance ``R(Q, t)`` derived
    from them — keyed on the normalized query, the table id, and the
    feature-shape flags (``use_segmented``, whether PMI² was evaluated).
    Weights (``w1..w5``, ``we``) are deliberately *not* part of the key:
    they recombine cached features, they never change them (the same
    property ``ColumnMappingProblem.with_params`` exploits).

    One cache is valid for one ``(stats, reliabilities, pmi_scorer)``
    regime; :meth:`pin` enforces that by identity and auto-clears on
    change, so a cache accidentally shared across corpora degrades to a
    correct cold cache instead of serving stale features.

    Thread-safe — the HTTP server's workers run concurrent pipelines over
    one service's shared instance.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._cache: BoundedCache[Hashable, Any] = BoundedCache(capacity)
        self._solved: BoundedCache[Hashable, Any] = BoundedCache(capacity)
        self._regime: Optional[Tuple[Any, Any, Any]] = None
        self._regime_lock = threading.Lock()
        self._generation = 0

    def pin(self, stats: Any, reliabilities: Any, pmi_scorer: Any) -> int:
        """Bind the cache to one feature regime, clearing it on change.

        Identity (``is``) comparison on every element: a live corpus
        materializes a new ``stats`` object whenever mutations change the
        statistics, so a regime flip is exactly a potential feature
        change.

        Returns the current *generation* token.  A writer that computed
        features under this regime passes the token back to :meth:`put`,
        which drops the insert if the regime (or an explicit
        :meth:`clear`) has moved on in the meantime — otherwise a query
        racing a live mutation could park stale-stats features in the
        freshly cleared cache.
        """
        with self._regime_lock:
            regime = self._regime
            if (
                regime is not None
                and regime[0] is stats
                and regime[1] is reliabilities
                and regime[2] is pmi_scorer
            ):
                return self._generation
            if regime is not None:
                self._cache.clear()
                self._solved.clear()
                self._generation += 1
            self._regime = (stats, reliabilities, pmi_scorer)
            return self._generation

    def get(self, key: Hashable, generation: Optional[int] = None) -> Any:
        """The cached ``(col_features, relevance)`` for ``key``, or ``None``.

        ``generation`` (from :meth:`pin`) makes the read refuse entries
        from a *newer* regime: a reader still working under an old pin
        must recompute rather than consume features a concurrent query
        cached after an invalidation — the keys deliberately omit the
        regime, so the token is what keeps one problem's features on one
        stats vintage.  The stale read counts as neither hit nor miss.
        """
        with self._regime_lock:
            if generation is not None and generation != self._generation:
                return None
            return self._cache.get(key)

    def put(self, key: Hashable, value: Any, generation: Optional[int] = None) -> None:
        """Store one table's features under ``key``.

        ``generation`` (from :meth:`pin`) guards against the
        compute-during-invalidation race: an insert carrying a superseded
        token is silently dropped.
        """
        with self._regime_lock:
            if generation is not None and generation != self._generation:
                return
            self._cache.put(key, value)

    def clear(self) -> None:
        """Drop all entries and retire outstanding :meth:`pin` tokens
        (counters and the pinned regime itself are kept)."""
        with self._regime_lock:
            self._cache.clear()
            self._solved.clear()
            self._generation += 1

    def solved(self, key: Hashable, solve: Callable[[], V]) -> V:
        """``solve()``, computed at most once per ``key`` while retained.

        The second memo riding on this object: per-table max-marginals
        (:func:`~repro.inference.max_marginals.table_max_marginals`), which
        the confidence pass and the column-map stage both need for every
        stage-1 table.  ``key`` must hold *everything* ``solve`` reads — the
        potentials themselves, not a table id — so no regime, weight or
        live-IDF change can serve a stale value; the entries are still
        dropped with the features by :meth:`pin` and :meth:`clear`, are
        bounded by the same capacity, and stay out of :attr:`hits`,
        :attr:`misses`, ``len()`` and :meth:`stats`, which keep describing
        features alone.  Values must be immutable (they are handed to every
        caller); threads racing on a cold key may each run ``solve``, to
        equal results.
        """
        value = self._solved.get(key)
        if value is None:
            value = solve()
            self._solved.put(key, value)  # reprolint: disable=R005 -- content-keyed: a put racing clear() can only re-add a correct value, and BoundedCache locks itself
        return cast("V", value)

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def capacity(self) -> int:
        """Maximum number of (query, table) entries retained."""
        return self._cache.capacity

    @property
    def hits(self) -> int:
        """Lookups served from the cache since construction."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Lookups that missed since construction."""
        return self._cache.misses

    def stats(self) -> Dict[str, Any]:
        """Plain-dict counter snapshot (see :meth:`BoundedCache.stats`)."""
        return self._cache.stats()
