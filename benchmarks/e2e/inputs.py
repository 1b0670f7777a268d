"""Seeded, deterministic input generation.

``--seed`` is the only source of randomness in a run, and the same seed
yields byte-identical request streams (each workload records a digest of
what it sent).  The seed drives the *traffic*: query order, the Zipf
request stream, ingest batches and delete sets.  The *corpora* are fixed
data sets (:data:`CORPUS_SEED`), because per-corpus latency differs by
10-20 % between corpus seeds on every statistic (measured p50 32-42 ms
over eight seeds at scale 1.0), which would swamp the regression bound the
moment two runs used different seeds.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.corpus.generator import iter_synthetic_tables
from repro.query import WORKLOAD, Query
from repro.service import normalized_query_key
from repro.tables.table import WebTable

__all__ = [
    "CORPUS_SEED",
    "FULL",
    "SMOKE",
    "Sizes",
    "digest",
    "ingest_pool",
    "pass_order",
    "query_population",
    "renamed",
    "sample_indices",
    "workload_queries",
    "zipf_stream",
]

#: Seed of every generated corpus (the repo-wide default corpus seed).
CORPUS_SEED = 42


@dataclass(frozen=True)
class Sizes:
    """How much each workload builds and repeats; ``--smoke`` shrinks it."""

    #: ``CorpusConfig.scale`` of the paper corpus (1.0 = about 1 k tables).
    scale: float
    #: Tables in the ``bigcorpus`` directory.
    big_tables: int
    #: Every ``big_stride``-th workload query is used on ``bigcorpus``
    #: (a query there costs ~0.1 s; fewer queries leave room for more
    #: passes, and the best of more passes is the steadier estimate).
    big_stride: int
    #: Nominal seconds of one ``paper59`` pass, ``bigcorpus`` pass and
    #: ``ingest_live`` round on this host.  ``--seconds`` over these gives
    #: the number of repeats, so a run is a fixed amount of work: were the
    #: repeats counted off the clock, a slow spell of the host would also
    #: cut the repeats that the best-of statistics need to see past it.
    paper_pass_s: float
    big_pass_s: float
    ingest_round_s: float
    #: Set-up repetitions per run; ``setup_s`` is their median.
    setup_reps: int
    #: ``serve_zipf``: distinct queries (each misses the result cache
    #: once) per second of ``--seconds``, shared out over the passes: a
    #: fixed amount of work, not a fixed time.  Every query is repeated
    #: ``zipf_repeats`` times on average: with nine hits to a miss the
    #: median request is a middling hit and the 95th percentile a middling
    #: miss, neither near the boundary between the two.
    zipf_misses_per_second: int
    zipf_repeats: int
    #: Untimed requests that warm a freshly started server.
    zipf_warm: int
    #: Served payloads compared byte for byte with in-process answers.
    zipf_checked: int
    #: ``ingest_live``: batches per round and tables per batch.
    ingest_batches: int
    ingest_batch_tables: int
    #: Queries compared against a fresh rebuild after the last compaction.
    ingest_checked: int
    #: Queries whose replayed rows are compared with the facade's in an
    #: untraced run (a traced run compares every query it replays).
    replay_checked: int


FULL = Sizes(
    scale=1.0, big_tables=5000, big_stride=4, paper_pass_s=4.0, big_pass_s=2.5,
    ingest_round_s=2.5, setup_reps=3,
    zipf_misses_per_second=13, zipf_repeats=9, zipf_warm=12,
    zipf_checked=16, ingest_batches=10,
    ingest_batch_tables=20, ingest_checked=10, replay_checked=4,
)
SMOKE = Sizes(
    scale=0.1, big_tables=400, big_stride=12, paper_pass_s=0.3, big_pass_s=0.1,
    ingest_round_s=0.15, setup_reps=1,
    zipf_misses_per_second=13, zipf_repeats=9, zipf_warm=3,
    zipf_checked=8, ingest_batches=3,
    ingest_batch_tables=5, ingest_checked=4, replay_checked=2,
)


def _rng(seed: int, label: str) -> random.Random:
    # A str seed hashes through SHA-512, so streams are stable across
    # processes and Python builds (unlike hash()-based seeding).
    return random.Random(f"e2e:{seed}:{label}")


def workload_queries(stride: int = 1) -> List[Query]:
    """The paper's 59 workload queries (every ``stride``-th of them)."""
    return [wq.query for wq in WORKLOAD[::stride]]


def pass_order(seed: int, pass_no: int, n: int) -> List[int]:
    """The order in which pass ``pass_no`` visits ``n`` queries."""
    order = list(range(n))
    _rng(seed, f"pass:{pass_no}").shuffle(order)
    return order


def sample_indices(seed: int, label: str, n: int, k: int) -> List[int]:
    """``k`` distinct indices below ``n`` (all of them when ``k >= n``)."""
    if k >= n:
        return list(range(n))
    return sorted(_rng(seed, label).sample(range(n), k))


def query_population() -> List[str]:
    """Every ordered non-empty sub-tuple of each workload query's columns.

    Deduplicated by the engine's own cache key, so two population entries
    never share a result-cache slot.  377 distinct queries: larger than
    the server's 256-entry result cache.
    """
    seen = set()
    out: List[str] = []
    for wq in WORKLOAD:
        columns = wq.query.columns
        for size in range(1, len(columns) + 1):
            for combo in itertools.permutations(columns, size):
                key = normalized_query_key(Query(columns=combo))
                if key not in seen:
                    seen.add(key)
                    out.append(" | ".join(combo))
    return out


def zipf_stream(
    seed: int, population: List[str], warm: int, distinct: int,
    repeats: int, s: float = 0.6,
) -> Tuple[List[str], List[str]]:
    """The (warm, timed) request lists of one ``serve_zipf`` pass.

    The timed list holds ``distinct`` queries (every fourth of the
    population) once each plus ``repeats`` times as many Zipf(``s``) draws
    over a seeded popularity ranking of the same queries, shuffled: a
    query's first request misses the server's result cache and every later
    one hits.  Which queries are asked is fixed (their cost differs
    fifty-fold, so a seed-dependent set moved the rate by a fifth); the
    seed decides their popularity and the order of everything.  The warm
    list is ``warm`` other queries, so the server has loaded its shards
    and run every code path once before the first timed request.
    """
    rng = _rng(seed, "zipf")
    queries = population[0::4][:distinct]
    if len(queries) < distinct:
        raise ValueError(
            f"{distinct} distinct queries wanted, {len(queries)} available"
        )
    ranked = list(queries)
    rng.shuffle(ranked)
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank ** s
        cumulative.append(total)
    timed = queries + [
        ranked[bisect.bisect_left(cumulative, rng.random() * total)]
        for _ in range(repeats * distinct)
    ]
    rng.shuffle(timed)
    return population[2::4][:warm], timed


def ingest_pool(seed: int, n: int) -> List[WebTable]:
    """The ``n`` tables every ``ingest_live`` round journals.

    The tables are fixed data; the seed decides the order in which they
    arrive, and so what each batch holds.
    """
    pool = list(iter_synthetic_tables(n, seed=CORPUS_SEED + 1, id_prefix="live-"))
    _rng(seed, "ingest").shuffle(pool)
    return pool


def renamed(table: WebTable, prefix: str) -> WebTable:
    """A copy of ``table`` whose id carries ``prefix``."""
    data = table.to_dict()
    data["table_id"] = prefix + table.table_id
    return WebTable.from_dict(data)


def digest(parts: Iterable[str]) -> str:
    """SHA-256 over ``parts`` (length-prefixed, so boundaries count)."""
    h = hashlib.sha256()
    for part in parts:
        raw = part.encode("utf-8")
        h.update(f"{len(raw)}:".encode("ascii"))
        h.update(raw)
    return h.hexdigest()
