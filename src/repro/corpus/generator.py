"""Corpus generation: domains -> pages -> extraction -> indexed corpus.

This is the substitute for the paper's 500M-page crawl (see DESIGN.md).  The
generated HTML is pushed through the *real* offline pipeline — the HTML
parser, data-table heuristics, header detection, and context extraction of
Section 2.1 — so every downstream component consumes tables with authentic
extraction noise, not hand-built fixtures.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..html.parser import parse_html
from ..index.builder import build_corpus_index
from ..index.sharded import ShardedCorpus
from ..tables.extractor import ExtractionCensus, extract_tables
from ..tables.table import ContextSnippet, WebTable
from .domains import REGISTRY, Domain
from .groundtruth import TableProvenance
from .pages import GeneratedPage, render_page

__all__ = [
    "CorpusConfig",
    "SyntheticCorpus",
    "generate_corpus",
    "iter_synthetic_tables",
    "iter_tables",
]


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus generation.

    ``scale`` multiplies every domain's page count — tests run at small
    scale, benchmarks at 1.0.
    """

    seed: int = 42
    scale: float = 1.0
    max_rows_per_table: int = 24
    domains: Optional[Tuple[str, ...]] = None  # restrict to these keys


@dataclass
class SyntheticCorpus:
    """The generated corpus bundle.

    ``corpus`` is a :class:`~repro.index.sharded.ShardedCorpus` of
    ``num_shards`` shards (one unless ``generate_corpus`` was told
    otherwise).
    """

    corpus: ShardedCorpus
    pages: List[GeneratedPage]
    provenance: Dict[str, TableProvenance]
    census: ExtractionCensus

    @property
    def num_tables(self) -> int:
        """Number of extracted data tables."""
        return self.corpus.num_tables


def _scaled_pages(domain: Domain, scale: float) -> int:
    if domain.num_pages <= 0:
        return 0
    return max(1, round(domain.num_pages * scale))


def _extracted_tables(
    config: CorpusConfig,
    registry: Dict[str, Domain],
    census: ExtractionCensus,
    id_prefix: str = "",
    pages_out: Optional[List[GeneratedPage]] = None,
    provenance_out: Optional[Dict[str, TableProvenance]] = None,
) -> Iterator[WebTable]:
    """Render, parse, and extract tables page by page (the streaming core).

    One generator shared by :func:`generate_corpus` (which collects
    everything) and :func:`iter_tables` (which streams) so both paths push
    the HTML through the identical extraction pipeline.
    """
    rng = random.Random(config.seed)
    keys = config.domains if config.domains is not None else tuple(sorted(registry))
    all_topics = tuple(
        registry[k].topic_phrase for k in sorted(registry) if not k.startswith("d_")
    )
    for key in keys:
        domain = registry[key]
        related = tuple(t for t in all_topics if t != domain.topic_phrase)
        for page_idx in range(_scaled_pages(domain, config.scale)):
            page = render_page(
                domain, page_idx, rng,
                max_rows=config.max_rows_per_table,
                related_topics=related,
            )
            if pages_out is not None:
                pages_out.append(page)
            root = parse_html(page.html)
            extracted = extract_tables(
                root,
                url=page.url,
                id_prefix=f"{id_prefix}{page.page_id}_t",
                census=census,
            )
            data_tables = [
                t for t in extracted if t.num_cols == len(page.column_attrs)
            ]
            if len(data_tables) != 1:
                raise RuntimeError(
                    f"page {page.page_id}: expected exactly one data table, "
                    f"got {len(data_tables)} (of {len(extracted)} extracted)"
                )
            table = data_tables[0]
            if provenance_out is not None:
                provenance_out[table.table_id] = TableProvenance(
                    table_id=table.table_id,
                    domain_key=page.domain_key,
                    column_attrs=page.column_attrs,
                    is_distractor=page.is_distractor,
                )
            yield table


def iter_tables(
    config: Optional[CorpusConfig] = None,
    registry: Optional[Dict[str, Domain]] = None,
    id_prefix: str = "",
) -> Iterator[WebTable]:
    """Stream freshly extracted tables without building an index.

    The ingestion path for incremental updates: generated pages go through
    the full real extraction pipeline, but the tables are *yielded* one by
    one instead of being indexed, ready for
    :meth:`~repro.index.sharded.ShardedCorpus.add_tables`::

        corpus = load_corpus("corpus-dir")
        corpus.add_tables(iter_tables(CorpusConfig(scale=0.05),
                                      id_prefix="live-"))

    Page ids are deterministic functions of domain and page index, so
    ``id_prefix`` is how a stream destined for an existing corpus avoids
    colliding with the ids the original build already took.
    """
    config = config if config is not None else CorpusConfig()
    registry = registry if registry is not None else REGISTRY
    yield from _extracted_tables(
        config, registry, ExtractionCensus(), id_prefix=id_prefix
    )


def _zipf_cumweights(n: int, s: float) -> List[float]:
    """Cumulative Zipf(s) weights over ranks 1..n (for bisect sampling)."""
    acc = 0.0
    out: List[float] = []
    for rank in range(1, n + 1):
        acc += 1.0 / rank ** s
        out.append(acc)
    return out


def iter_synthetic_tables(
    num_tables: int,
    seed: int = 42,
    registry: Optional[Dict[str, Domain]] = None,
    id_prefix: str = "syn-",
    mix_prob: float = 0.12,
    zipf_s: float = 1.07,
    max_rows: int = 48,
) -> Iterator[WebTable]:
    """Stream ``num_tables`` synthetic tables at web-corpus scale.

    The HTML round-trip of :func:`iter_tables` makes every table cost a
    full render+parse+extract — right for fidelity, far too slow for the
    10^5–10^6 table range the paper's engine targets.  This path builds
    :class:`WebTable` objects directly from the same domain wordbanks,
    with the skew a crawl shows instead of the registry's hand-set page
    counts:

    - **Zipfian domain popularity** with exponent ``zipf_s`` over a
      seeded shuffle of the registry (a handful of head domains dominate,
      the tail thins out — mirroring content popularity on the web);
    - **Zipfian table sizes**: body row counts follow the same law,
      scaled into ``[2, max_rows]``, so most tables are short and a few
      are long;
    - **domain mixing**: with probability ``mix_prob`` a table's context
      sentence names a *different* domain's topic, the off-topic noise
      that makes relevance non-trivial.

    Tables stream one at a time — O(1) memory, ready for
    :func:`~repro.index.builder.build_corpus_stream`.  The stream is a
    pure function of its arguments (seeded ``random.Random``), so two
    runs produce identical corpora — which is what lets benchmarks
    compare formats on "the same" 10^5-table corpus without storing it.
    """
    if num_tables < 0:
        raise ValueError("num_tables must be >= 0")
    registry = registry if registry is not None else REGISTRY
    rng = random.Random(seed)
    domains = [registry[k] for k in sorted(registry)]
    rng.shuffle(domains)
    dom_cum = _zipf_cumweights(len(domains), zipf_s)
    dom_total = dom_cum[-1]
    size_cum = _zipf_cumweights(max(1, max_rows - 1), zipf_s)
    size_total = size_cum[-1]
    topics = [d.topic_phrase for d in domains]
    for i in range(num_tables):
        domain = domains[
            bisect.bisect_left(dom_cum, rng.random() * dom_total)
        ]
        num_rows = 2 + bisect.bisect_left(
            size_cum, rng.random() * size_total
        )
        picked = [
            (c, a) for c, a in enumerate(domain.attributes)
            if a.presence >= 1.0 or rng.random() < a.presence
        ]
        if not picked:
            picked = [(0, domain.attributes[0])]
        cols = [c for c, _ in picked]
        attrs = [a for _, a in picked]
        header = [
            rng.choice(a.vague_headers)
            if a.vague_headers and rng.random() < domain.vague_prob
            else rng.choice(a.headers)
            for a in attrs
        ]
        rows = [
            [domain.rows[rng.randrange(len(domain.rows))][c] for c in cols]
            for _ in range(num_rows)
        ]
        topic = domain.topic_phrase
        if len(topics) > 1 and rng.random() < mix_prob:
            other = rng.choice(topics)
            if other != domain.topic_phrase:
                topic = f"{topic} {other}"
        yield WebTable.from_rows(
            rows,
            header=header,
            table_id=f"{id_prefix}{i}",
            context=[ContextSnippet(topic)],
            page_title=domain.page_title,
            url=f"http://synth.example/{domain.key}/{i}",
        )


def generate_corpus(
    config: Optional[CorpusConfig] = None,
    registry: Optional[Dict[str, Domain]] = None,
    num_shards: Optional[int] = None,
) -> SyntheticCorpus:
    """Generate, extract, and index the synthetic corpus.

    Returns a :class:`SyntheticCorpus` whose ``provenance`` maps every
    extracted table id to the generator's knowledge about it — the basis for
    exact ground truth.

    ``num_shards`` passes through to
    :func:`~repro.index.builder.build_corpus_index` (``None`` means one
    shard).
    """
    config = config if config is not None else CorpusConfig()
    registry = registry if registry is not None else REGISTRY
    pages: List[GeneratedPage] = []
    provenance: Dict[str, TableProvenance] = {}
    census = ExtractionCensus()
    tables: List[WebTable] = list(_extracted_tables(
        config, registry, census,
        pages_out=pages, provenance_out=provenance,
    ))

    corpus = build_corpus_index(tables, num_shards=num_shards)
    return SyntheticCorpus(
        corpus=corpus, pages=pages, provenance=provenance, census=census
    )
