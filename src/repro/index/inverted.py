"""A fielded inverted index with Lucene-classic scoring, compiled for speed.

WWT indexes every extracted table as a document with three text fields —
``header``, ``context``, ``content`` — boosted 2.0 / 1.5 / 1.0 respectively
(Section 2.1).  Query-time candidate retrieval is a disjunctive keyword
probe over all fields (Section 2.2.1); the PMI² feature needs conjunctive
containment probes over specific fields (Section 3.2.3).  This module
provides both on one posting structure.

Scoring follows Lucene's classic TF-IDF similarity:
``score(d) = sum_f boost_f * sum_t sqrt(tf) * idf(t)^2 * norm_f(d)`` with
``idf(t) = 1 + ln(N / (df+1))`` and ``norm_f(d) = 1/sqrt(len_f(d))`` —
close enough to Lucene 3.x (which the paper would have used in 2012) that
ranking behaviour is preserved.

**Compiled layout** (the hot-path engine, see DESIGN.md "Hot-path
engine"): document ids are interned to dense integers at add time, each
``(field, term)`` posting list is a :class:`_PostingList` of parallel
``array`` columns (doc numbers, raw tfs, precomputed ``sqrt(tf)``), and
per-field length norms ``1/sqrt(len)`` live in one dense list indexed by
doc number.  The score loop therefore performs only array reads and float
multiplies — no per-document dict lookups, no ``math.sqrt`` calls — and
top-k selection uses a bounded heap (``heapq.nsmallest``) instead of a
full sort.  Per-term document frequencies are maintained incrementally in
:meth:`InvertedIndex.add_document` / :meth:`InvertedIndex.remove_document`
so :meth:`InvertedIndex.document_frequency`, :meth:`InvertedIndex.idf`,
and :meth:`InvertedIndex.term_statistics` are O(1)/O(vocab) reads instead
of set unions over every posting list.

Every floating-point expression keeps the pre-compilation association
order, and posting arrays preserve the insertion order the old dict
postings had (ordered deletion, not swap-deletion), so scores — not just
rankings — are bit-identical to the naive implementation, which lives on
in ``tests/naive_scorer.py`` as the scoring oracle of
``tests/test_hotpath.py``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import Counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from ..text.tfidf import TermStatistics
from ..text.tokenize import tokenize

__all__ = [
    "FIELD_BOOSTS",
    "SearchHit",
    "InvertedIndex",
    "lucene_idf",
]

#: Field boosts from Section 2.1.
FIELD_BOOSTS: Dict[str, float] = {"header": 2.0, "context": 1.5, "content": 1.0}


def lucene_idf(num_docs: int, df: int) -> float:
    """Lucene-classic ``idf = 1 + ln(N / (df + 1))``.

    The one shared definition: :meth:`InvertedIndex.idf` evaluates it with
    index-local counts, ``ShardedCorpus.global_idf`` with corpus-global
    counts — keeping them textually identical is what guarantees rankings
    do not depend on the shard count.
    """
    return 1.0 + math.log(num_docs / (df + 1.0))


class SearchHit:
    """One ranked retrieval result."""

    __slots__ = ("doc_id", "score")

    def __init__(self, doc_id: str, score: float) -> None:
        self.doc_id = doc_id
        self.score = score

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SearchHit({self.doc_id!r}, {self.score:.3f})"


class _PostingList:
    """One ``(field, term)`` posting list as parallel array columns.

    ``doc_nums[i]`` is the interned document number, ``tfs[i]`` the raw
    term frequency (kept for persistence and inspection), ``weights[i]``
    the precomputed ``boost * sqrt(tf)`` the score loop reads — the
    field's boost is constant per posting list, and ``boost * sqrt(tf)``
    is exactly the first (left-associative) product of the classic score
    expression, so baking it in at add time changes no bits.  Entries
    stay in insertion order; deletion shifts (``del``) rather than
    swap-deletes so score accumulation order — and therefore the
    accumulated float — is identical to the dict-based implementation
    this replaced.
    """

    __slots__ = ("doc_nums", "tfs", "weights")

    def __init__(self) -> None:
        self.doc_nums = array("q")
        self.tfs = array("q")
        self.weights = array("d")

    def __len__(self) -> int:
        return len(self.doc_nums)

    def append(self, doc_num: int, tf: int, boost: float) -> None:
        """Add one posting entry (amortized O(1))."""
        self.doc_nums.append(doc_num)
        self.tfs.append(tf)
        self.weights.append(boost * math.sqrt(tf))

    def discard(self, doc_num: int) -> bool:
        """Remove ``doc_num``'s entry, preserving order; False if absent."""
        try:
            i = self.doc_nums.index(doc_num)
        except ValueError:  # reprolint: disable=R008 -- absence is this method's documented False return, not an absorbed failure; the caller counts removals
            return False
        del self.doc_nums[i]
        del self.tfs[i]
        del self.weights[i]
        return True


class InvertedIndex:
    """In-memory fielded inverted index over token streams.

    Construction interns every document id to a dense integer and compiles
    postings into parallel arrays (see the module docstring); the public
    surface still speaks document-id strings everywhere.
    """

    def __init__(self, boosts: Optional[Mapping[str, float]] = None) -> None:
        self.boosts: Dict[str, float] = dict(boosts or FIELD_BOOSTS)
        # postings[field][term] -> _PostingList (parallel array columns).
        self._postings: Dict[str, Dict[str, _PostingList]] = {
            f: {} for f in self.boosts
        }
        # Dense per-field norms 1/sqrt(max(len, 1)) indexed by doc number;
        # slots default to 1.0 (the norm of a document without the field).
        self._norms: Dict[str, List[float]] = {f: [] for f in self.boosts}
        # Raw per-field token counts, keyed by doc number (persistence).
        self._lengths: Dict[str, Dict[int, int]] = {f: {} for f in self.boosts}
        # Interning tables: id -> dense number, number -> id (None = removed;
        # numbers are never reused, so a stale posting can't alias a new doc).
        self._doc_nums: Dict[str, int] = {}
        self._doc_names: List[Optional[str]] = []
        # Incremental per-term document frequency across all fields (each
        # document counted once per term), maintained by add/remove.
        self._df: Counter = Counter()
        self._num_docs = 0

    # -- construction -----------------------------------------------------------

    def _intern(self, doc_id: str) -> int:
        """Assign the next dense document number to ``doc_id``."""
        num = len(self._doc_names)
        self._doc_names.append(doc_id)
        self._doc_nums[doc_id] = num
        for norms in self._norms.values():
            norms.append(1.0)
        return num

    def add_document(self, doc_id: str, fields: Mapping[str, Sequence[str]]) -> None:
        """Index one document given pre-tokenized field token lists."""
        if doc_id in self._doc_nums:
            raise ValueError(f"duplicate document id {doc_id!r}")
        num = self._intern(doc_id)
        indexed_terms: Set[str] = set()
        for field, tokens in fields.items():
            postings = self._postings.get(field)
            if postings is None:
                continue
            boost = self.boosts.get(field, 1.0)
            counts = Counter(tokens)
            for term, tf in counts.items():
                plist = postings.get(term)
                if plist is None:
                    plist = postings[term] = _PostingList()
                plist.append(num, tf, boost)
            indexed_terms.update(counts)
            self._lengths[field][num] = len(tokens)
            self._norms[field][num] = 1.0 / math.sqrt(max(len(tokens), 1))
        for term in sorted(indexed_terms):
            self._df[term] += 1
        self._num_docs += 1

    def add_text_document(self, doc_id: str, fields: Mapping[str, str]) -> None:
        """Index one document given raw field text (tokenized here)."""
        self.add_document(doc_id, {f: tokenize(t) for f, t in fields.items()})

    def remove_document(self, doc_id: str, fields: Mapping[str, Sequence[str]]) -> None:
        """Un-index one document, given the same token lists it was added with.

        The caller supplies the fields (re-analyzing the document is
        cheaper than keeping a forward index here) and the posting entries
        are deleted term by term — O(document · posting length), not
        O(index).  The document's number is retired, not reused; the
        binary encoder renumbers the survivors.  The df counters are
        decremented for exactly the terms whose posting entries were found
        and removed, so they stay consistent with the posting structure
        even on caller error.
        """
        num = self._doc_nums.pop(doc_id)  # KeyError(doc_id) when absent
        self._doc_names[num] = None
        removed_terms: Set[str] = set()
        for field, tokens in fields.items():
            postings = self._postings.get(field)
            if postings is None:
                continue
            for term in set(tokens):
                plist = postings.get(term)
                if plist is not None and plist.discard(num):
                    removed_terms.add(term)
                    if not plist:
                        del postings[term]
            self._lengths[field].pop(num, None)
            self._norms[field][num] = 1.0
        for term in removed_terms:
            remaining = self._df[term] - 1
            if remaining > 0:
                self._df[term] = remaining
            else:
                del self._df[term]
        self._num_docs -= 1

    # -- statistics -----------------------------------------------------------

    @property
    def num_docs(self) -> int:
        """Number of indexed documents."""
        return self._num_docs

    def document_frequency(self, term: str, fields: Optional[Iterable[str]] = None) -> int:
        """Number of documents containing ``term`` in any of ``fields``.

        The default (all fields) reads the incrementally maintained
        counter — O(1).  An explicit field subset unions the relevant
        posting lists (the rare diagnostic path).
        """
        if fields is None:
            return self._df.get(term, 0)
        docs: Set[int] = set()
        for field in fields:
            plist = self._postings[field].get(term)
            if plist is not None:
                docs.update(plist.doc_nums)
        return len(docs)

    def idf(self, term: str) -> float:
        """Lucene-classic idf across all fields (O(1) df lookup)."""
        return lucene_idf(self._num_docs, self._df.get(term, 0))

    def term_statistics(self) -> TermStatistics:
        """Export corpus-wide document frequencies as :class:`TermStatistics`.

        Every downstream TF-IDF similarity (SegSim, Cover, column content)
        draws its IDF weights from this one table so scores are comparable.
        O(vocabulary): the df counters are already maintained, nothing is
        re-derived from posting lists.
        """
        return TermStatistics.from_dict(
            {"num_docs": self._num_docs, "df": dict(self._df)}
        )

    # -- retrieval -----------------------------------------------------------

    def search(
        self,
        terms: Sequence[str],
        limit: int = 100,
        idf: Optional[Callable[[str], float]] = None,
    ) -> List[SearchHit]:
        """Disjunctive (OR) boosted TF-IDF retrieval over every field.

        ``terms`` should already be analyzed (lower-case tokens); duplicates
        are collapsed.  Returns at most ``limit`` hits, best first, ties
        broken by doc id for determinism.

        ``idf`` overrides the per-term IDF (default: this index's own
        :meth:`idf`).  A sharded corpus passes a corpus-global IDF here so
        every shard scores documents exactly as one index over all would —
        tf, field length, and boost are per-document quantities, so a global
        IDF is the only ingredient needed for shard-invariant scores.  The
        override is evaluated once per term per search (cached locally),
        never once per field.
        """
        if self._num_docs == 0:
            return []
        idf_of = idf if idf is not None else self.idf
        wanted = list(dict.fromkeys(terms))
        scores: Dict[int, float] = {}
        idf_cache: Dict[str, float] = {}
        get = scores.get
        for field, postings in self._postings.items():
            norms = self._norms[field]
            for term in wanted:
                plist = postings.get(term)
                if not plist:
                    continue
                term_idf = idf_cache.get(term)
                if term_idf is None:
                    term_idf = idf_cache[term] = idf_of(term)
                # weight = boost * sqrt(tf), baked at add time; the
                # remaining multiplies keep the historical left-to-right
                # association so accumulated floats stay bit-identical to
                # the naive scorer (tests assert score equality, not just
                # order).
                for d, weight in zip(plist.doc_nums, plist.weights):
                    scores[d] = get(d, 0.0) + (
                        weight * term_idf * term_idf * norms[d]
                    )
        names = self._doc_names
        ranked = heapq.nsmallest(
            limit, scores.items(), key=lambda kv: (-kv[1], names[kv[0]])
        )
        return [SearchHit(names[d], score) for d, score in ranked]

    def docs_containing_all(
        self, terms: Sequence[str], fields: Iterable[str]
    ) -> Set[str]:
        """Documents containing *every* term in at least one of ``fields``.

        This is the containment probe PMI² needs: ``H(Q_l)`` uses
        ``fields=("header", "context")``; ``B(cell)`` uses
        ``fields=("content",)``.  An empty term list yields the empty set
        (a contentless probe matches nothing useful).
        """
        wanted = list(dict.fromkeys(terms))
        if not wanted:
            return set()
        field_list = list(fields)
        result: Optional[Set[int]] = None
        for term in wanted:
            docs: Set[int] = set()
            for field in field_list:
                plist = self._postings.get(field, {}).get(term)
                if plist is not None:
                    docs.update(plist.doc_nums)
            result = docs if result is None else (result & docs)
            if not result:
                return set()
        names = self._doc_names
        return {names[d] for d in result}

    def postings(self, field: str, term: str) -> Dict[str, int]:
        """Raw posting list (doc -> tf) for inspection and tests."""
        plist = self._postings.get(field, {}).get(term)
        if plist is None:
            return {}
        names = self._doc_names
        return {names[d]: tf for d, tf in zip(plist.doc_nums, plist.tfs)}
