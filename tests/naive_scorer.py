"""The pre-compilation reference scorer: the oracle of ``test_hotpath``.

Snapshots an :class:`~repro.index.InvertedIndex` back into the
dict-of-dicts posting structure the index used before the hot-path
compilation and scores it with the original algorithm: per-field idf
evaluation, per-document length-dict lookups, ``math.sqrt`` in the loop,
and a full sort of every scored document.  The equivalence tests assert
the compiled :meth:`InvertedIndex.search` matches this hit-for-hit —
doc ids and scores, bit-exactly.  The snapshot is taken at construction.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

from repro.index import InvertedIndex, SearchHit
from repro.index.inverted import lucene_idf


class NaiveScorer:
    """Dict-walking Lucene-classic scorer over a snapshot of one index."""

    def __init__(self, index: InvertedIndex) -> None:
        self.boosts = dict(index.boosts)
        self._postings: Dict[str, Dict[str, Dict[str, int]]] = {}
        self._field_lengths: Dict[str, Dict[str, int]] = {}
        names = index._doc_names
        for field, terms in index._postings.items():
            self._postings[field] = {
                term: {names[d]: tf for d, tf in zip(p.doc_nums, p.tfs)}
                for term, p in terms.items()
            }
            self._field_lengths[field] = {
                names[num]: n for num, n in index._lengths[field].items()
            }
        self.num_docs = index.num_docs
        self._df = {term: index.document_frequency(term) for term in index._df}

    def idf(self, term: str) -> float:
        """Lucene-classic idf over the snapshot's counts."""
        return lucene_idf(self.num_docs, self._df.get(term, 0))

    def search(
        self,
        terms: Sequence[str],
        limit: int = 100,
        idf: Optional[Callable[[str], float]] = None,
    ) -> List[SearchHit]:
        """The original dict-walking search loop: full sort, no bounded heap."""
        if self.num_docs == 0:
            return []
        idf_of = idf if idf is not None else self.idf
        wanted = list(dict.fromkeys(terms))
        scores: Dict[str, float] = defaultdict(float)
        for field, by_term in self._postings.items():
            boost = self.boosts.get(field, 1.0)
            lengths = self._field_lengths[field]
            for term in wanted:
                postings = by_term.get(term)
                if not postings:
                    continue
                term_idf = idf_of(term)
                for doc_id, tf in postings.items():
                    norm = 1.0 / math.sqrt(max(lengths.get(doc_id, 1), 1))
                    scores[doc_id] += (
                        boost * math.sqrt(tf) * term_idf * term_idf * norm
                    )
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
        return [SearchHit(doc_id, score) for doc_id, score in ranked]
