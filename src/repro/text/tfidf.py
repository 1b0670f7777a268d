"""TF-IDF vector space used by every similarity in the paper.

The paper scores text matches with TF-IDF weighted cosine similarity
(``inSim`` of Eq. 1), with TF-IDF weighted coverage fractions (``Cover``,
Section 3.2.2) and with squared TF-IDF term weights inside ``outSim``.  All
of those need a single corpus-wide IDF table; :class:`TermStatistics`
provides it and :class:`TfIdfVector` implements the sparse vector algebra.

IDF uses the standard smoothed form ``idf(w) = ln(1 + N / (1 + df(w)))`` so
unseen terms still receive a positive weight (the paper matches query tokens
that may not occur in the indexed corpus at all).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

__all__ = ["TermStatistics", "TfIdfVector"]


class TermStatistics:
    """Document-frequency table supplying IDF weights.

    A *document* here is whatever unit the caller chooses — when built from
    the web-table corpus we count each table once per distinct term
    (header + context + content), mirroring Lucene's per-document df.
    """

    __slots__ = ("_df", "_num_docs")

    def __init__(self) -> None:
        self._df: Counter = Counter()
        self._num_docs = 0

    @property
    def num_docs(self) -> int:
        """Number of documents folded into the statistics."""
        return self._num_docs

    def add_document(self, terms: Iterable[str]) -> None:
        """Count one document containing ``terms`` (duplicates ignored)."""
        self._num_docs += 1
        for term in sorted(set(terms)):
            self._df[term] += 1

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return self._df.get(term, 0)

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of ``term``."""
        return math.log(1.0 + (self._num_docs + 1.0) / (1.0 + self._df.get(term, 0)))

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-compatible dict."""
        return {"num_docs": self._num_docs, "df": dict(self._df)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> TermStatistics:
        """Inverse of :meth:`to_dict`."""
        stats = cls()
        stats._num_docs = int(data["num_docs"])
        stats._df = Counter({str(k): int(v) for k, v in dict(data["df"]).items()})
        return stats


class TfIdfVector:
    """A sparse TF-IDF vector over a token multiset.

    Term weight is ``tf(w) * idf(w)`` with raw term frequency; the paper's
    ``TI(w)`` notation corresponds to :meth:`weight`.
    """

    __slots__ = ("_weights", "_norm")

    def __init__(self, weights: Mapping[str, float]) -> None:
        self._weights: Dict[str, float] = {t: w for t, w in weights.items() if w != 0.0}
        self._norm = math.sqrt(
            sum(w * w for w in self._weights.values())  # reprolint: disable=R003 -- insertion order is first-occurrence token order, fixed by the input sequence
        )

    @classmethod
    def from_tokens(
        cls, tokens: Sequence[str], stats: Optional[TermStatistics] = None
    ) -> TfIdfVector:
        """Build a vector from ``tokens``; without ``stats`` all idf = 1."""
        tf = Counter(tokens)
        if stats is None:
            return cls({t: float(c) for t, c in tf.items()})
        return cls({t: c * stats.idf(t) for t, c in tf.items()})

    @property
    def norm(self) -> float:
        """L2 norm — the paper's ``||P||`` over a token sequence P."""
        return self._norm

    @property
    def norm_squared(self) -> float:
        """Squared L2 norm, used in Eq. 1's segment weights."""
        return self._norm * self._norm

    def weight(self, term: str) -> float:
        """TF-IDF weight of ``term`` (0 if absent)."""
        return self._weights.get(term, 0.0)

    def terms(self) -> Iterable[str]:
        """Iterate over terms with non-zero weight."""
        return self._weights.keys()

    def items(self) -> Iterable[Tuple[str, float]]:
        """Iterate over ``(term, weight)`` pairs."""
        return self._weights.items()

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, term: str) -> bool:
        return term in self._weights

    def dot(self, other: TfIdfVector) -> float:
        """Sparse dot product."""
        if len(other) < len(self):
            return other.dot(self)
        return sum(
            w * other._weights.get(t, 0.0) for t, w in self._weights.items()  # reprolint: disable=R003 -- insertion order is first-occurrence token order, fixed by the input sequence
        )

    def cosine(self, other: TfIdfVector) -> float:
        """Cosine similarity; 0 when either vector is empty."""
        if self._norm == 0.0 or other._norm == 0.0:
            return 0.0
        return self.dot(other) / (self._norm * other._norm)

