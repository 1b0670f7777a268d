"""Text analysis substrate: tokenization and the TF-IDF vector space."""

from .tfidf import TermStatistics, TfIdfVector
from .tokenize import (
    STOP_WORDS,
    normalize_cell,
    tokenize,
    tokenize_keep_stopwords,
)

__all__ = [
    "STOP_WORDS",
    "TermStatistics",
    "TfIdfVector",
    "normalize_cell",
    "tokenize",
    "tokenize_keep_stopwords",
]
