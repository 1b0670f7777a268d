"""Tokenization for web-table text.

WWT treats headers, contexts, cell contents, and query column descriptors as
bags of lower-cased word tokens.  The tokenizer here is deliberately simple
and deterministic: it lower-cases, splits on non-alphanumeric characters,
keeps digit runs (cell contents are frequently numeric), and drops a small
stop-word list that mirrors what a Lucene ``StandardAnalyzer`` would remove.
"""

from __future__ import annotations

import re
from typing import List

__all__ = [
    "STOP_WORDS",
    "tokenize",
    "tokenize_keep_stopwords",
    "normalize_cell",
]

#: Stop words removed from indexed and matched text.  The list matches the
#: classic Lucene English stop set, which the paper's Lucene index would have
#: used by default.
STOP_WORDS = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
        "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
        "that", "the", "their", "then", "there", "these", "they", "this",
        "to", "was", "will", "with",
    }
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_WS_RE = re.compile(r"\s+")


def stem(token: str) -> str:
    """Light plural/suffix stemmer (an S-stemmer with -ie folding).

    Queries say "mountains", headers say "Mountain"; the paper's Lucene
    analyzer folds these together and every similarity in the system
    depends on it.  Rules: ``-ies``/``-ie`` -> ``-y`` (so "movies" and
    "movie" agree), ``-es`` after a sibilant digraph dropped, trailing
    ``-s`` dropped (but never ``-ss``/``-us``/``-is``).

    >>> [stem(w) for w in ("mountains", "phases", "countries", "glasses")]
    ['mountain', 'phase', 'country', 'glass']
    >>> stem("movies") == stem("movie")
    True
    """
    # Every rule below needs a trailing "s" or "e"; most tokens have
    # neither and skip the whole chain ("" falls through and is kept).
    if token[-1:] not in "se":
        return token
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith("ie"):
        return token[:-2] + "y"
    if len(token) > 4 and token.endswith(("sses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if (
        len(token) > 3
        and token.endswith("s")
        and not token.endswith(("ss", "us", "is"))
    ):
        return token[:-1]
    return token


def tokenize_keep_stopwords(text: str) -> List[str]:
    """Split ``text`` into lower-case alphanumeric tokens, keeping stop words.

    >>> tokenize_keep_stopwords("The Explorers of the Sea!")
    ['the', 'explorers', 'of', 'the', 'sea']
    """
    if not text:
        return []
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str) -> List[str]:
    """Split ``text`` into lower-case, stemmed tokens, stop words removed.

    This is the analyzer applied uniformly to queries, headers, contexts and
    body cells so that term statistics are comparable across fields.

    >>> tokenize("Names of Explorers")
    ['name', 'explorer']
    """
    return [
        stem(tok)
        for tok in tokenize_keep_stopwords(text)
        if tok not in STOP_WORDS
    ]


def normalize_cell(text: str) -> str:
    """Normalize a cell value for duplicate detection.

    Lower-cases, collapses whitespace and strips punctuation so that
    ``"Vasco da Gama"`` and ``" vasco  da gama."`` compare equal.
    """
    return " ".join(tokenize_keep_stopwords(text))

